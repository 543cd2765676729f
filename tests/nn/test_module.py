"""Tests for Module/Parameter plumbing: state dicts, flattening, forking."""

import numpy as np
import pytest

from repro.nn.batched import BatchedModel
from repro.nn.models import MLP, CifarCNN
from repro.nn.module import Parameter


def predict(model, x):
    """Inference logits of *model* through the batched chain (one client)."""
    return BatchedModel(model, 1).eval().forward(x[None])[0]


class TestParameter:
    def test_value_is_float64(self):
        assert Parameter(np.ones((3, 2), dtype=np.float32)).value.dtype == np.float64


class TestParameterDiscovery:
    def test_named_parameters_of_nested_model(self):
        model = MLP(8, 3, hidden=(5,), seed=0)
        names = [name for name, _ in model.named_parameters()]
        assert "net.layers.1.weight" in names
        assert "net.layers.1.bias" in names
        assert len(names) == 4  # two linear layers x (weight, bias)

    def test_flat_parameter_count(self):
        model = MLP(8, 3, hidden=(5,), seed=0)
        assert model.flatten_parameters().size == 8 * 5 + 5 + 5 * 3 + 3


class TestStateDict:
    def test_roundtrip(self):
        a = MLP(6, 4, hidden=(5,), seed=0)
        b = MLP(6, 4, hidden=(5,), seed=1)
        assert not np.allclose(a.flatten_parameters(), b.flatten_parameters())
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.flatten_parameters(), b.flatten_parameters())

    def test_state_dict_is_a_copy(self):
        model = MLP(4, 2, seed=0)
        state = model.state_dict()
        first_key = next(iter(state))
        state[first_key][:] = 99.0
        assert not np.allclose(dict(model.named_parameters())[first_key].value, 99.0)

    def test_missing_key_rejected(self):
        model = MLP(4, 2, seed=0)
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        model = MLP(4, 2, seed=0)
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = MLP(4, 2, seed=0)
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


    def test_view_state_is_read_only_and_load_copies_it(self):
        # every engine forks a client from the global model's read-only views
        model = MLP(4, 2, seed=0)
        before = model.flatten_parameters()
        view = model.state_dict(copy=False)
        first_key = next(iter(view))
        with pytest.raises(ValueError):
            view[first_key][:] = 99.0
        fork = MLP(4, 2, seed=1)
        fork.load_state_dict(view)
        for parameter in fork.parameters():
            parameter.value += 1.0
        np.testing.assert_array_equal(model.flatten_parameters(), before)


class TestFlattening:
    def test_flatten_concatenates_every_parameter(self):
        model = MLP(5, 3, hidden=(4,), seed=0)
        np.testing.assert_array_equal(
            model.flatten_parameters(),
            np.concatenate([p.value.ravel() for p in model.parameters()]))


#: every model family, built at two seeds, with an input batch it accepts
MODELS = {
    "mlp": (lambda seed: MLP(64, 10, seed=seed), (4, 64)),
    "cifar_cnn_1ch": (lambda seed: CifarCNN(1, 8, 10, seed=seed), (4, 1, 8, 8)),
    "cifar_cnn": (lambda seed: CifarCNN(3, 8, 10, seed=seed), (4, 3, 8, 8)),
}


@pytest.mark.parametrize("family", sorted(MODELS))
class TestEveryModel:
    def test_state_dict_carries_the_whole_model(self, family):
        make, shape = MODELS[family]
        x = np.random.default_rng(0).normal(size=shape)
        a, b = make(0), make(1)
        assert not np.array_equal(predict(a, x), predict(b, x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(predict(a, x), predict(b, x))

    def test_loaded_fork_predicts_alike_and_trains_apart(self, family):
        make, shape = MODELS[family]
        x = np.random.default_rng(1).normal(size=shape)
        model = make(0)
        fork = make(1)
        fork.load_state_dict(model.state_dict(copy=False))
        np.testing.assert_array_equal(predict(model, x), predict(fork, x))
        before = model.flatten_parameters()
        for parameter in fork.parameters():
            parameter.value += 1.0
        np.testing.assert_array_equal(model.flatten_parameters(), before)

    def test_flat_length_is_the_state_dict_size(self, family):
        model = MODELS[family][0](0)
        assert model.flatten_parameters().size == sum(
            value.size for value in model.state_dict().values())
