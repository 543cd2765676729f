"""Tests for the batched (cohort) kernels in repro.nn.batched.

Each kernel is held to the one-client-at-a-time engine kept under
``tests/reference/``.
"""

import numpy as np
import pytest

from repro.nn.batched import (
    BatchedAdam,
    BatchedModel,
    BatchedSGD,
    UnvectorizableModelError,
    batched_cross_entropy,
    flat_layout,
    program_signature,
)
from repro.nn.conv import Conv2d, MaxPool2d
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.models import MLP, CifarCNN, _NamedChain
from repro.nn.module import Module

from reference.sequential_nn import SGD, Adam, CrossEntropyLoss, Model


def clone_with_state(factory, state):
    """A fresh model loaded with *state*, run by the sequential engine."""
    model = factory()
    model.load_state_dict(state)
    return Model(model)


def batched_from(factory, k, state):
    batched = BatchedModel(factory(), k)
    batched.load_state_dict_broadcast(state)
    return batched


MODEL_FACTORIES = {
    "mlp": lambda: MLP(64, 10, hidden=(16,), seed=3),
    "cifar_cnn_1ch": lambda: CifarCNN(1, 8, 10, channels=(3, 5, 5), hidden=12,
                                      seed=3),
    "cifar_cnn": lambda: CifarCNN(3, 8, 10, channels=(3, 4, 4), hidden=12, seed=3),
}

INPUT_SHAPES = {
    "mlp": (1, 8, 8),
    "cifar_cnn_1ch": (1, 8, 8),
    "cifar_cnn": (3, 8, 8),
}


class TestBatchedForwardBackward:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_matches_per_client_models(self, name):
        factory = MODEL_FACTORIES[name]
        k, b = 4, 6
        state = factory().state_dict()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((k, b, *INPUT_SHAPES[name]))
        grad_out = rng.standard_normal((k, b, 10))

        batched = batched_from(factory, k, state)
        out = batched.forward(x)
        grad_in = batched.backward(grad_out)

        for i in range(k):
            model = clone_with_state(factory, state)
            ref_out = model(x[i])
            for p in model.parameters():
                p.zero_grad()
            ref_grad_in = model.backward(grad_out[i])
            np.testing.assert_allclose(out[i], ref_out, atol=1e-12)
            np.testing.assert_allclose(grad_in[i], ref_grad_in, atol=1e-12)
            ref_state = dict(model.named_parameters())
            for pname, bp in batched._named:
                np.testing.assert_allclose(bp.grad[i], ref_state[pname].grad,
                                           atol=1e-12)

    def test_distinct_client_weights_stay_independent(self):
        factory = MODEL_FACTORIES["mlp"]
        k = 3
        state = factory().state_dict()
        batched = batched_from(factory, k, state)
        # perturb one client's weights only
        name0, bp0 = batched._named[0]
        bp0.value[1] += 0.5
        x = np.random.default_rng(1).standard_normal((k, 4, 1, 8, 8))
        out = batched.forward(x)
        ref = clone_with_state(factory, state)
        np.testing.assert_allclose(out[0], ref(x[0]), atol=1e-12)
        assert not np.allclose(out[1], ref(x[1]))

    def test_nested_sequential_trains_like_sequential(self):
        # a chain that nests a Sequential is flattened in place: one
        # vectorized local update equals the per-client sequential updates
        class Nested(_NamedChain):
            chain = ("head", "body", "out")

            def __init__(self):
                self.head = Flatten()
                self.body = Sequential(Linear(16, 8, seed=0), ReLU(),
                                       Sequential(Linear(8, 8, seed=1), ReLU()))
                self.out = Linear(8, 3, seed=2)

        k, b = 3, 5
        state = Nested().state_dict()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((k, b, 4, 4))
        y = rng.integers(0, 3, size=(k, b))
        batched = batched_from(Nested, k, state)
        optimizer = BatchedSGD(batched, lr=0.1)
        for _ in range(2):
            _, grad = batched_cross_entropy(batched.forward(x), y)
            batched.backward(grad)
            optimizer.step()
        for i in range(k):
            model = clone_with_state(Nested, state)
            ref_optimizer = SGD(model, lr=0.1)
            for _ in range(2):
                _, grad = CrossEntropyLoss()(model(x[i]), y[i])
                ref_optimizer.zero_grad()
                model.backward(grad)
                ref_optimizer.step()
            for name, value in model.state_dict().items():
                np.testing.assert_array_equal(batched.stacked_state()[name][i], value)


class TestBatchedModelStructure:
    def test_unknown_model_raises(self):
        class Weird(Module):
            def __init__(self):
                self.lin = Linear(4, 2, seed=0)

            def forward(self, x):
                return (x @ self.lin.weight.value.T) ** 2

        with pytest.raises(UnvectorizableModelError):
            BatchedModel(Weird(), 2)

    def test_incomplete_chain_raises(self):
        class Partial(_NamedChain):
            chain = ("a",)  # forgets b

            def __init__(self):
                self.a = Linear(4, 4, seed=0)
                self.b = Linear(4, 2, seed=1)

        with pytest.raises(UnvectorizableModelError, match="'b.weight'"):
            BatchedModel(Partial(), 2)

    def test_sequential_with_its_own_forward_raises(self):
        class Residual(Sequential):
            def forward(self, x):
                return x + x @ self.layers[0].weight.value.T

        class OwnBackward(Sequential):
            def backward(self, grad_output):
                return 2 * grad_output

        for cls in (Residual, OwnBackward):
            with pytest.raises(UnvectorizableModelError):
                BatchedModel(cls(Linear(4, 4, seed=0)), 2)

    def test_load_state_dict_broadcast_validation(self):
        factory = MODEL_FACTORIES["mlp"]
        batched = BatchedModel(factory(), 2)
        state = factory().state_dict()
        bad = dict(state)
        bad.pop(next(iter(bad)))
        with pytest.raises(KeyError):
            batched.load_state_dict_broadcast(bad)
        wrong = {k: (v.T if v.ndim == 2 and v.shape[0] != v.shape[1] else v)
                 for k, v in state.items()}
        with pytest.raises(ValueError):
            batched.load_state_dict_broadcast(wrong)

    def test_invalid_client_count(self):
        with pytest.raises(ValueError):
            BatchedModel(MODEL_FACTORIES["mlp"](), 0)

    def test_state_dicts_are_views(self):
        factory = MODEL_FACTORIES["mlp"]
        batched = batched_from(factory, 3, factory().state_dict())
        states = batched.state_dicts()
        name, bp = batched._named[0]
        bp.value[2] += 1.0
        np.testing.assert_allclose(states[2][name], bp.value[2])

    def test_flat_pool_layout_is_contiguous_per_parameter(self):
        factory = MODEL_FACTORIES["mlp"]
        batched = BatchedModel(factory(), 3)
        assert batched.flat_values.size == sum(bp.value.size
                                               for _, bp in batched._named)
        for _, bp in batched._named:
            assert bp.value.base is batched.flat_values
            assert bp.value.flags.c_contiguous
            assert bp.grad.base is batched.flat_grads


class TestProgramSignature:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_parameter_values_do_not_enter_it(self, name):
        template = MODEL_FACTORIES[name]()
        shifted = MODEL_FACTORIES[name]()
        for param in shifted.parameters():
            param.value += 1.0
        assert program_signature(shifted) == program_signature(template)

    def test_the_train_eval_flag_does_not_enter_it(self):
        template = MODEL_FACTORIES["cifar_cnn"]()
        signature = program_signature(template)
        for layer in template.layers:
            layer.training = False
        assert program_signature(template) == signature

    def test_a_parameter_shape_changes_it(self):
        assert (program_signature(MLP(64, 10, hidden=(16,), seed=3))
                != program_signature(MLP(64, 10, hidden=(24,), seed=3)))

    def test_a_trailing_activation_changes_it(self):
        plain = Sequential(Linear(4, 3, seed=0), ReLU(), Linear(3, 2, seed=1))
        rectified = Sequential(Linear(4, 3, seed=0), ReLU(), Linear(3, 2, seed=1),
                               ReLU())
        assert flat_layout(plain) == flat_layout(rectified)
        assert program_signature(plain) != program_signature(rectified)

    @pytest.mark.parametrize("geometry", [{"stride": 2}, {"padding": 1}])
    def test_conv_geometry_changes_it(self, geometry):
        base = Sequential(Conv2d(1, 2, 3, seed=0))
        other = Sequential(Conv2d(1, 2, 3, seed=0, **geometry))
        assert flat_layout(base) == flat_layout(other)
        assert program_signature(base) != program_signature(other)

    def test_a_pool_window_changes_it(self):
        def chain(window):
            return Sequential(Conv2d(1, 2, 3, seed=0), MaxPool2d(window))

        assert flat_layout(chain(2)) == flat_layout(chain(3))
        assert program_signature(chain(2)) != program_signature(chain(3))

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_batched_model_keeps_its_templates_signature(self, name):
        factory = MODEL_FACTORIES[name]
        assert BatchedModel(factory(), 2).signature == program_signature(factory())

    def test_a_model_that_is_no_chain_has_none(self):
        class Weird(Module):
            def __init__(self):
                self.lin = Linear(4, 2, seed=0)

        with pytest.raises(UnvectorizableModelError):
            program_signature(Weird())


class TestFlatLayout:
    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_param_major_in_named_order(self, name):
        template = MODEL_FACTORIES[name]()
        layout, total = flat_layout(template)
        named = list(template.named_parameters())
        assert [entry[0] for entry in layout] == [pname for pname, _ in named]
        offset = 0
        for (_, entry_offset, shape), (_, param) in zip(layout, named):
            assert entry_offset == offset
            assert shape == param.value.shape
            offset += param.value.size
        assert total == offset

    @pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
    def test_batched_pool_follows_it(self, name):
        factory = MODEL_FACTORIES[name]
        k = 3
        batched = batched_from(factory, k, factory().state_dict())
        for client in range(k):  # make the client rows distinguishable
            for _, bp in batched._named:
                bp.value[client] += client
        layout, total = flat_layout(factory())
        assert batched.flat_values.size == k * total
        stacked = batched.stacked_state()
        for pname, offset, shape in layout:
            size = int(np.prod(shape))
            segment = batched.flat_values[k * offset:k * (offset + size)]
            np.testing.assert_array_equal(segment.reshape(k, *shape), stacked[pname])

    def test_a_shared_parameter_occupies_one_segment(self):
        shared = Linear(4, 4, seed=0)
        layout, total = flat_layout(Sequential(shared, ReLU(), shared))
        assert [(pname, offset) for pname, offset, _ in layout] == [
            ("layers.0.weight", 0), ("layers.0.bias", 16),
            ("layers.2.weight", 0), ("layers.2.bias", 16),
        ]
        assert total == 20


class TestBatchedOptimizers:
    def _grad_filled_models(self, optimizer_name):
        factory = MODEL_FACTORIES["mlp"]
        k = 3
        state = factory().state_dict()
        batched = batched_from(factory, k, state)
        rng = np.random.default_rng(7)
        grads = {name: rng.standard_normal(bp.value.shape)
                 for name, bp in batched._named}
        refs = []
        for i in range(k):
            model = clone_with_state(factory, state)
            refs.append(model)
        return batched, refs, grads

    @pytest.mark.parametrize("steps", [1, 3])
    def test_batched_adam_matches_sequential_adam(self, steps):
        batched, refs, grads = self._grad_filled_models("adam")
        opt = BatchedAdam(batched, lr=1e-2)
        ref_opts = [Adam(m, lr=1e-2) for m in refs]
        for step in range(steps):
            for name, bp in batched._named:
                bp.grad[...] = grads[name] * (step + 1)
            opt.step()
            for i, (model, ref_opt) in enumerate(zip(refs, ref_opts)):
                for name, p in model.named_parameters():
                    p.grad[...] = grads[name][i] * (step + 1)
                ref_opt.step()
        for i, model in enumerate(refs):
            ref_state = model.state_dict()
            for name, bp in batched._named:
                np.testing.assert_array_equal(bp.value[i], ref_state[name])

    def test_batched_sgd_matches_sequential_sgd(self):
        batched, refs, grads = self._grad_filled_models("sgd")
        opt = BatchedSGD(batched, lr=0.1)
        ref_opts = [SGD(m, lr=0.1) for m in refs]
        for step in range(2):
            for name, bp in batched._named:
                bp.grad[...] = grads[name] * (step + 1)
            opt.step()
            for i, (model, ref_opt) in enumerate(zip(refs, ref_opts)):
                for name, p in model.named_parameters():
                    p.grad[...] = grads[name][i] * (step + 1)
                ref_opt.step()
        for i, model in enumerate(refs):
            ref_state = model.state_dict()
            for name, bp in batched._named:
                np.testing.assert_array_equal(bp.value[i], ref_state[name])

    def test_invalid_hyperparameters(self):
        batched = BatchedModel(MODEL_FACTORIES["mlp"](), 2)
        with pytest.raises(ValueError):
            BatchedAdam(batched, lr=0)
        with pytest.raises(ValueError):
            BatchedSGD(batched, lr=-1)


class TestBatchedCrossEntropy:
    def test_matches_sequential_loss_per_slice(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 7, 10)) * 3
        targets = rng.integers(0, 10, size=(4, 7))
        losses, grad = batched_cross_entropy(logits, targets)
        ref = CrossEntropyLoss()
        for i in range(4):
            ref_loss, ref_grad = ref(logits[i], targets[i])
            assert losses[i] == pytest.approx(ref_loss, abs=1e-12)
            np.testing.assert_allclose(grad[i], ref_grad, atol=1e-15)

    def test_float32_logits_are_computed_in_float64(self):
        rng = np.random.default_rng(6)
        logits = (rng.standard_normal((3, 5, 4)) * 3).astype(np.float32)
        targets = rng.integers(0, 4, size=(3, 5))
        losses, grad = batched_cross_entropy(logits, targets)
        ref_losses, ref_grad = batched_cross_entropy(
            logits.astype(np.float64), targets)
        assert losses.dtype == grad.dtype == np.float64
        np.testing.assert_array_equal(losses, ref_losses)
        np.testing.assert_array_equal(grad, ref_grad)

    def test_validation(self):
        with pytest.raises(ValueError):
            batched_cross_entropy(np.zeros((2, 3)), np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            batched_cross_entropy(np.zeros((2, 3, 4)), np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            batched_cross_entropy(np.zeros((2, 3, 4)), np.full((2, 3), 9))
