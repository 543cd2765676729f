"""The sequential NN engine: one client, one layer, one mini-batch at a time.

``src/`` trains every client through the batched layer chain
(:mod:`repro.nn.batched`), a one-client cohort at the least.  This module
keeps the per-sample implementation that chain replaced, so the equivalence
tests can hold the batched kernels to it exactly:

* the per-layer ``forward``/``backward`` of ``Linear`` and ``Conv2d`` and
  the chain loops of ``Sequential`` (:class:`Model`);
* :class:`CrossEntropyLoss`, :class:`SGD`/:class:`Adam` and
  :class:`DataLoader`;
* :func:`local_train` (one client's local update), :func:`run_round` (a
  cohort trained one client after another) and :func:`evaluate_model` (the
  per-batch test pass);
* :func:`numerical_gradient`, the finite-difference check that every
  backward pass, this engine's and the batched chain's, is held to.

A ``src`` model is wrapped, never modified: :class:`Model` walks the model's
layer chain (nested ``Sequential`` flattened, as ``BatchedModel`` does) and
pairs each layer with its sequential kernel.  ``ReLU``, ``Flatten`` and
``MaxPool2d`` run their own ``src`` kernels, the ones the batched chain folds.
Parameter values stay the ``src`` model's; gradients live here, accumulated
with ``+=`` and cleared by the optimiser's ``zero_grad``, as in PyTorch.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.conv import Conv2d, MaxPool2d, col2im, im2col
from repro.nn.layers import Flatten, Linear, ReLU, Sequential
from repro.nn.metrics import confusion_matrix, per_class_accuracy
from repro.nn.module import Module, Parameter

__all__ = [
    "Adam",
    "CrossEntropyLoss",
    "DataLoader",
    "Model",
    "Param",
    "SGD",
    "evaluate_model",
    "local_train",
    "log_softmax",
    "numerical_gradient",
    "run_round",
]


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the scalar ``f()`` with respect to *x*.

    *x* is perturbed in place, one element at a time, and restored.
    """
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class Param:
    """A ``src`` parameter plus the gradient the sequential engine accumulates."""

    def __init__(self, param: Parameter):
        self.param = param
        self.grad = np.zeros_like(param.value)

    @property
    def value(self) -> np.ndarray:
        return self.param.value

    @value.setter
    def value(self, value: np.ndarray) -> None:
        self.param.value = value

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


# -- layers --------------------------------------------------------------------


class _Layer:
    """One layer of the chain: forward caches what the matching backward needs."""

    training = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def params(self) -> list[tuple[Parameter, Param]]:
        """``(src parameter, gradient-carrying parameter)`` pairs."""
        return []

    def set_training(self, training: bool) -> None:
        self.training = training


class _Affine(_Layer):
    """Shared parameter handling of :class:`_Linear` and :class:`_Conv2d`."""

    def __init__(self, layer: "Linear | Conv2d"):
        self.layer = layer
        self.weight = Param(layer.weight)
        self.bias = None if layer.bias is None else Param(layer.bias)

    def params(self) -> list[tuple[Parameter, Param]]:
        pairs = [(self.layer.weight, self.weight)]
        if self.bias is not None:
            pairs.append((self.layer.bias, self.bias))
        return pairs


class _Linear(_Affine):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, layer: Linear):
        super().__init__(layer)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        in_features = self.layer.in_features
        if x.ndim != 2 or x.shape[1] != in_features:
            raise ValueError(
                f"Linear expected input of shape (N, {in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.value.T
        if self.bias is not None:
            out += self.bias.value  # in place: the matmul result is fresh
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        self.weight.grad += grad_output.T @ x
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value


class _Conv2d(_Affine):
    """2-D convolution with square kernels (im2col, one matmul)."""

    def __init__(self, layer: Conv2d):
        super().__init__(layer)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        layer = self.layer
        if x.ndim != 4 or x.shape[1] != layer.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {layer.in_channels}, H, W), got {x.shape}"
            )
        cols, out_h, out_w = im2col(x, layer.kernel_size, layer.stride, layer.padding)
        w_flat = self.weight.value.reshape(layer.out_channels, -1)
        out = cols @ w_flat.T
        if self.bias is not None:
            out = out + self.bias.value
        n = x.shape[0]
        out = out.reshape(n, out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)
        self._cache = (x.shape, cols)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        layer = self.layer
        x_shape, cols = self._cache
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
        w_flat = self.weight.value.reshape(layer.out_channels, -1)
        self.weight.grad += (grad_flat.T @ cols).reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        grad_cols = grad_flat @ w_flat
        return col2im(grad_cols, x_shape, layer.kernel_size, layer.stride, layer.padding)


class _Own(_Layer):
    """A parameter-free layer that keeps its kernel in ``src``."""

    def __init__(self, layer: Module):
        self.layer = layer

    def set_training(self, training: bool) -> None:
        self.training = training
        self.layer.training = training

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.layer.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.layer.backward(grad_output)


_KERNELS = {
    Linear: _Linear,
    Conv2d: _Conv2d,
    ReLU: _Own,
    Flatten: _Own,
    MaxPool2d: _Own,
}


def _kernel(layer: Module) -> _Layer:
    for cls in type(layer).__mro__:
        if cls in _KERNELS:
            return _KERNELS[cls](layer)
    raise TypeError(f"no sequential kernel for {type(layer).__name__}")


def _chain(module: Module) -> list[Module]:
    if isinstance(module, Sequential):
        return [layer for child in module.layers for layer in _chain(child)]
    return [module]


class Model:
    """The sequential engine over a ``src`` model's chain (or a single layer).

    ``forward`` runs the layers in order, ``backward`` in reverse,
    accumulating every parameter's gradient.
    """

    def __init__(self, module: Module):
        self.module = module
        self.layers = [_kernel(layer) for layer in _chain(module)]
        own = {id(src): param for layer in self.layers
               for src, param in layer.params()}
        self._named = [(name, own[id(p)]) for name, p in module.named_parameters()]
        self.training = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def train(self) -> "Model":
        self.training = True
        for layer in self.layers:
            layer.set_training(True)
        return self

    def eval(self) -> "Model":
        self.training = False
        for layer in self.layers:
            layer.set_training(False)
        return self

    def named_parameters(self) -> list[tuple[str, Param]]:
        return list(self._named)

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.module.state_dict()

    def parameters(self) -> list[Param]:
        return [param for _, param in self._named]


# -- loss ------------------------------------------------------------------------


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax (log-sum-exp trick)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class CrossEntropyLoss:
    """Mean cross-entropy between logits and integer targets.

    Supports optional per-class weights; with ``weights=None`` this is the
    plain loss of the paper.
    """

    def __init__(self, class_weights: np.ndarray | None = None):
        self.class_weights = None if class_weights is None else np.asarray(class_weights, float)

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Return ``(loss, grad_logits)``, the gradient of the *mean* loss."""
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets, dtype=int)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        n, num_classes = logits.shape
        if targets.shape != (n,):
            raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
        if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
            raise ValueError("targets out of range")
        log_probs = log_softmax(logits)
        probs = np.exp(log_probs)
        picked = log_probs[np.arange(n), targets]
        if self.class_weights is not None:
            if self.class_weights.shape != (num_classes,):
                raise ValueError("class_weights length must equal the number of classes")
            sample_weights = self.class_weights[targets]
        else:
            sample_weights = np.ones(n)
        weight_total = sample_weights.sum()
        loss = float(-(sample_weights * picked).sum() / weight_total)
        grad = probs * sample_weights[:, None]
        grad[np.arange(n), targets] -= sample_weights
        grad /= weight_total
        return loss, grad


# -- optimisers ------------------------------------------------------------------


class _Optimizer:
    """Holds the parameter list (anything with ``parameters()``) and zero_grad."""

    def __init__(self, model):
        self.params: list[Param] = model.parameters()
        if not self.params:
            raise ValueError("model has no parameters to optimise")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(_Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, model, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(model)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            if self.momentum:
                v *= self.momentum
                v += grad
                update = v
            else:
                update = grad
            p.value -= self.lr * update


class Adam(_Optimizer):
    """Adam (Kingma & Ba), the paper's client-side optimiser."""

    def __init__(self, model, lr: float = 1e-4, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(model)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# -- data ------------------------------------------------------------------------


class DataLoader:
    """Iterate over an :class:`ArrayDataset` in mini-batches.

    Shuffling draws one permutation per epoch from a seeded RNG, so two
    loaders built with the same seed yield identical batch sequences.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int = 8, shuffle: bool = True,
                 drop_last: bool = False, seed: Optional[int] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.rng = np.random.default_rng(seed)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        x = self.dataset.x
        y = self.dataset.y
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                break
            yield x[batch_idx], y[batch_idx]


# -- federated loops ---------------------------------------------------------------


def local_train(client, model: Module, config, round_index: int = 0) -> dict:
    """One client's local update, one mini-batch at a time.

    Trains *model* (already loaded with the global weights) in place on the
    client's dataset and returns its state dict.
    """
    engine = Model(model)
    loss_fn = CrossEntropyLoss()
    if config.optimizer == "adam":
        optimizer = Adam(engine, lr=config.learning_rate)
    else:
        optimizer = SGD(engine, lr=config.learning_rate)
    seed = None if client.seed is None else client.seed + 7919 * round_index
    loader = DataLoader(client.dataset, batch_size=config.batch_size, shuffle=True, seed=seed)
    engine.train()
    for _ in range(config.local_epochs):
        for batch_index, (xb, yb) in enumerate(loader):
            if (config.max_batches_per_epoch is not None
                    and batch_index >= config.max_batches_per_epoch):
                break
            logits = engine(xb)
            _, grad = loss_fn(logits, yb)
            optimizer.zero_grad()
            engine.backward(grad)
            optimizer.step()
    return model.state_dict()


def run_round(clients, model_factory, global_state: dict, config,
              round_index: int = 0, failed=()) -> list[dict]:
    """Train a cohort one client after another, each on a fresh model."""
    states = []
    for position, client in enumerate(clients):
        if position in failed:
            continue
        model = model_factory()
        model.load_state_dict(global_state)
        states.append(local_train(client, model, config, round_index=round_index))
    return states


def evaluate_model(model: Module, dataset: ArrayDataset, batch_size: int = 64) -> dict:
    """Evaluate *model* on *dataset* batch by batch; accuracy and per-class stats."""
    engine = Model(model).eval()
    predictions: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for xb, yb in DataLoader(dataset, batch_size=batch_size, shuffle=False):
        predictions.append(engine(xb).argmax(axis=1))
        targets.append(yb)
    engine.train()
    pred = np.concatenate(predictions) if predictions else np.empty(0, dtype=int)
    target = np.concatenate(targets) if targets else np.empty(0, dtype=int)
    if len(pred) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    num_classes = dataset.num_classes
    return {
        "accuracy": float((pred == target).mean()),
        "per_class_accuracy": per_class_accuracy(pred, target, num_classes),
        "confusion_matrix": confusion_matrix(pred, target, num_classes),
        "n_samples": int(len(pred)),
    }
