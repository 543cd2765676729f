"""Vectorized cohort execution: train K clients as one batched tensor program.

This is the one training kernel of the reproduction.  The template model's
parameters are broadcast to a leading *client axis*, client mini-batches are
stacked into ``(K, B, …)`` arrays, and every local SGD/Adam step for all K
clients runs as a handful of batched ``matmul`` ops (the FedJAX-vmap idea in
pure NumPy).  A single client's local update is the K = 1 cohort
(:meth:`repro.federated.FederatedClient.local_train`).

Numerical contract
------------------
Every client occupies an independent slice of every batched op, and each
batched kernel computes the arithmetic of the one-client-at-a-time engine
slice-for-slice (same reduction axes, same dtype promotion, same elementwise
formulas).  That engine is kept as the equivalence reference under
``tests/reference/``; per-client results match it bit for bit, so selectors,
figures and secure paths do not depend on the cohort size.

Program structure
-----------------
Under FedAvg every client starts its round from the broadcast global
parameters, so a warm batched program can serve any template whose
structure it was built from.  This module is the one owner of that
structure: :func:`program_signature` says when two templates build the same
program, and :func:`flat_layout` says where each parameter lives in the
program's flat pools.

Extending
---------
A model vectorizes when it is a :class:`~repro.nn.layers.Sequential` chain
(nested chains are flattened) of the shipped layer types — ``Linear``,
``Conv2d``, ``MaxPool2d``, ``ReLU``, ``Flatten`` or their subclasses — and
the chain covers every parameter; each model of :mod:`repro.nn.models`
lists its chain once.  Anything else raises
:class:`UnvectorizableModelError`: a new layer type needs a batched layer
in ``_LAYER_VECTORIZERS``.  Batched layers follow the assign-not-accumulate
gradient contract of :meth:`BatchedLayer.backward`: the training loop skips
per-step ``zero_grad`` because every batched backward overwrites its
parameter grads.  A layer's configuration must live in public scalar
attributes (they enter :func:`program_signature`), and a batched layer may
keep no state from one round to the next: a warm program serves every
template with its signature.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .conv import Conv2d, MaxPool2d, col2im, im2col
from .layers import Flatten, Linear, ReLU, Sequential
from .module import Module, Parameter

__all__ = [
    "BatchedAdam",
    "BatchedModel",
    "BatchedParameter",
    "BatchedSGD",
    "UnvectorizableModelError",
    "batched_cross_entropy",
    "flat_layout",
    "program_signature",
]


class UnvectorizableModelError(TypeError):
    """The model/layer has no batched (cohort) implementation."""


class BatchedParameter:
    """A stack of K clients' copies of one parameter: ``(K, *shape)`` value + grad.

    Freshly constructed instances hold a read-only broadcast view (every
    client aliasing the template value) and a lazily-allocated grad;
    :meth:`BatchedModel._repack_flat` points both at writable contiguous
    views into the model's flat pools before any training step runs.

    Example
    -------
    >>> import numpy as np
    >>> stacked = BatchedParameter(np.zeros((3, 4, 2)))  # 3 clients
    >>> stacked.grad.shape
    (3, 4, 2)
    """

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: Optional[np.ndarray] = None

    @property
    def grad(self) -> np.ndarray:
        """The stacked gradient array (allocated lazily, same shape as value)."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value


def _stack_parameter(param: Parameter, num_clients: int) -> BatchedParameter:
    """Broadcast one template parameter to a ``(K, *shape)`` stack (zero-copy)."""
    return BatchedParameter(
        np.broadcast_to(param.value, (num_clients,) + param.value.shape)
    )


# -- batched layers ------------------------------------------------------------


class BatchedLayer:
    """Base class of batched layers: forward/backward over ``(K, B, …)`` inputs."""

    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients, *assigning* (not accumulating) parameter grads.

        Contract — unlike PyTorch's ``+=`` convention, a batched backward
        runs exactly once per optimisation step
        and must *overwrite* each ``BatchedParameter.grad`` (e.g. via
        ``np.matmul(..., out=p.grad)``).  The cohort training loop relies on
        this to skip the per-step ``zero_grad`` pass; a custom layer that
        accumulates instead would silently sum gradients across steps.
        """
        raise NotImplementedError

    def param_pairs(self) -> list[tuple[Parameter, BatchedParameter]]:
        """``(template parameter, batched parameter)`` pairs of this layer."""
        return []

    def set_training(self, training: bool) -> None:
        """Switch train/eval mode (wrappers propagate to wrapped layers)."""
        self.training = training


class BatchedLinear(BatchedLayer):
    """Per-client ``y_k = x_k W_k^T + b_k`` as one batched matmul."""

    def __init__(self, layer: Linear, num_clients: int):
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.weight = _stack_parameter(layer.weight, num_clients)
        self.bias = None if layer.bias is None else _stack_parameter(layer.bias, num_clients)
        self._template = layer
        self._input: Optional[np.ndarray] = None

    def param_pairs(self) -> list[tuple[Parameter, BatchedParameter]]:
        pairs = [(self._template.weight, self.weight)]
        if self.bias is not None:
            pairs.append((self._template.bias, self.bias))
        return pairs

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"BatchedLinear expected input of shape (K, B, {self.in_features}), "
                f"got {x.shape}"
            )
        self._input = x
        out = np.matmul(x, np.swapaxes(self.weight.value, 1, 2))
        if self.bias is not None:
            out += self.bias.value[:, None, :]  # in place: matmul result is fresh
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        # single-shot assignment (cohort backward runs once per step): writing
        # straight into the contiguous grad views skips the zero-fill pass,
        # the matmul temporary and the `+=` read that accumulation would cost
        np.matmul(np.swapaxes(grad_output, 1, 2), x, out=self.weight.grad)
        if self.bias is not None:
            np.sum(grad_output, axis=1, out=self.bias.grad)
        return np.matmul(grad_output, self.weight.value)


class BatchedConv2d(BatchedLayer):
    """Per-client 2-D convolution: shared im2col, one batched matmul."""

    def __init__(self, layer: Conv2d, num_clients: int):
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.weight = _stack_parameter(layer.weight, num_clients)
        self.bias = None if layer.bias is None else _stack_parameter(layer.bias, num_clients)
        self._template = layer
        self._cache: Optional[tuple] = None

    def param_pairs(self) -> list[tuple[Parameter, BatchedParameter]]:
        pairs = [(self._template.weight, self.weight)]
        if self.bias is not None:
            pairs.append((self._template.bias, self.bias))
        return pairs

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"BatchedConv2d expected (K, B, {self.in_channels}, H, W), got {x.shape}"
            )
        k, b = x.shape[:2]
        folded = x.reshape((k * b,) + x.shape[2:])
        cols, out_h, out_w = im2col(folded, self.kernel_size, self.stride, self.padding)
        cols = cols.reshape(k, b * out_h * out_w, -1)
        w_flat = self.weight.value.reshape(k, self.out_channels, -1)
        out = np.matmul(cols, np.swapaxes(w_flat, 1, 2))
        if self.bias is not None:
            out = out + self.bias.value[:, None, :]
        out = out.reshape(k, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3)
        self._cache = (x.shape, cols)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols = self._cache
        k, b, _, out_h, out_w = grad_output.shape
        grad_flat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            k, b * out_h * out_w, self.out_channels
        )
        w_flat = self.weight.value.reshape(k, self.out_channels, -1)
        # single-shot assignment into the contiguous grad views (see BatchedLinear)
        np.matmul(np.swapaxes(grad_flat, 1, 2), cols,
                  out=self.weight.grad.reshape(k, self.out_channels, -1))
        if self.bias is not None:
            np.sum(grad_flat, axis=1, out=self.bias.grad)
        grad_cols = np.matmul(grad_flat, w_flat)
        folded_shape = (k * b,) + x_shape[2:]
        grad_x = col2im(grad_cols.reshape(k * b * out_h * out_w, -1), folded_shape,
                        self.kernel_size, self.stride, self.padding)
        return grad_x.reshape(x_shape)


class FoldedLayer(BatchedLayer):
    """Run a parameter-free per-sample layer with (K, B) folded into one batch.

    Exact for any layer whose forward/backward treat samples independently
    (ReLU, Flatten, max pooling): folding the client axis into the batch
    axis leaves every per-sample computation untouched.
    """

    def __init__(self, layer: Module, num_clients: int):
        self.inner = layer

    def set_training(self, training: bool) -> None:
        self.training = training
        self.inner.training = training

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, b = x.shape[:2]
        out = self.inner.forward(x.reshape((k * b,) + x.shape[2:]))
        return out.reshape((k, b) + out.shape[1:])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        k, b = grad_output.shape[:2]
        grad = self.inner.backward(grad_output.reshape((k * b,) + grad_output.shape[2:]))
        return grad.reshape((k, b) + grad.shape[1:])


# -- the layer table ------------------------------------------------------------

#: the batched counterpart of each shipped layer type (subclasses inherit it)
_LAYER_VECTORIZERS: dict[type, Callable[[Module, int], BatchedLayer]] = {
    Linear: BatchedLinear,
    Conv2d: BatchedConv2d,
    ReLU: FoldedLayer,
    Flatten: FoldedLayer,
    MaxPool2d: FoldedLayer,
}


def vectorize_layer(layer: Module, num_clients: int) -> BatchedLayer:
    """The batched counterpart of *layer* for a K-client cohort."""
    for cls in type(layer).__mro__:
        factory = _LAYER_VECTORIZERS.get(cls)
        if factory is not None:
            return factory(layer, num_clients)
    raise UnvectorizableModelError(
        f"no batched implementation for layer type {type(layer).__name__}"
    )


def _flat_chain(model: Module) -> list[Module]:
    """*model*'s layers in forward order, nested :class:`Sequential` flattened.

    Only a :class:`Sequential` that defines no ``forward``/``backward`` of its
    own is a chain; anything else refuses vectorization.
    """
    if (not isinstance(model, Sequential)
            or hasattr(model, "forward") or hasattr(model, "backward")):
        raise UnvectorizableModelError(
            f"{type(model).__name__} is not a Sequential layer chain"
        )
    chain: list[Module] = []
    for layer in model.layers:
        chain.extend(_flat_chain(layer) if isinstance(layer, Sequential) else [layer])
    return chain


def flat_layout(template: Module) -> "tuple[list[tuple[str, int, tuple[int, ...]]], int]":
    """Where each of *template*'s parameters lives in a flat parameter pool.

    Returns ``([(name, offset, shape), ...], total)``, where *offset* and
    *total* count per-client scalars.  The layout is param-major: a
    K-client pool stores parameter ``p`` at ``[K * offset_p, K * (offset_p +
    size_p))``, reshaped to ``(K, *shape)``, and a one-client pool is the K = 1 case.  A
    parameter shared under two names occupies one segment, under both.

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> layout, total = flat_layout(MLP(4, 2, hidden=(3,), seed=0))
    >>> layout[1], total
    (('net.layers.1.bias', 12, (3,)), 23)
    """
    layout: list[tuple[str, int, tuple[int, ...]]] = []
    offsets: dict[int, int] = {}
    total = 0
    for name, param in template.named_parameters():
        if id(param) not in offsets:
            offsets[id(param)] = total
            total += param.value.size
        layout.append((name, offsets[id(param)], param.value.shape))
    return layout, total


def program_signature(template: Module) -> tuple:
    """The structure of the batched program *template* builds.

    Every client starts its round from the broadcast global parameters, so
    a warm :class:`BatchedModel` serves any template whose signature equals
    its own :attr:`~BatchedModel.signature`.  The signature lists the
    flattened chain's layer types with their public scalar configuration
    (widths, kernel sizes, strides; not the train/eval flag) and the
    :func:`flat_layout` of every parameter: name, offset and shape.  Values
    do not enter it.

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> program_signature(MLP(4, 2, seed=0)) == program_signature(MLP(4, 2, seed=1))
    True
    >>> program_signature(MLP(4, 2)) == program_signature(MLP(4, 3))
    False
    """
    layers = tuple(
        (type(layer), tuple(sorted(
            (attr, value) for attr, value in vars(layer).items()
            if not attr.startswith("_") and attr != "training"
            and isinstance(value, (int, float, bool, str, type(None)))
        )))
        for layer in _flat_chain(template)
    )
    return layers, tuple(flat_layout(template)[0])


# -- the batched model -----------------------------------------------------------


class BatchedModel:
    """K clients' models stacked into one tensor program.

    Parameters live as ``(K, *shape)`` arrays; :meth:`forward` /
    :meth:`backward` run all K clients' passes at once on ``(K, B, …)``
    mini-batches.  Every optimiser update is elementwise, so the fused
    cohort optimisers (:class:`BatchedAdam` / :class:`BatchedSGD`) run the
    *standard* Adam / SGD arithmetic over the flat parameter pool —
    the client axis is transparent to it.

    The *template*'s structure defines the program (:attr:`signature`);
    its parameter values only fill the pools until the caller broadcasts the
    round's state with :meth:`load_state_dict_broadcast`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.models import MLP
    >>> model = BatchedModel(MLP(4, 2, hidden=(3,), seed=0), num_clients=5)
    >>> logits = model.forward(np.zeros((5, 8, 4)))  # (K, B, features)
    >>> logits.shape
    (5, 8, 2)
    >>> model.stacked_state()["net.layers.1.weight"].shape
    (5, 3, 4)
    """

    def __init__(self, template: Module, num_clients: int):
        if num_clients < 1:
            raise ValueError("num_clients must be positive")
        self.num_clients = num_clients
        #: the program's structure: this model serves any template that has it
        self.signature = program_signature(template)
        self.layers = [vectorize_layer(layer, num_clients)
                       for layer in _flat_chain(template)]
        mapping = {id(tp): bp for layer in self.layers for tp, bp in layer.param_pairs()}
        self._named: list[tuple[str, BatchedParameter]] = []
        for name, param in template.named_parameters():
            batched = mapping.get(id(param))
            if batched is None:
                raise UnvectorizableModelError(
                    f"parameter {name!r} of {type(template).__name__} is not covered "
                    "by its cohort chain"
                )
            self._named.append((name, batched))
        self.training = True
        self._repack_flat(template)

    def _repack_flat(self, template: Module) -> None:
        """Repack every parameter stack as a view into one flat 1-D pool.

        The pool follows :func:`flat_layout` — each parameter's whole
        ``(K, *shape)`` stack occupies one contiguous segment — so per-layer
        views stay contiguous (fast matmul accumulation) while the fused
        cohort optimisers (:class:`BatchedAdam` / :class:`BatchedSGD`) update
        the entire cohort with a handful of whole-pool array ops instead of
        per-parameter Python loops.  Elementwise updates are oblivious to how
        elements are grouped, so this changes no numerics.
        """
        layout, per_client = flat_layout(template)
        k = self.num_clients
        self.flat_values = np.zeros(k * per_client)
        self.flat_grads = np.zeros(k * per_client)
        # a parameter shared under two names maps to one segment twice
        for (_, bp), (_, offset, _) in zip(self._named, layout):
            segment = slice(k * offset, k * offset + bp.value.size)
            value_view = self.flat_values[segment].reshape(bp.value.shape)
            value_view[...] = bp.value
            bp.value = value_view
            bp.grad = self.flat_grads[segment].reshape(bp.value.shape)

    # -- forward / backward ---------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """All K clients' forward passes over one ``(K, B, …)`` mini-batch."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through every layer, assigning parameter grads."""
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    # -- training mode --------------------------------------------------------

    def train(self) -> "BatchedModel":
        """Put the whole batched program into training mode."""
        self.training = True
        for layer in self.layers:
            layer.set_training(True)
        return self

    def eval(self) -> "BatchedModel":
        """Put the whole batched program into evaluation mode."""
        self.training = False
        for layer in self.layers:
            layer.set_training(False)
        return self

    # -- state ----------------------------------------------------------------

    def load_state_dict_broadcast(self, state: dict[str, np.ndarray]) -> None:
        """Broadcast one (global) state dict to every client slice."""
        own = {name for name, _ in self._named}
        missing = own - set(state)
        unexpected = set(state) - own
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, bp in self._named:
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != bp.value.shape[1:]:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {bp.value.shape[1:]}"
                )
            bp.value[...] = value[None]

    def stacked_state(self) -> dict[str, np.ndarray]:
        """Every parameter's ``(K, *shape)`` stack, keyed by template name."""
        return {name: bp.value for name, bp in self._named}

    def state_dicts(self) -> list[dict[str, np.ndarray]]:
        """Zero-copy per-client state dicts (views into the stacked arrays)."""
        return [
            {name: bp.value[k] for name, bp in self._named}
            for k in range(self.num_clients)
        ]

# -- fused cohort optimisers ------------------------------------------------------
#
# A per-parameter optimiser loop allocates ~7 temporaries per parameter per
# step; at cohort scale that Python/allocator overhead would dominate the
# round.  These fused optimisers run the textbook sequence of elementwise
# operations (same order, same scalar factors as the per-parameter reference
# loops under tests/reference/, hence bit-identical results) on the model's
# flat 1-D pools, using preallocated scratch buffers
# and `out=` everywhere.  Updates walk the pool in cache-sized blocks so all
# ~12 passes of a step hit L2 instead of DRAM; elementwise ops are
# independent per element, so blocking changes no numerics.

#: elements per optimiser block (~128 KiB of float64 per buffer)
_OPT_BLOCK = 16384


class BatchedSGD:
    """Plain SGD over the cohort's flat parameter pool.

    Bit-for-bit equivalent to running per-parameter SGD on each client slice
    independently.

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> model = BatchedModel(MLP(4, 2, hidden=(3,), seed=0), num_clients=2)
    >>> optimizer = BatchedSGD(model, lr=0.1)
    >>> optimizer.step()  # one fused update for both clients
    """

    def __init__(self, model: BatchedModel, lr: float = 0.01):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = lr
        self._values = model.flat_values
        self._grads = model.flat_grads
        self._scratch = np.empty(min(self._values.size, _OPT_BLOCK),
                                 dtype=self._values.dtype)

    def reset(self) -> None:
        """Forget all optimiser state: plain SGD keeps none, so a no-op.

        Round-persistent workspaces call this at the top of a round, as they
        do for :class:`BatchedAdam`.
        """

    def step(self) -> None:
        """One fused SGD update over the whole cohort pool (cache-blocked)."""
        total = self._values.size
        for start in range(0, total, _OPT_BLOCK):
            block = slice(start, min(start + _OPT_BLOCK, total))
            s = self._scratch[: block.stop - start]
            np.multiply(self._grads[block], self.lr, out=s)
            self._values[block] -= s  # == p -= lr * grad


class BatchedAdam:
    """Adam over the cohort's flat parameter pool — the paper's optimiser.

    One fused update for all K clients per step; every element sees the exact
    operation sequence of per-parameter Adam, so per-client results do not
    depend on the cohort size.

    Example
    -------
    >>> from repro.nn.models import MLP
    >>> model = BatchedModel(MLP(4, 2, hidden=(3,), seed=0), num_clients=2)
    >>> optimizer = BatchedAdam(model, lr=1e-4)
    >>> optimizer.step()
    >>> optimizer.reset()  # fresh-optimiser semantics, no reallocation
    """

    #: Adam's moment decay rates and denominator guard (the usual defaults)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, model: BatchedModel, lr: float = 1e-4):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = lr
        self._values = model.flat_values
        self._grads = model.flat_grads
        self._m = np.zeros_like(self._values)
        self._v = np.zeros_like(self._values)
        scratch = min(self._values.size, _OPT_BLOCK)
        self._s1 = np.empty(scratch, dtype=self._values.dtype)
        self._s2 = np.empty(scratch, dtype=self._values.dtype)
        self._t = 0

    def reset(self) -> None:
        """Forget all optimiser state (fresh-optimiser semantics, no realloc).

        Zeroes the first/second-moment pools and the step counter in place so
        a round-persistent optimiser behaves exactly like a freshly
        constructed one.
        """
        self._m.fill(0.0)
        self._v.fill(0.0)
        self._t = 0

    def step(self) -> None:
        """One fused Adam update over the whole cohort pool (cache-blocked)."""
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        total = self._values.size
        for start in range(0, total, _OPT_BLOCK):
            block = slice(start, min(start + _OPT_BLOCK, total))
            values = self._values[block]
            m = self._m[block]
            v = self._v[block]
            s1 = self._s1[: values.size]
            s2 = self._s2[: values.size]
            grad = self._grads[block]
            m *= self.beta1
            np.multiply(grad, 1 - self.beta1, out=s1)
            m += s1  # == m += (1 - beta1) * grad
            v *= self.beta2
            np.multiply(grad, 1 - self.beta2, out=s1)
            s1 *= grad
            v += s1  # == v += (1 - beta2) * grad * grad
            np.divide(m, bias1, out=s1)  # m_hat
            s1 *= self.lr  # lr * m_hat first: `lr * m_hat / (...)` binds left-to-right
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            values -= s1  # == p -= lr * m_hat / (sqrt(v_hat) + eps)


# -- batched loss ----------------------------------------------------------------


def batched_cross_entropy(logits: np.ndarray, targets: np.ndarray,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per-client mean cross-entropy over a ``(K, B, C)`` logits cohort.

    Returns ``(losses, grad_logits)`` where ``losses`` has shape ``(K,)`` and
    ``grad_logits`` is ready for :meth:`BatchedModel.backward`.  Slice ``k``
    is the mean cross-entropy of client ``k``'s batch alone (log-sum-exp
    arithmetic, mean normalisation).

    Example
    -------
    >>> import numpy as np
    >>> logits = np.zeros((2, 4, 3))  # K=2 clients, B=4, C=3: uniform
    >>> losses, grad = batched_cross_entropy(logits, np.zeros((2, 4), dtype=int))
    >>> np.allclose(losses, np.log(3)), grad.shape
    (True, (2, 4, 3))
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=int)
    if logits.ndim != 3:
        raise ValueError(f"logits must be 3-D (K, B, C), got shape {logits.shape}")
    k, b, num_classes = logits.shape
    if targets.shape != (k, b):
        raise ValueError(f"targets must have shape ({k}, {b}), got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError("targets out of range")
    shifted = logits - logits.max(axis=2, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    probs = np.exp(log_probs)
    clients = np.arange(k)[:, None]
    samples = np.arange(b)[None, :]
    picked = log_probs[clients, samples, targets]
    losses = -picked.sum(axis=1) / b
    grad = probs.copy()
    grad[clients, samples, targets] -= 1.0
    grad /= b
    return losses, grad
