"""Module and parameter plumbing for the NumPy neural-network substrate.

This is the reproduction's stand-in for ``torch.nn.Module``.  The federated
stack needs three things from a model:

1. an ordered collection of named parameters,
2. ``state_dict`` / ``load_state_dict`` so the server can ship weights to
   clients and aggregate the returned updates, and
3. flattening of all parameters into one vector, used by the
   weight-divergence analysis (eq. (2)) and by tests.

Every layer stores its parameters as :class:`Parameter` objects.  Models
compute nothing themselves: a model is a layer chain
(:class:`~repro.nn.layers.Sequential`), and :class:`~repro.nn.batched.BatchedModel`
runs its forward and backward passes for a cohort of one or more clients.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor (its gradient lives in the cohort's flat pool)."""

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)


class Module:
    """Base class of all layers and models.

    Parameters are discovered automatically from instance attributes (both
    direct :class:`Parameter` attributes and nested :class:`Module`
    attributes or lists of modules).  ``training`` is read by the layers
    whose kernel differs between training and inference.
    """

    training: bool = True

    # -- parameter discovery ----------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs in a deterministic order."""
        for attr, value in self.__dict__.items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module (in named order)."""
        return [p for _, p in self.named_parameters()]

    # -- state dict / flattening ---------------------------------------------------

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Every parameter value keyed by its name.

        With ``copy=False`` the returned arrays are *read-only views* of the
        live parameters — no allocation or memcpy.  Safe whenever the dict is
        consumed before the module trains again (e.g. shipping the global
        state to in-process workers, which copy on load anyway).
        """
        if copy:
            return {name: p.value.copy() for name, p in self.named_parameters()}
        state = {}
        for name, p in self.named_parameters():
            view = p.value.view()
            view.flags.writeable = False
            state[name] = view
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values (shapes must match exactly)."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {p.value.shape}"
                )
            p.value = value.copy()

    def flatten_parameters(self) -> np.ndarray:
        """Concatenate all parameter values into a single 1-D vector."""
        params = self.parameters()
        if not params:
            return np.empty(0)
        return np.concatenate([p.value.ravel() for p in params])


def seeded_rng(seed: Optional[int]) -> np.random.Generator:
    """Shared helper so every layer seeds its initialiser the same way."""
    return np.random.default_rng(seed)
