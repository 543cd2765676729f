"""Capped, jittered backoff: the transport client's reconnect schedule.

:class:`~repro.transport.TransportClient` connects and reconnects under a
:class:`RetryPolicy`: exponential growth, a hard ceiling (an uncapped
``backoff * 2**attempt`` against a crashed server could sleep for minutes),
and *deterministic* jitter (seeded per ``(seed, attempt)`` exactly like the
scenario engine's :class:`~repro.scenarios.engine.FaultInjector` keys its
fault decisions), so a reconnecting fleet neither thunders in lockstep nor
makes a test non-reproducible.  The server's registration wait needs no
schedule: it waits on the roster itself, bounded by ``connect_timeout``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a hard cap and deterministic jitter.

    ``delay(attempt)`` grows as ``backoff * 2**attempt`` but never exceeds
    ``max_backoff``; ``jitter`` then shaves off up to that fraction of the
    delay, drawn from an RNG keyed by ``(seed, attempt)`` — two policies
    with different seeds desynchronise (no thundering herd on reconnect),
    while the same policy always produces the same schedule (tests stay
    reproducible).  ``retries`` is how many times an operation is retried
    *after* its first attempt, i.e. ``attempts == retries + 1``.

    Example
    -------
    >>> policy = RetryPolicy(retries=3, backoff=0.1, max_backoff=0.25,
    ...                      jitter=0.0)
    >>> [policy.delay(a) for a in range(4)]
    [0.1, 0.2, 0.25, 0.25]
    """

    retries: int = 5
    backoff: float = 0.05
    max_backoff: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.max_backoff <= 0:
            raise ValueError("max_backoff must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def attempts(self) -> int:
        """Total attempts this policy allows (first try plus retries).

        Example
        -------
        >>> RetryPolicy(retries=2).attempts
        3
        """
        return self.retries + 1

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed attempt *attempt* (0-based).

        The base delay ``backoff * 2**attempt`` is clamped to
        ``max_backoff`` *before* jitter is applied, and jitter only ever
        subtracts — the returned delay never exceeds ``max_backoff``, the
        regression the old client connect loop lacked.

        Example
        -------
        >>> policy = RetryPolicy(backoff=0.05, max_backoff=2.0, jitter=0.5,
        ...                      seed=7)
        >>> all(policy.delay(a) <= 2.0 for a in range(30))
        True
        >>> policy.delay(9) == policy.delay(9)  # deterministic per attempt
        True
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        base = min(self.backoff * (2 ** attempt), self.max_backoff)
        if base <= 0 or self.jitter == 0:
            return base
        fraction = np.random.default_rng([self.seed, attempt]).random()
        return base * (1.0 - self.jitter * fraction)
