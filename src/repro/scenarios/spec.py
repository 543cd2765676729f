"""Declarative, validated scenario specifications for fault injection.

The paper evaluates Dubhe in a static world: a fixed client population,
static label skew, and every selected client finishing every round.
Production federated systems are defined by the opposite — devices go
offline, new devices enrol, selected clients straggle past the round
deadline or drop out mid-update, and the data on a device drifts over time.
A :class:`ScenarioSpec` describes one such world declaratively; the seeded
:class:`~repro.scenarios.engine.FaultInjector` turns it into reproducible
per-round fault decisions that the
:class:`~repro.federated.FederatedSimulation` round loop consults.

Every spec is an immutable dataclass validated on construction, so a typo'd
probability or an inverted churn window fails at build time rather than ten
rounds into a run.  The **zero-fault identity** is the design anchor: an
empty ``ScenarioSpec()`` injects nothing, and a simulation configured with
one produces results bit-identical to a simulation with no scenario at all
(asserted by the test suite for every executor back-end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = [
    "AvailabilitySpec",
    "ChurnSpec",
    "DriftSpec",
    "DropoutSpec",
    "NetworkSpec",
    "PARTITION_DIRECTIONS",
    "ScenarioSpec",
    "StragglerSpec",
]

#: Directions a one-way (or two-way) partition can cut a client's link:
#: ``"to_server"`` drops client → server traffic, ``"to_client"`` drops
#: server → client traffic, ``"both"`` isolates the client entirely.
PARTITION_DIRECTIONS: tuple[str, ...] = ("to_server", "to_client", "both")


def _normalized_schedule(schedule: Mapping[int, object], what: str,
                         ) -> "dict[int, tuple[int, ...]]":
    """Validate a ``round -> client ids`` mapping into sorted int tuples."""
    normalized: dict[int, tuple[int, ...]] = {}
    for round_index, clients in dict(schedule).items():
        r = int(round_index)
        if r < 0:
            raise ValueError(f"{what} round indices must be >= 0, got {r}")
        ids = tuple(sorted(int(c) for c in clients))  # type: ignore[call-overload]
        if any(c < 0 for c in ids):
            raise ValueError(f"{what} client ids must be >= 0")
        if len(set(ids)) != len(ids):
            raise ValueError(f"{what} lists client ids more than once in round {r}")
        normalized[r] = ids
    return normalized


def _normalized_rounds(rounds: Mapping[int, int], what: str) -> "dict[int, int]":
    """Validate a ``client id -> round`` mapping into plain ints."""
    normalized: dict[int, int] = {}
    for client_id, round_index in dict(rounds).items():
        c, r = int(client_id), int(round_index)
        if c < 0:
            raise ValueError(f"{what} client ids must be >= 0")
        if r < 0:
            raise ValueError(f"{what} rounds must be >= 0")
        normalized[c] = r
    return normalized


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class AvailabilitySpec:
    """Time-varying client availability.

    ``offline_probability`` is the per-(client, round) chance that a selected
    client happens to be unreachable when the round starts (its update is
    never requested); ``down_rounds`` schedules deterministic outages as a
    ``round -> client ids`` mapping (e.g. a nightly reboot window).  Both
    remove the client *before* training, so no compute is wasted on it.

    Example
    -------
    >>> spec = AvailabilitySpec(offline_probability=0.1, down_rounds={3: (0, 7)})
    >>> spec.down_rounds[3]
    (0, 7)
    """

    offline_probability: float = 0.0
    down_rounds: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_probability(self.offline_probability, "offline_probability")
        object.__setattr__(self, "down_rounds",
                           _normalized_schedule(self.down_rounds, "down_rounds"))


@dataclass(frozen=True)
class ChurnSpec:
    """Client churn: devices joining and leaving the federation mid-run.

    ``joins`` maps a client id to the first round it is part of the
    federation (selected earlier, it fails with cause ``"not_joined"``);
    ``leaves`` maps a client id to the first round it is gone (from then on
    it fails with cause ``"left"``).  Clients in neither mapping are present
    for the whole run.  A client listed in both must join before it leaves.

    Example
    -------
    >>> churn = ChurnSpec(joins={11: 2}, leaves={4: 3})
    >>> churn.joins[11], churn.leaves[4]
    (2, 3)
    """

    joins: Mapping[int, int] = field(default_factory=dict)
    leaves: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        joins = _normalized_rounds(self.joins, "joins")
        leaves = _normalized_rounds(self.leaves, "leaves")
        for client_id, leave_round in leaves.items():
            join_round = joins.get(client_id, 0)
            if leave_round <= join_round:
                raise ValueError(
                    f"client {client_id} leaves at round {leave_round} but only "
                    f"joins at round {join_round}"
                )
        object.__setattr__(self, "joins", joins)
        object.__setattr__(self, "leaves", leaves)


@dataclass(frozen=True)
class StragglerSpec:
    """Stragglers: clients whose (simulated) local update runs long.

    Each surviving selected client straggles with ``probability``; a
    straggler's simulated delay is drawn from an exponential distribution
    with mean ``mean_delay`` (seconds of simulated wall-time, not real
    sleeping).  ``deadline`` is the round's collection deadline: a straggler
    whose delay exceeds it is dropped by the executor with cause
    ``"straggler"`` (its update arrives too late to aggregate); ``None``
    waits forever, so stragglers only stretch the simulated round duration.

    Example
    -------
    >>> spec = StragglerSpec(probability=0.2, mean_delay=5.0, deadline=8.0)
    >>> spec.deadline
    8.0
    """

    probability: float = 0.0
    mean_delay: float = 0.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        _check_probability(self.probability, "straggler probability")
        if self.mean_delay < 0:
            raise ValueError("mean_delay must be >= 0")
        if self.probability > 0 and self.mean_delay == 0:
            raise ValueError("straggling clients need mean_delay > 0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")


@dataclass(frozen=True)
class DropoutSpec:
    """Mid-round dropouts: clients that start training but never report back.

    Each surviving selected client drops out with ``probability``; its local
    compute is wasted (exactly as in a real deployment) and its update is
    excluded from aggregation with cause ``"dropout"``.

    Example
    -------
    >>> DropoutSpec(probability=0.05).probability
    0.05
    """

    probability: float = 0.0

    def __post_init__(self) -> None:
        _check_probability(self.probability, "dropout probability")


@dataclass(frozen=True)
class DriftSpec:
    """Label-distribution drift over rounds (stresses re-registration).

    Every ``period`` rounds (at rounds ``period, 2·period, …``) each
    client's per-class sample counts rotate by ``shift`` class positions —
    the canonical label-drift model: the classes a client dominates change
    while its skew *profile* is preserved.  The simulation then regenerates
    client data from the drifted counts and re-runs Dubhe registration
    through :mod:`repro.core.registry` — the paper's periodic
    re-registration, which its static evaluation never exercises.  A
    :class:`repro.core.SecureDubheSelector` runs that re-registration as the
    full encrypted round.

    Example
    -------
    >>> drift = DriftSpec(period=10, shift=2)
    >>> drift.period, drift.shift
    (10, 2)
    """

    period: int = 0
    shift: int = 1

    def __post_init__(self) -> None:
        if self.period < 0:
            raise ValueError("period must be >= 0 (0 disables drift)")
        if self.period > 0 and self.shift == 0:
            raise ValueError("drift with period > 0 needs a non-zero shift")


@dataclass(frozen=True)
class NetworkSpec:
    """Real network faults, induced on the wire by the chaos proxy.

    Unlike every other sub-spec — which the :class:`~repro.scenarios.engine.
    FaultInjector` *simulates* inside the round loop — a ``NetworkSpec``
    drives :class:`repro.transport.chaos.ChaosProxy`, a TCP relay that
    actually delays, damages and cuts traffic between real sockets.  It
    therefore only applies to ``transport kind="socket"`` runs.

    ``latency`` adds a fixed one-way delay (seconds) to every relayed
    frame and ``jitter`` an exponential random extra with that mean;
    ``bandwidth`` caps the relay at that many bytes/second (``None`` is
    unlimited); ``flip_probability`` / ``truncate_probability`` /
    ``reset_probability`` are per-frame chances of a single flipped bit, a
    mid-frame truncation, or an abrupt connection reset; ``partitions``
    maps a client id to a :data:`PARTITION_DIRECTIONS` entry, silently
    discarding that client's round traffic in the named direction(s).

    Every probabilistic decision is drawn from an RNG keyed by
    ``(chaos seed, round, client, direction, frame ordinal)`` — the same
    determinism contract as the fault injector, so same-seed chaos runs
    produce identical failure records.

    Example
    -------
    >>> spec = NetworkSpec(latency=0.01, flip_probability=0.1,
    ...                    partitions={3: "to_server"})
    >>> spec.partitions[3]
    'to_server'
    """

    latency: float = 0.0
    jitter: float = 0.0
    bandwidth: Optional[float] = None
    flip_probability: float = 0.0
    truncate_probability: float = 0.0
    reset_probability: float = 0.0
    partitions: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive (or None)")
        _check_probability(self.flip_probability, "flip_probability")
        _check_probability(self.truncate_probability, "truncate_probability")
        _check_probability(self.reset_probability, "reset_probability")
        partitions: dict[int, str] = {}
        for client_id, direction in dict(self.partitions).items():
            c = int(client_id)
            if c < 0:
                raise ValueError("partition client ids must be >= 0")
            if direction not in PARTITION_DIRECTIONS:
                raise ValueError(
                    f"partition direction must be one of "
                    f"{PARTITION_DIRECTIONS}, got {direction!r}"
                )
            partitions[c] = direction
        object.__setattr__(self, "partitions", partitions)

    def is_empty(self) -> bool:
        """Whether this spec induces no network fault of any kind.

        An empty ``NetworkSpec`` still routes traffic through the chaos
        proxy (exercising the relay) but forwards every frame untouched —
        the proxy's zero-fault identity.

        Example
        -------
        >>> NetworkSpec().is_empty()
        True
        """
        return (self.latency == 0.0 and self.jitter == 0.0
                and self.bandwidth is None and self.flip_probability == 0.0
                and self.truncate_probability == 0.0
                and self.reset_probability == 0.0 and not self.partitions)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative fault-injection scenario.

    Composes availability, churn, stragglers, dropouts and label drift —
    plus, for socket-transport runs, real wire-level faults
    (:class:`NetworkSpec`, induced by the chaos proxy rather than simulated)
    — and the partial-round aggregation policy: ``min_participation`` is the
    fraction of the *planned* cohort that must survive for the round to be
    aggregated — below it the round is skipped and the global model carried
    forward unchanged.  ``seed`` makes every injected fault reproducible:
    each decision is drawn from an RNG keyed by
    ``(seed, round_index, client_id)``, so repeated runs — and runs on
    different executor back-ends — see identical faults.

    The default ``ScenarioSpec()`` is empty: it injects nothing and leaves
    every back-end bit-identical to a scenario-free run.

    Example
    -------
    >>> spec = ScenarioSpec(dropouts=DropoutSpec(probability=0.1), seed=7)
    >>> spec.dropouts.probability, ScenarioSpec().dropouts.probability
    (0.1, 0.0)
    """

    availability: AvailabilitySpec = field(default_factory=AvailabilitySpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    stragglers: StragglerSpec = field(default_factory=StragglerSpec)
    dropouts: DropoutSpec = field(default_factory=DropoutSpec)
    drift: DriftSpec = field(default_factory=DriftSpec)
    network: Optional[NetworkSpec] = None
    min_participation: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, cls in (("availability", AvailabilitySpec),
                          ("churn", ChurnSpec),
                          ("stragglers", StragglerSpec),
                          ("dropouts", DropoutSpec),
                          ("drift", DriftSpec)):
            if not isinstance(getattr(self, name), cls):
                raise TypeError(f"{name} must be a {cls.__name__}")
        if self.network is not None and not isinstance(self.network, NetworkSpec):
            raise TypeError("network must be a NetworkSpec (or None)")
        _check_probability(self.min_participation, "min_participation")
        if int(self.seed) != self.seed:
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0 (SeedSequence entropy)")
