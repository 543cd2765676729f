"""Configuration of the Dubhe client-selection system.

Collects every knob the paper exposes: the reference set ``G`` of possible
numbers of dominating classes, the per-``i`` thresholds ``σ_i``, the round
participation target ``K``, the number of tentative multi-time selections
``H``, and the Paillier key size used by the secure path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..crypto.paillier import DEFAULT_KEY_SIZE

__all__ = [
    "AGGREGATION_MODES",
    "DEFAULT_REGISTRATION_BATCH",
    "DubheConfig",
    "GROUP1_REFERENCE_SET",
    "GROUP2_REFERENCE_SET",
    "RUN_MODES",
    "TRANSPORT_KINDS",
    "TransportConfig",
    "resolve_aggregation_mode",
    "resolve_run_mode",
    "resolve_transport_kind",
]

#: Reference set used by the paper for the 10-class experiments (MNIST/CIFAR10).
GROUP1_REFERENCE_SET: tuple[int, ...] = (1, 2, 10)

#: Reference set used by the paper for the 52-class FEMNIST experiment.
GROUP2_REFERENCE_SET: tuple[int, ...] = (1, 52)


#: How a federated run interacts with the run ledger (:mod:`repro.ledger`).
#: ``"live"`` records the run as it executes (or runs unrecorded when no
#: ledger path is configured); ``"resume"`` reopens a recorded run, restores
#: the server from its last committed round checkpoint and continues;
#: ``"verify"`` re-executes a recorded run and asserts bit-identical
#: per-round selections and metrics.
RUN_MODES: tuple[str, ...] = ("live", "resume", "verify")


def resolve_run_mode(run_mode: str) -> str:
    """Validate a run-mode knob against :data:`RUN_MODES`.

    Example
    -------
    >>> resolve_run_mode("live")
    'live'
    """
    if run_mode not in RUN_MODES:
        raise ValueError(
            f"run mode must be one of {RUN_MODES}, got {run_mode!r}"
        )
    return run_mode


#: The shape of the secure-aggregation server's one fold over the stream of
#: client ciphertexts.  ``"flat"`` never carries: one running sum, fold depth
#: N − 1; ``"tree"`` carries a partial up a level every ``arity`` arrivals,
#: so the longest sequential addition chain is O(log N).  Paillier addition
#: is associative and commutative, so both shapes produce bit-identical
#: ciphertexts — the tree only changes *when* additions happen, which is
#: what lets the server parallelise or bound latency at million-client scale.
AGGREGATION_MODES: tuple[str, ...] = ("flat", "tree")

#: Default client chunk size for streaming registration.  Peak server memory
#: is O(batch), never O(N); 4096 keeps the per-batch registry matrices a few
#: MB while amortising the vectorised Algorithm 1 over enough rows.
DEFAULT_REGISTRATION_BATCH = 4096


def resolve_aggregation_mode(mode: str) -> str:
    """Validate an aggregation-mode knob against :data:`AGGREGATION_MODES`.

    Example
    -------
    >>> resolve_aggregation_mode("tree")
    'tree'
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(
            f"aggregation mode must be one of {AGGREGATION_MODES}, got {mode!r}"
        )
    return mode


#: How a federated run talks to its clients.  ``"inprocess"`` (default) runs
#: the round loop against the in-process execution back-ends
#: (:class:`repro.federated.LocalUpdateExecutor`, itself a
#: :class:`repro.transport.Transport`); ``"socket"`` promotes the
#: round protocol to the asyncio TCP service layer
#: (:class:`repro.transport.SocketTransport`), where every client is a remote
#: peer speaking the versioned wire format.
TRANSPORT_KINDS: tuple[str, ...] = ("inprocess", "socket")


def resolve_transport_kind(kind: str) -> str:
    """Validate a transport-kind knob against :data:`TRANSPORT_KINDS`.

    Example
    -------
    >>> resolve_transport_kind("inprocess")
    'inprocess'
    """
    if kind not in TRANSPORT_KINDS:
        raise ValueError(
            f"transport kind must be one of {TRANSPORT_KINDS}, got {kind!r}"
        )
    return kind


@dataclass(frozen=True)
class TransportConfig:
    """The service-layer group of a federated run's configuration.

    ``kind`` picks the transport (:data:`TRANSPORT_KINDS`).  The remaining
    fields only matter for ``"socket"``: ``host``/``port`` are the server's
    bind address (``port=0`` binds an ephemeral port, read back from
    :attr:`repro.transport.SocketTransport.address`);
    ``round_timeout`` is the per-client collection deadline in seconds — a
    client whose :class:`~repro.transport.messages.ModelDelta` misses it is
    dropped from the round as a ``"straggler"`` (``None`` waits forever);
    ``connect_timeout`` is the one bound on how long a round waits for the
    cohort's clients to register; ``heartbeat_interval`` is how often
    (seconds) the server probes each connection with a
    :class:`~repro.transport.messages.Heartbeat` (``0`` disables liveness
    probing) — a connection silent for three intervals is declared dead and
    torn down, so half-open TCP connections are detected instead of
    stalling the round until ``round_timeout``.

    Every other socket-layer decision has one owner elsewhere: the frame
    cap is :data:`repro.transport.wire.DEFAULT_MAX_FRAME_BYTES`, the
    partial-round floor is the scenario's
    :attr:`~repro.scenarios.spec.ScenarioSpec.min_participation` (none
    without a scenario), and the client's reconnect schedule is the
    ``RECONNECT_*`` constants of :mod:`repro.transport.client`.

    Example
    -------
    >>> TransportConfig(kind="socket", round_timeout=5.0).host
    '127.0.0.1'
    """

    kind: str = "inprocess"
    host: str = "127.0.0.1"
    port: int = 0
    round_timeout: Optional[float] = 60.0
    connect_timeout: float = 10.0
    heartbeat_interval: float = 10.0

    def __post_init__(self) -> None:
        resolve_transport_kind(self.kind)
        if not 0 <= self.port <= 65535:
            raise ValueError("port must lie in [0, 65535]")
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be positive")
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0 (0 disables)")


@dataclass(frozen=True)
class DubheConfig:
    """All Dubhe hyper-parameters in one immutable object.

    Parameters
    ----------
    num_classes:
        Label-space size ``C``.
    reference_set:
        The set ``G ⊆ [C]`` of possible numbers of dominating classes.  The
        paper requires ``C ∈ G`` (the "no dominating class" bucket whose
        threshold is fixed at 0); this is validated here.
    thresholds:
        Mapping ``i → σ_i`` for every ``i ∈ G`` except ``C`` (``σ_C = 0`` is
        implied).  Found by the parameter-search procedure when omitted.
    participants_per_round:
        Target number of participating clients per round (``K``).
    tentative_selections:
        Number of tentative draws ``H`` in the multi-time selection
        (``H = 1`` reduces to a one-off selection).
    key_size:
        Paillier modulus size in bits for the secure protocol.
    registration_batch_size:
        Client chunk size used by streaming registration
        (:meth:`repro.core.secure.SecureRegistrationRound.run_stream`); peak
        registration memory is proportional to this, independent of N.
    """

    num_classes: int
    reference_set: tuple[int, ...] = GROUP1_REFERENCE_SET
    thresholds: Mapping[int, float] = field(default_factory=dict)
    participants_per_round: int = 20
    tentative_selections: int = 1
    key_size: int = DEFAULT_KEY_SIZE
    seed: Optional[int] = None
    registration_batch_size: int = DEFAULT_REGISTRATION_BATCH

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        ref = tuple(sorted(set(int(i) for i in self.reference_set)))
        if not ref:
            raise ValueError("reference_set must not be empty")
        if any(i < 1 or i > self.num_classes for i in ref):
            raise ValueError("reference_set entries must lie in [1, num_classes]")
        if self.num_classes not in ref:
            raise ValueError(
                "the paper requires C (the 'no dominating class' bucket) to be in G"
            )
        object.__setattr__(self, "reference_set", ref)
        thresholds = {int(k): float(v) for k, v in dict(self.thresholds).items()}
        for i, sigma in thresholds.items():
            if i not in ref:
                raise ValueError(f"threshold given for i={i} not in the reference set")
            if i == self.num_classes and sigma != 0.0:
                raise ValueError("σ_C is fixed at 0 by the paper")
            if not 0 <= sigma <= 1:
                raise ValueError("thresholds must lie in [0, 1]")
        thresholds.setdefault(self.num_classes, 0.0)
        object.__setattr__(self, "thresholds", thresholds)
        if self.participants_per_round < 1:
            raise ValueError("participants_per_round must be positive")
        if self.tentative_selections < 1:
            raise ValueError("tentative_selections must be positive")
        if self.key_size < 16:
            raise ValueError("key_size too small")
        if self.registration_batch_size < 1:
            raise ValueError("registration_batch_size must be positive")

    # -- helpers -------------------------------------------------------------------

    def threshold_for(self, i: int) -> float:
        """The threshold ``σ_i`` (raises if the reference-set entry has no value yet)."""
        if i not in self.reference_set:
            raise KeyError(f"{i} is not in the reference set")
        if i not in self.thresholds:
            raise KeyError(f"threshold σ_{i} has not been set (run parameter search)")
        return self.thresholds[i]

    def has_all_thresholds(self) -> bool:
        """Whether every reference-set entry has a threshold assigned."""
        return all(i in self.thresholds for i in self.reference_set)

    def with_thresholds(self, thresholds: Mapping[int, float]) -> "DubheConfig":
        """A copy of this config with new thresholds (used by parameter search)."""
        return DubheConfig(
            num_classes=self.num_classes,
            reference_set=self.reference_set,
            thresholds=dict(thresholds),
            participants_per_round=self.participants_per_round,
            tentative_selections=self.tentative_selections,
            key_size=self.key_size,
            seed=self.seed,
            registration_batch_size=self.registration_batch_size,
        )
