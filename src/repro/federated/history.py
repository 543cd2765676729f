"""Round-by-round training history of a federated run.

Figures 2, 6 and 8 of the paper plot test accuracy against rounds; Figure 7
reports the *average accuracy over the last 50 rounds*; Figures 2/8 also show
the participated class proportion.  :class:`TrainingHistory` records exactly
those series so every benchmark reads its numbers from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

__all__ = ["RoundRecord", "TrainingHistory"]


def _native_float(value) -> Optional[float]:
    """``None``-preserving conversion of (numpy) scalars to native floats."""
    return None if value is None else float(value)


@dataclass(frozen=True)
class RoundRecord:
    """Everything measured about one federated round.

    ``selected_clients`` is the *planned* cohort (the selector's output);
    under a fault-injection scenario (:mod:`repro.scenarios`) the round may
    aggregate fewer: ``actual_clients`` are the survivors whose updates were
    aggregated (``None`` in scenario-free runs, meaning planned == actual),
    ``failures`` maps each failed client to its cause (one of
    :data:`repro.scenarios.FAILURE_CAUSES`), ``aggregation_skipped`` flags a
    round that fell below the participation threshold (global model carried
    forward), and ``actual_population_bias`` is ``||p_o − p_u||₁`` over the
    survivors (``NaN`` when nobody survived).  ``fallback_reason``,
    ``decode_failures`` and ``disconnects`` come from the transport's
    :class:`~repro.transport.base.RoundOutcome`, so a silent back-end
    degradation (a ragged cohort trained one client at a time, a broadcast
    that timed out) is visible in the run history.

    Example
    -------
    >>> import numpy as np
    >>> record = RoundRecord(round_index=0, selected_clients=(3, 1),
    ...                      population_distribution=np.array([0.5, 0.5]),
    ...                      population_bias=0.0, test_accuracy=0.9)
    >>> record.selected_clients, record.participants, record.failures
    ((3, 1), (3, 1), {})
    """

    round_index: int
    selected_clients: tuple[int, ...]
    population_distribution: np.ndarray
    population_bias: float            # ||p_o − p_u||₁ of this round's selection
    test_accuracy: Optional[float]    # None when evaluation was skipped this round
    #: survivors actually aggregated; None = scenario-free (== selected)
    actual_clients: Optional[tuple[int, ...]] = None
    #: failed client id -> cause ("offline", "dropout", "straggler", ...)
    failures: Mapping[int, str] = field(default_factory=dict)
    #: why the executor degraded its back-end this round (or None)
    fallback_reason: Optional[str] = None
    #: True when survivors fell below the scenario's participation threshold
    aggregation_skipped: bool = False
    #: ||p_o − p_u||₁ over the survivors (None = scenario-free, NaN = nobody)
    actual_population_bias: Optional[float] = None
    #: simulated round duration contributed by surviving stragglers (seconds)
    round_delay: float = 0.0
    #: undecodable frames since the previous round's record: client id ->
    #: count (-1 = unidentified peer); populated only by the socket transport
    decode_failures: Mapping[int, int] = field(default_factory=dict)
    #: connections lost since the previous round's record: client id ->
    #: cause ("connection_lost", "corrupt_frame", "heartbeat"); populated
    #: only by the socket transport
    disconnects: Mapping[int, str] = field(default_factory=dict)

    @property
    def participants(self) -> tuple[int, ...]:
        """The clients whose updates were aggregated this round."""
        return self.selected_clients if self.actual_clients is None else self.actual_clients

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready dictionary of this record (numpy scalars → native).

        Every numpy scalar becomes a native Python number, the population
        distribution becomes a plain list and failure keys become strings
        (JSON object keys are always strings), so ``json.dumps`` accepts the
        result without a custom encoder and
        :meth:`from_dict` round-trips it exactly — the contract the run
        ledger's per-round rows (:mod:`repro.ledger`) rely on.

        Example
        -------
        >>> import numpy as np
        >>> record = RoundRecord(0, (3, 1), np.array([0.5, 0.5]), 0.0, 0.9)
        >>> record.to_dict()["selected_clients"]
        [3, 1]
        """
        return {
            "round_index": int(self.round_index),
            "selected_clients": [int(c) for c in self.selected_clients],
            "population_distribution": [
                float(p) for p in np.asarray(self.population_distribution).ravel()
            ],
            "population_bias": float(self.population_bias),
            "test_accuracy": _native_float(self.test_accuracy),
            "actual_clients": (None if self.actual_clients is None
                               else [int(c) for c in self.actual_clients]),
            "failures": {str(int(k)): str(v) for k, v in self.failures.items()},
            "fallback_reason": self.fallback_reason,
            "aggregation_skipped": bool(self.aggregation_skipped),
            "actual_population_bias": _native_float(self.actual_population_bias),
            "round_delay": float(self.round_delay),
            "decode_failures": {str(int(k)): int(v)
                                for k, v in self.decode_failures.items()},
            "disconnects": {str(int(k)): str(v)
                            for k, v in self.disconnects.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RoundRecord":
        """Rebuild a record from :meth:`to_dict` output (inverse round-trip).

        Example
        -------
        >>> import numpy as np
        >>> record = RoundRecord(0, (3, 1), np.array([0.5, 0.5]), 0.0, 0.9)
        >>> RoundRecord.from_dict(record.to_dict()).selected_clients
        (3, 1)
        """
        actual = payload.get("actual_clients")
        return cls(
            round_index=int(payload["round_index"]),
            selected_clients=tuple(int(c) for c in payload["selected_clients"]),
            population_distribution=np.asarray(payload["population_distribution"],
                                               dtype=float),
            population_bias=float(payload["population_bias"]),
            test_accuracy=_native_float(payload.get("test_accuracy")),
            actual_clients=None if actual is None else tuple(int(c) for c in actual),
            failures={int(k): str(v)
                      for k, v in dict(payload.get("failures") or {}).items()},
            fallback_reason=payload.get("fallback_reason"),
            aggregation_skipped=bool(payload.get("aggregation_skipped", False)),
            actual_population_bias=_native_float(
                payload.get("actual_population_bias")),
            round_delay=float(payload.get("round_delay", 0.0)),
            decode_failures={int(k): int(v) for k, v in
                             dict(payload.get("decode_failures") or {}).items()},
            disconnects={int(k): str(v) for k, v in
                         dict(payload.get("disconnects") or {}).items()},
        )


@dataclass
class TrainingHistory:
    """Accumulated per-round records plus convenience reductions.

    Example
    -------
    >>> import numpy as np
    >>> history = TrainingHistory()
    >>> history.append(RoundRecord(0, (0, 1), np.array([0.5, 0.5]), 0.0, 0.8))
    >>> len(history), history.accuracies().tolist()
    (1, [0.8])
    """

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        """Add one completed round's record to the history."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- series ------------------------------------------------------------------

    def accuracies(self) -> np.ndarray:
        """Test accuracy per evaluated round (NaN where evaluation was skipped)."""
        return np.array(
            [np.nan if r.test_accuracy is None else r.test_accuracy for r in self.records]
        )

    def population_biases(self) -> np.ndarray:
        """``||p_o − p_u||₁`` per round."""
        return np.array([r.population_bias for r in self.records])

    def population_distributions(self) -> np.ndarray:
        """Stacked per-round population distributions, shape ``(rounds, C)``."""
        if not self.records:
            return np.empty((0, 0))
        return np.vstack([r.population_distribution for r in self.records])

    # -- fault-injection series (scenario runs) ------------------------------------

    def fallback_reasons(self) -> "list[tuple[int, str]]":
        """Rounds on which the transport left its usual path, with the reason."""
        return [(r.round_index, r.fallback_reason) for r in self.records
                if r.fallback_reason is not None]

    def failure_counts(self) -> dict[str, int]:
        """The failure census: how many client failures each cause made.

        Example
        -------
        >>> import numpy as np
        >>> history = TrainingHistory()
        >>> history.append(RoundRecord(0, (0, 1, 2), np.array([0.5, 0.5]), 0.0,
        ...                            0.8, failures={1: "dropout", 2: "offline"}))
        >>> history.append(RoundRecord(1, (0, 1), np.array([0.5, 0.5]), 0.0,
        ...                            0.8, failures={0: "dropout"}))
        >>> history.failure_counts()
        {'dropout': 2, 'offline': 1}
        """
        counts: dict[str, int] = {}
        for record in self.records:
            for cause in record.failures.values():
                counts[cause] = counts.get(cause, 0) + 1
        return counts

    def skipped_rounds(self) -> "list[int]":
        """Rounds whose survivors fell below the participation floor."""
        return [r.round_index for r in self.records if r.aggregation_skipped]

    def actual_population_biases(self) -> np.ndarray:
        """``||p_o − p_u||₁`` of the clients actually aggregated, per round.

        A scenario-free round aggregated its whole selection, so it reads
        its planned bias; a round that aggregated nobody reads ``NaN``.
        """
        return np.array([r.population_bias if r.actual_population_bias is None
                         else r.actual_population_bias for r in self.records])

    def mean_actual_population_bias(self) -> float:
        """Mean survivor ``||p_o − p_u||₁`` over rounds that aggregated anyone."""
        biases = self.actual_population_biases()
        valid = biases[~np.isnan(biases)]
        if valid.size == 0:
            raise ValueError("no aggregated rounds in history")
        return float(valid.mean())

    # -- reductions ----------------------------------------------------------------

    def final_accuracy(self) -> float:
        """Accuracy of the last evaluated round."""
        acc = self.accuracies()
        valid = acc[~np.isnan(acc)]
        if valid.size == 0:
            raise ValueError("no evaluated rounds in history")
        return float(valid[-1])

    def tail_average_accuracy(self, window: int = 50) -> float:
        """Average accuracy over the last *window* evaluated rounds (Figure 7)."""
        if window < 1:
            raise ValueError("window must be positive")
        acc = self.accuracies()
        valid = acc[~np.isnan(acc)]
        if valid.size == 0:
            raise ValueError("no evaluated rounds in history")
        return float(valid[-window:].mean())

    def mean_population_bias(self) -> float:
        """Average ``||p_o − p_u||₁`` over all rounds."""
        if not self.records:
            raise ValueError("empty history")
        return float(self.population_biases().mean())

    def average_population_distribution(self) -> np.ndarray:
        """Expectation of the participated class proportion over rounds (Fig. 2/8/10)."""
        dists = self.population_distributions()
        if dists.size == 0:
            raise ValueError("empty history")
        return dists.mean(axis=0)

    def summary(self) -> dict:
        """A compact dictionary used by benchmarks and examples."""
        return {
            "rounds": len(self.records),
            "final_accuracy": self.final_accuracy(),
            "tail_accuracy": self.tail_average_accuracy(min(50, len(self.records))),
            "mean_population_bias": self.mean_population_bias(),
        }

    # -- serialization -------------------------------------------------------------
