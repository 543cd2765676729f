"""The three ledger run modes: LIVE record, crash-safe RESUME, byte VERIFY.

A :class:`LedgerSession` attaches to a
:class:`~repro.federated.FederatedSimulation` whose config names a
``ledger_path``, and drives one of three behaviours chosen by
``config.run_mode``:

* **live** — open a new run row and commit every completed round (record +
  global-state checkpoint) as it happens.  A killed process loses at most
  the in-flight round.
* **resume** — reopen a recorded run, *fast-forward* the deterministic
  state the ledger cannot store (selector RNG, client participation
  counters) by replaying the committed rounds' selections —
  asserting they reproduce the recorded cohorts exactly — then restore the
  server from the last committed checkpoint and continue recording into the
  same run.  Because each round's local training is a pure function of
  (global state, round index, client data), the continuation is
  bit-identical to the uninterrupted run.
* **verify** — re-execute the recorded run from round 0 and compare every
  round's selections and metrics against the committed rows, accumulating a
  structured diff; any mismatch raises :class:`LedgerVerificationError`
  carrying the full :class:`VerifyReport`.

The session never mutates committed history: resume appends, verify only
reads, and a run whose recorded configuration disagrees with the attached
simulation on any determinism-relevant field
(:data:`repro.ledger.codec.DETERMINISM_KEYS`) is refused with a
:class:`LedgerMismatchError` naming the differing keys.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.config import resolve_run_mode
from ..federated.history import RoundRecord
from .codec import (DETERMINISM_KEYS, config_to_dict, drop_retired_keys,
                    scenario_to_dict)
from .context import benchmark_context
from .store import LedgerError, RunLedger

__all__ = [
    "LedgerMismatchError",
    "LedgerSession",
    "LedgerVerificationError",
    "RoundDiff",
    "VERIFY_ATOL",
    "VerifyReport",
    "diff_records",
]

#: Tolerance for VERIFY's metric comparisons.  Under float64 every executor
#: back-end is bit-identical, so the observed difference is 0.0; the
#: tolerance exists to make the contract explicit rather than to absorb
#: drift.
VERIFY_ATOL = 1e-10


class LedgerMismatchError(LedgerError):
    """The attached simulation disagrees with the recorded run — on a
    determinism-relevant config field, or (during resume fast-forward) on a
    replayed round's selection."""


class LedgerVerificationError(LedgerError):
    """VERIFY found at least one round whose re-execution differs from the
    recorded run.  ``.report`` carries the structured per-field diff."""

    def __init__(self, report: "VerifyReport"):
        super().__init__(report.format())
        self.report = report


@dataclass(frozen=True)
class RoundDiff:
    """One field of one round that differs between recorded and re-executed.

    Example
    -------
    >>> diff = RoundDiff(round_index=2, field="test_accuracy",
    ...                  expected=0.5, actual=0.75)
    >>> diff.field
    'test_accuracy'
    """

    round_index: int
    field: str
    expected: object
    actual: object

    def format(self) -> str:
        """One human-readable diff line.

        Example
        -------
        >>> RoundDiff(2, "test_accuracy", 0.5, 0.75).format()
        'round 2: test_accuracy recorded 0.5, re-executed 0.75'
        """
        return (f"round {self.round_index}: {self.field} recorded "
                f"{self.expected!r}, re-executed {self.actual!r}")


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one VERIFY pass over a recorded run.

    Example
    -------
    >>> report = VerifyReport(run_id="ab12", rounds_checked=5,
    ...                       mismatches=(), atol=1e-10)
    >>> report.ok()
    True
    """

    run_id: str
    rounds_checked: int
    mismatches: "tuple[RoundDiff, ...]"
    atol: float

    def ok(self) -> bool:
        """Whether the re-execution matched the record on every round.

        Example
        -------
        >>> VerifyReport("x", 3, (), 1e-10).ok()
        True
        """
        return not self.mismatches

    def to_dict(self) -> dict:
        """JSON-ready form (used by the CLI's machine-readable output).

        Example
        -------
        >>> VerifyReport("x", 3, (), 1e-10).to_dict()["ok"]
        True
        """
        return {
            "run_id": self.run_id,
            "rounds_checked": self.rounds_checked,
            "ok": self.ok(),
            "atol": self.atol,
            "mismatches": [
                {"round_index": m.round_index, "field": m.field,
                 "expected": repr(m.expected), "actual": repr(m.actual)}
                for m in self.mismatches
            ],
        }

    def format(self) -> str:
        """A multi-line human-readable report.

        Example
        -------
        >>> print(VerifyReport("ab12", 3, (), 1e-10).format())
        VERIFY run ab12: OK (3 rounds bit-identical within 1e-10)
        """
        if self.ok():
            return (f"VERIFY run {self.run_id}: OK ({self.rounds_checked} "
                    f"rounds bit-identical within {self.atol:g})")
        lines = [f"VERIFY run {self.run_id}: FAILED "
                 f"({len(self.mismatches)} mismatched field(s) over "
                 f"{self.rounds_checked} rounds, tolerance {self.atol:g})"]
        lines.extend("  " + m.format() for m in self.mismatches)
        return "\n".join(lines)


def _canonical(payload) -> object:
    """JSON-normalise a payload (int keys → str, tuples → lists)."""
    return json.loads(json.dumps(payload))


def _scalar_close(expected, actual, atol: float) -> bool:
    if expected is None or actual is None:
        return expected is None and actual is None
    expected, actual = float(expected), float(actual)
    if np.isnan(expected) or np.isnan(actual):
        return np.isnan(expected) and np.isnan(actual)
    return abs(expected - actual) <= atol


def diff_records(expected: RoundRecord, actual: RoundRecord,
                 atol: float = VERIFY_ATOL) -> "list[RoundDiff]":
    """Structured field-by-field diff of a recorded vs re-executed round.

    Exact fields (selections, survivors, failure causes, the skip flag)
    must match exactly; floating metrics must agree within *atol*.
    ``fallback_reason`` is deliberately not compared — verifying on a
    different executor back-end may legitimately degrade differently
    without changing any numeric result.  ``decode_failures`` and
    ``disconnects`` are likewise uncompared: they record wall-clock
    link behaviour (heartbeat timing, TCP teardown ordering), which a
    bit-identical re-execution may legitimately observe differently.

    Example
    -------
    >>> import numpy as np
    >>> a = RoundRecord(0, (1, 2), np.array([0.5, 0.5]), 0.0, 0.9)
    >>> diff_records(a, a)
    []
    """
    diffs: list[RoundDiff] = []
    index = expected.round_index

    def exact(field: str, left, right) -> None:
        if left != right:
            diffs.append(RoundDiff(index, field, left, right))

    def close(field: str, left, right) -> None:
        if not _scalar_close(left, right, atol):
            diffs.append(RoundDiff(index, field, left, right))

    exact("round_index", expected.round_index, actual.round_index)
    exact("selected_clients", expected.selected_clients,
          actual.selected_clients)
    exact("actual_clients", expected.actual_clients, actual.actual_clients)
    exact("failures", dict(expected.failures), dict(actual.failures))
    exact("aggregation_skipped", expected.aggregation_skipped,
          actual.aggregation_skipped)
    close("population_bias", expected.population_bias,
          actual.population_bias)
    close("actual_population_bias", expected.actual_population_bias,
          actual.actual_population_bias)
    close("test_accuracy", expected.test_accuracy, actual.test_accuracy)
    close("round_delay", expected.round_delay, actual.round_delay)
    left = np.asarray(expected.population_distribution, dtype=float)
    right = np.asarray(actual.population_distribution, dtype=float)
    if left.shape != right.shape or not np.allclose(left, right, rtol=0.0,
                                                    atol=atol):
        diffs.append(RoundDiff(index, "population_distribution",
                               left.tolist(), right.tolist()))
    return diffs


class LedgerSession:
    """Connects one simulation run to the ledger in its configured mode.

    Constructed by :class:`~repro.federated.FederatedSimulation` when
    ``config.ledger_path`` is set; the simulation calls :meth:`on_round`
    after every completed round and :meth:`on_run_complete` when the loop
    finishes.  See the module docstring for the three modes' semantics.

    Example
    -------
    >>> # sim = FederatedSimulation(..., config=FederatedConfig(
    >>> #     rounds=5, ledger_path="runs.db", seed=0))
    >>> # sim.run()              # LIVE: every round committed as it lands
    >>> # sim.ledger_session.run_id
    """

    def __init__(self, simulation, recipe=None):
        config = simulation.config
        self.mode = resolve_run_mode(config.run_mode)
        self.atol = VERIFY_ATOL
        self.ledger = RunLedger(config.ledger_path,
                                create=self.mode == "live")
        self.run_id: str = ""
        #: the rounds a run must commit before it is finished
        self.rounds_planned = config.rounds
        self.start_round = 0
        self.recorded: list[dict] = []
        self.mismatches: list[RoundDiff] = []
        self.report: Optional[VerifyReport] = None
        self._mark = time.perf_counter()
        try:
            if self.mode == "live":
                self._begin_live(simulation, recipe)
            elif self.mode == "resume":
                self._begin_resume(simulation)
            else:
                self._begin_verify(simulation)
        except BaseException:
            self.ledger.close()
            raise

    # -- mode setup ----------------------------------------------------------------

    def _seeds(self, simulation) -> dict:
        config = simulation.config
        return {
            "config_seed": config.seed,
            "scenario_seed": (None if config.scenario is None
                              else config.scenario.seed),
            "selector": getattr(simulation.selector, "name",
                                type(simulation.selector).__name__),
        }

    def _begin_live(self, simulation, recipe) -> None:
        config = simulation.config
        name = config.run_name or self._seeds(simulation)["selector"]
        self.run_id = self.ledger.begin_run(
            name=name,
            config=config_to_dict(config),
            seeds=self._seeds(simulation),
            rounds_planned=config.rounds,
            scenario=scenario_to_dict(config.scenario),
            recipe=None if recipe is None else recipe.to_dict(),
            bench=benchmark_context(),
        )

    def _begin_resume(self, simulation) -> None:
        config = simulation.config
        info = self.ledger.run(config.replay_source_run_id)
        self._check_compatibility(info.config, config)
        self.recorded = self.ledger.rounds(info.run_id)
        self._fast_forward(simulation, self.recorded)
        if self.recorded:
            _, state = self.ledger.checkpoint(info.run_id)
            skipped = sum(1 for r in self.recorded
                          if r.get("aggregation_skipped"))
            simulation.server.restore(
                state,
                rounds_completed=len(self.recorded) - skipped,
                rounds_skipped=skipped,
            )
        self.run_id = info.run_id
        self.start_round = len(self.recorded)
        self.ledger.reopen_run(info.run_id)

    def _begin_verify(self, simulation) -> None:
        config = simulation.config
        info = self.ledger.run(config.replay_source_run_id)
        self._check_compatibility(info.config, config)
        self.recorded = self.ledger.rounds(info.run_id)
        if not self.recorded:
            raise LedgerError(
                f"run {info.run_id!r} has no committed rounds to verify"
            )
        self.run_id = info.run_id

    def _check_compatibility(self, recorded_config: dict, config) -> None:
        current = _canonical(config_to_dict(config))
        recorded = _canonical(drop_retired_keys(recorded_config))
        differing = {
            key: (recorded.get(key), current.get(key))
            for key in DETERMINISM_KEYS
            if recorded.get(key) != current.get(key)
        }
        if differing:
            details = "; ".join(
                f"{key}: recorded {rec!r} != current {cur!r}"
                for key, (rec, cur) in sorted(differing.items())
            )
            raise LedgerMismatchError(
                f"simulation config disagrees with the recorded run on "
                f"determinism-relevant fields — {details}"
            )

    def _fast_forward(self, simulation, recorded: "list[dict]") -> None:
        """Replay committed rounds' deterministic side effects (no training).

        Re-runs the selector for every committed round, asserting each
        replayed selection reproduces the recorded cohort — which both
        validates determinism and leaves the selector's RNG in exactly the
        state the uninterrupted run would have had.  The in-memory history is restored from the records.
        """
        for payload in recorded:
            record = RoundRecord.from_dict(payload)
            replayed = tuple(
                int(c) for c in simulation.selector.select(record.round_index)
            )
            if replayed != record.selected_clients:
                raise LedgerMismatchError(
                    f"fast-forward of round {record.round_index} selected "
                    f"{replayed}, but the ledger recorded "
                    f"{record.selected_clients}; the selector (or its seed) "
                    "does not match the recorded run"
                )
            simulation.history.append(record)

    # -- run-loop hooks ------------------------------------------------------------

    def run_bounds(self, requested_total: int) -> "tuple[int, int]":
        """The ``(start, stop)`` round range for the simulation's run loop.

        LIVE/RESUME continue from the first uncommitted round up to the
        requested total; VERIFY always re-executes exactly the committed
        rounds, whatever total was requested.

        Example
        -------
        >>> # session.run_bounds(20) -> (7, 20) after 7 committed rounds
        """
        if self.mode == "verify":
            return 0, len(self.recorded)
        return self.start_round, requested_total

    def on_round(self, record: RoundRecord, state) -> None:
        """Handle one freshly completed round (commit it, or verify it).

        Example
        -------
        >>> # called by FederatedSimulation.run_round; not user-facing
        """
        if self.mode == "verify":
            index = record.round_index
            if index < len(self.recorded):
                expected = RoundRecord.from_dict(self.recorded[index])
                self.mismatches.extend(
                    diff_records(expected, record, atol=self.atol))
            return
        now = time.perf_counter()
        self.ledger.commit_round(self.run_id, record.to_dict(), state,
                                 wall_clock=now - self._mark)
        self._mark = now
        self.start_round = record.round_index + 1

    def on_run_complete(self, history) -> None:
        """Finalise the run: mark it completed, or raise the verify report.

        A run is completed once it has committed ``config.rounds`` rounds.
        A loop stopped earlier (``run(3)`` on a 6-round config) leaves the
        run ``running``, so ``list`` and ``show`` tell it from a finished
        one and ``resume`` continues it.

        Example
        -------
        >>> # called by FederatedSimulation.run; not user-facing
        """
        if self.mode == "verify":
            self.report = VerifyReport(
                run_id=self.run_id,
                rounds_checked=len(self.recorded),
                mismatches=tuple(self.mismatches),
                atol=self.atol,
            )
            if self.mismatches:
                raise LedgerVerificationError(self.report)
            return
        if self.start_round < self.rounds_planned:
            return
        summary = None
        try:
            summary = history.summary()
        except ValueError:
            pass  # nothing evaluated yet (e.g. zero remaining rounds)
        self.ledger.finish_run(self.run_id, report=summary)

    def close(self) -> None:
        """Release the underlying SQLite connection (idempotent).

        Example
        -------
        >>> # session.close()
        """
        self.ledger.close()
