"""Scenario runs reported in the paper's own metrics.

A robustness claim is only worth something when it is measured with the
quantities the paper itself uses, so a :class:`ScenarioReport` reduces a
faulted run to per-round population EMD ``||p_o − p_u||₁`` (planned *and*
actually-aggregated cohort), test accuracy, the failure census by cause, and
how many rounds fell below the participation threshold.
:func:`compare_selectors` runs the same scenario under several selection
strategies (Dubhe vs greedy vs random, typically), which is exactly the
paper's Figure 6/9 comparison transplanted into a faulted world.

This module only reads the simulation's public surface
(:class:`~repro.federated.TrainingHistory` records and the partition), so it
works with any simulation-like object; heavyweight imports happen lazily
inside the functions to keep :mod:`repro.scenarios` import-light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = ["ScenarioReport", "compare_selectors"]


@dataclass(frozen=True)
class ScenarioReport:
    """Per-round robustness metrics of one scenario run.

    ``planned_biases``/``actual_biases`` are the population EMD of the
    selector's cohort and of the survivors actually aggregated
    (``NaN`` where a round aggregated nobody); ``accuracies`` has ``NaN``
    where evaluation was skipped.  ``baseline_bias`` is Figure 9's
    full-participation "Base Line" for the same federation.

    Example
    -------
    >>> report = ScenarioReport(
    ...     name="demo", rounds=2,
    ...     planned_biases=(0.4, 0.5), actual_biases=(0.45, 0.5),
    ...     accuracies=(0.6, 0.7), failure_counts={"dropout": 1},
    ...     skipped_rounds=0, baseline_bias=0.3)
    >>> report.final_accuracy()
    0.7
    """

    name: str
    rounds: int
    planned_biases: tuple[float, ...]
    actual_biases: tuple[float, ...]
    accuracies: tuple[float, ...]
    failure_counts: Mapping[str, int]
    skipped_rounds: int
    baseline_bias: float
    fallback_reasons: tuple[str, ...] = ()

    def total_failures(self) -> int:
        """How many client-round faults the scenario injected in total.

        Example
        -------
        >>> ScenarioReport("d", 1, (0.1,), (0.1,), (0.5,),
        ...                {"offline": 2, "dropout": 1}, 0, 0.0).total_failures()
        3
        """
        return int(sum(self.failure_counts.values()))

    def final_accuracy(self) -> float:
        """Accuracy of the last evaluated round (NaN-skipping)."""
        accuracy = np.asarray(self.accuracies, dtype=float)
        valid = accuracy[~np.isnan(accuracy)]
        if valid.size == 0:
            raise ValueError("no evaluated rounds in this report")
        return float(valid[-1])

    def mean_actual_bias(self) -> float:
        """Mean survivor-population EMD over rounds that aggregated anyone."""
        biases = np.asarray(self.actual_biases, dtype=float)
        valid = biases[~np.isnan(biases)]
        if valid.size == 0:
            raise ValueError("no aggregated rounds in this report")
        return float(valid.mean())

    def summary(self) -> dict:
        """One row of the robustness benchmark table.

        Example
        -------
        >>> row = ScenarioReport("d", 1, (0.1,), (0.1,), (0.5,), {}, 0,
        ...                      0.3).summary()
        >>> row["rounds"], row["skipped_rounds"]
        (1, 0)
        """
        return {
            "name": self.name,
            "rounds": self.rounds,
            "final_accuracy": self.final_accuracy(),
            "mean_planned_bias": float(np.mean(self.planned_biases)),
            "mean_actual_bias": self.mean_actual_bias(),
            "baseline_bias": self.baseline_bias,
            "failures": dict(self.failure_counts),
            "skipped_rounds": self.skipped_rounds,
        }


def _run_scenario_impl(simulation, rounds: Optional[int] = None,
                       name: str = "scenario") -> ScenarioReport:
    """Run a (scenario-configured) simulation and reduce it to a report.

    *simulation* is a :class:`~repro.federated.FederatedSimulation` whose
    config usually carries a :class:`~repro.scenarios.spec.ScenarioSpec`;
    a scenario-free simulation works too and simply reports zero failures.
    The simulation is left open (callers own its lifecycle).  When the
    simulation records to a run ledger (:mod:`repro.ledger`), the report's
    summary and *name* are attached to the recorded run's row.
    """
    from ..analysis.emd import baseline_global_bias  # lazy: avoids import cycle

    history = simulation.run(rounds)
    failure_counts: dict[str, int] = {}
    fallback_reasons: list[str] = []
    skipped = 0
    actual_biases: list[float] = []
    for record in history.records:
        for cause in record.failures.values():
            failure_counts[cause] = failure_counts.get(cause, 0) + 1
        if record.fallback_reason is not None:
            fallback_reasons.append(record.fallback_reason)
        if record.aggregation_skipped:
            skipped += 1
        # None means "no scenario: survivors == planned"; a round that
        # aggregated nobody records NaN there and it flows through
        actual_biases.append(record.population_bias
                             if record.actual_population_bias is None
                             else record.actual_population_bias)
    report = ScenarioReport(
        name=name,
        rounds=len(history),
        planned_biases=tuple(float(b) for b in history.population_biases()),
        actual_biases=tuple(float(b) for b in actual_biases),
        accuracies=tuple(float(a) for a in history.accuracies()),
        failure_counts=failure_counts,
        skipped_rounds=skipped,
        baseline_bias=float(baseline_global_bias(
            simulation.partition.client_distributions())),
        fallback_reasons=tuple(fallback_reasons),
    )
    session = getattr(simulation, "ledger_session", None)
    if session is not None:
        try:
            session.attach_report(report.summary(), name=name)
        except ValueError:
            pass  # nothing evaluated: the run row simply keeps no report
    return report


def compare_selectors(make_simulation: Callable[[str], object],
                      names: Sequence[str] = ("dubhe", "greedy", "random"),
                      rounds: Optional[int] = None,
                      ) -> "dict[str, ScenarioReport]":
    """Benchmark one scenario under several selection strategies.

    *make_simulation* receives a strategy name and returns a fresh
    simulation for it (same federation, same scenario, different selector) —
    mirroring the paper's accuracy-versus-selector comparison under faults.
    Each simulation is closed after its run.

    Example
    -------
    >>> # reports = compare_selectors(build_sim, names=("dubhe", "random"))
    >>> # {n: r.summary()["final_accuracy"] for n, r in reports.items()}
    """
    reports: dict[str, ScenarioReport] = {}
    for selector_name in names:
        simulation = make_simulation(selector_name)
        try:
            reports[selector_name] = _run_scenario_impl(simulation, rounds,
                                                        name=selector_name)
        finally:
            close = getattr(simulation, "close", None)
            if close is not None:
                close()
    return reports
