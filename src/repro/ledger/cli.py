"""``python -m repro.ledger`` — inspect, verify and resume recorded runs.

Four subcommands, all operating on one ledger file:

* ``list LEDGER`` — every recorded run: id, name, status, committed/planned
  rounds, wall-clock and git SHA.
* ``show LEDGER [RUN]`` — one run in full: recorded config, seeds,
  benchmark context and the per-round table (selection, survivors,
  accuracy, bias, failures).
* ``verify LEDGER [RUN]`` — rebuild the run from its recorded recipe,
  re-execute it (optionally on a different executor back-end) and assert
  every round's selections and metrics are bit-identical; exits non-zero
  with a structured diff on mismatch.
* ``resume LEDGER [RUN]`` — rebuild the run from its recipe, restore the
  last committed checkpoint and run the remaining rounds of the recorded
  plan, committing to the same run row.

``verify`` and ``resume`` need the run's recorded recipe (see
:class:`~repro.ledger.codec.RunRecipe`); ``--recipe``/``--recipe-kwargs``
override it for runs recorded without one.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..federated.executor import EXECUTOR_MODES
from .codec import RunRecipe, config_from_dict
from .modes import LedgerVerificationError
from .store import LedgerError, RunInfo, RunLedger

__all__ = ["main"]


def _format_timestamp(value: Optional[float]) -> str:
    if value is None:
        return "-"
    import datetime

    return datetime.datetime.fromtimestamp(value).strftime("%Y-%m-%d %H:%M:%S")


def _list(ledger: RunLedger) -> int:
    runs = ledger.runs()
    if not runs:
        print("no recorded runs")
        return 0
    header = (f"{'run_id':<14} {'name':<16} {'status':<10} "
              f"{'rounds':>9} {'started':<19} {'git':<9}")
    print(header)
    print("-" * len(header))
    for info in runs:
        sha = (info.bench or {}).get("git_sha") or "-"
        print(f"{info.run_id:<14} {info.name[:16]:<16} {info.status:<10} "
              f"{info.rounds_committed:>4}/{info.rounds_planned:<4} "
              f"{_format_timestamp(info.created_at):<19} {sha[:9]:<9}")
    return 0


def _show(ledger: RunLedger, run_id: Optional[str]) -> int:
    info = ledger.run(run_id)
    print(f"run {info.run_id} ({info.name}) — {info.status}, "
          f"{info.rounds_committed}/{info.rounds_planned} rounds committed")
    print(f"  started  {_format_timestamp(info.created_at)}")
    print(f"  finished {_format_timestamp(info.finished_at)}")
    bench = info.bench or {}
    print(f"  git {bench.get('git_sha') or '-'}  cpus "
          f"{bench.get('cpu_count', '-')}  python "
          f"{bench.get('python', '-')}  numpy {bench.get('numpy', '-')}")
    print(f"  seeds  {json.dumps(info.seeds)}")
    print(f"  config {json.dumps(info.config, sort_keys=True)}")
    if info.recipe:
        print(f"  recipe {json.dumps(info.recipe)}")
    if info.report:
        print(f"  report {json.dumps(info.report, sort_keys=True)}")
    rounds = ledger.rounds(info.run_id)
    if not rounds:
        return 0
    print(f"  {'round':>5} {'|selected|':>10} {'|actual|':>8} "
          f"{'accuracy':>9} {'bias':>7} {'skipped':>7}  failures")
    for record in rounds:
        selected = record.get("selected_clients") or []
        actual = record.get("actual_clients")
        accuracy = record.get("test_accuracy")
        failures = record.get("failures") or {}
        causes: dict[str, int] = {}
        for cause in failures.values():
            causes[cause] = causes.get(cause, 0) + 1
        print(f"  {record.get('round_index', '?'):>5} "
              f"{len(selected):>10} "
              f"{len(selected) if actual is None else len(actual):>8} "
              f"{'-' if accuracy is None else format(accuracy, '.4f'):>9} "
              f"{record.get('population_bias', float('nan')):>7.4f} "
              f"{'yes' if record.get('aggregation_skipped') else 'no':>7}  "
              f"{json.dumps(causes) if causes else '-'}")
    return 0


def _build_simulation(path: str, info: RunInfo, run_mode: str,
                      executor_mode: Optional[str],
                      recipe_override: Optional[RunRecipe]):
    from ..api import Session

    recipe = recipe_override
    if recipe is None:
        if not info.recipe:
            raise LedgerError(
                f"run {info.run_id} was recorded without a recipe; pass "
                "--recipe package.module:function to rebuild it"
            )
        recipe = RunRecipe.from_dict(info.recipe)
    overrides: dict = {
        "run_mode": run_mode,
        "ledger_path": path,
        "replay_source_run_id": info.run_id,
    }
    if executor_mode is not None:
        overrides["executor_mode"] = executor_mode
    config = config_from_dict(info.config, **overrides)
    return Session(config).with_recipe(recipe).build()


def _verify(path: str, ledger: RunLedger, run_id: Optional[str],
            executor_mode: Optional[str],
            recipe_override: Optional[RunRecipe], as_json: bool) -> int:
    info = ledger.run(run_id)
    simulation = _build_simulation(path, info, "verify", executor_mode,
                                   recipe_override)
    try:
        simulation.run()
        report = simulation.ledger_session.report
    except LedgerVerificationError as exc:
        report = exc.report
    finally:
        simulation.close()
    assert report is not None
    print(json.dumps(report.to_dict(), indent=2) if as_json
          else report.format())
    return 0 if report.ok() else 1


def _resume(path: str, ledger: RunLedger, run_id: Optional[str],
            executor_mode: Optional[str],
            recipe_override: Optional[RunRecipe]) -> int:
    info = ledger.run(run_id)
    already = info.rounds_committed
    simulation = _build_simulation(path, info, "resume", executor_mode,
                                   recipe_override)
    try:
        history = simulation.run()
    finally:
        simulation.close()
    ran = len(history) - already
    print(f"resumed run {info.run_id} from round {already}: ran {ran} "
          f"round(s), {len(history)} total")
    try:
        print(f"final accuracy {history.final_accuracy():.4f}")
    except ValueError:
        pass
    return 0


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """Entry point of ``python -m repro.ledger``; returns the exit code.

    Example
    -------
    >>> main(["list", "/tmp/no-such-ledger.db"])  # doctest: +SKIP
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.ledger",
        description=__doc__.splitlines()[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list recorded runs")
    list_parser.add_argument("ledger", help="path to the ledger file")

    show_parser = commands.add_parser("show", help="show one run in full")
    show_parser.add_argument("ledger")
    show_parser.add_argument("run_id", nargs="?", default=None,
                             help="run to show (default: most recent)")

    for name, help_text in (("verify", "re-execute and compare a run"),
                            ("resume", "continue a run from its checkpoint")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("ledger")
        sub.add_argument("run_id", nargs="?", default=None)
        sub.add_argument("--executor-mode", default=None,
                         choices=EXECUTOR_MODES,
                         help="re-execute on this back-end instead of the "
                              "recorded one")
        sub.add_argument("--recipe", default=None,
                         help="package.module:function overriding the "
                              "recorded recipe")
        sub.add_argument("--recipe-kwargs", default=None,
                         help="JSON kwargs for --recipe")
        if name == "verify":
            sub.add_argument("--json", action="store_true",
                             help="machine-readable report")

    args = parser.parse_args(argv)
    recipe_override = None
    if getattr(args, "recipe", None):
        recipe_override = RunRecipe(
            target=args.recipe,
            kwargs=json.loads(args.recipe_kwargs) if args.recipe_kwargs else {},
        )
    try:
        with RunLedger(args.ledger, create=False) as ledger:
            if args.command == "list":
                return _list(ledger)
            if args.command == "show":
                return _show(ledger, args.run_id)
            if args.command == "verify":
                return _verify(args.ledger, ledger, args.run_id,
                               args.executor_mode, recipe_override, args.json)
            return _resume(args.ledger, ledger, args.run_id,
                           args.executor_mode, recipe_override)
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
