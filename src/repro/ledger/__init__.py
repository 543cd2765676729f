"""Run ledger: record, replay and verify federated runs with crash-safe resume.

Every run recorded through this package lands in one SQLite file holding the
resolved configuration, scenario spec, seeds, per-round selections,
planned-vs-actual participants, failure causes, aggregated metrics,
wall-clock and a checksummed global-state checkpoint per round.  Rounds are
committed append-only, one transaction each, so a killed process loses at
most the round that was in flight.

Three run modes (``FederatedConfig.run_mode``) build on that record:

* ``"live"`` — record as you go (the default whenever ``ledger_path`` is
  set).
* ``"resume"`` — reopen a ledger, restore the last committed checkpoint and
  continue the run bit-identically.
* ``"verify"`` — re-execute a recorded run and assert every round's
  selections and metrics match the record, with a structured diff report on
  mismatch.

The ``python -m repro.ledger`` CLI exposes ``list``, ``show``, ``verify``
and ``resume`` over any ledger file.

Example
-------
>>> from repro.ledger import RunLedger
>>> with RunLedger(":memory:") as ledger:
...     ledger.runs()
[]
"""

from .codec import (DETERMINISM_KEYS, LEDGER_FIELDS, RunRecipe,
                    config_from_dict, config_to_dict, scenario_from_dict,
                    scenario_to_dict, state_from_bytes, state_sha256,
                    state_to_bytes)
from .context import benchmark_context, git_sha
from .modes import (VERIFY_ATOL, LedgerMismatchError, LedgerSession,
                    LedgerVerificationError, RoundDiff, VerifyReport,
                    diff_records)
from .store import (SCHEMA_VERSION, LedgerCorruptError, LedgerError,
                    LedgerSchemaError, RunInfo, RunLedger)

__all__ = [
    "DETERMINISM_KEYS",
    "LEDGER_FIELDS",
    "LedgerCorruptError",
    "LedgerError",
    "LedgerMismatchError",
    "LedgerSchemaError",
    "LedgerSession",
    "LedgerVerificationError",
    "RoundDiff",
    "RunInfo",
    "RunLedger",
    "RunRecipe",
    "SCHEMA_VERSION",
    "VERIFY_ATOL",
    "VerifyReport",
    "benchmark_context",
    "config_from_dict",
    "config_to_dict",
    "diff_records",
    "git_sha",
    "scenario_from_dict",
    "scenario_to_dict",
    "state_from_bytes",
    "state_sha256",
    "state_to_bytes",
]
