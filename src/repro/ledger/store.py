"""The SQLite-backed run ledger: append-only per-round run records.

Long multi-round federated runs previously lived only in process memory — a
crash at round 180 of 200 lost everything, and no finished run could be
independently re-verified.  :class:`RunLedger` makes every run durable: one
row per run (resolved config, scenario spec, seeds, recipe, benchmark
context) plus one row per completed round (the full
:class:`~repro.federated.history.RoundRecord` and a checksummed global-model
checkpoint), each committed in its own SQLite transaction.  A killed process
therefore loses at most the round that was in flight; everything committed
before the kill is intact and resumable.

Safety properties:

* **Append-only rounds** — a round row is never updated; recommitting an
  existing ``(run_id, round_index)`` raises instead of silently rewriting
  history.
* **Never overwrite foreign files** — opening a path that exists but is not
  a ledger (wrong SQLite ``application_id``, not SQLite at all) raises
  :class:`LedgerCorruptError`/:class:`LedgerSchemaError`; the file is left
  untouched.
* **Schema versioning** — the SQLite ``user_version`` pragma records the
  ledger schema; a ledger written by an incompatible version is detected
  and reported, not migrated in place.
* **Checksummed checkpoints** — every global-state blob carries its SHA-256;
  a truncated or bit-flipped checkpoint is caught on load.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .codec import state_from_bytes, state_sha256, state_to_bytes

__all__ = [
    "LedgerCorruptError",
    "LedgerError",
    "LedgerSchemaError",
    "RunInfo",
    "RunLedger",
    "SCHEMA_VERSION",
]

#: Version of the on-disk schema; bumped on incompatible layout changes and
#: checked against the file's ``PRAGMA user_version`` on every open.
SCHEMA_VERSION = 1

#: SQLite ``application_id`` stamped into every ledger file ("DUBH" in
#: ASCII), so a ledger is distinguishable from any other SQLite database.
_APPLICATION_ID = 0x44554248

_SCHEMA = """
CREATE TABLE runs (
    run_id         TEXT PRIMARY KEY,
    name           TEXT NOT NULL,
    status         TEXT NOT NULL CHECK (status IN ('running', 'completed')),
    created_at     REAL NOT NULL,
    finished_at    REAL,
    rounds_planned INTEGER NOT NULL,
    config_json    TEXT NOT NULL,
    scenario_json  TEXT,
    seeds_json     TEXT NOT NULL,
    recipe_json    TEXT,
    bench_json     TEXT,
    report_json    TEXT
);
CREATE TABLE rounds (
    run_id       TEXT NOT NULL REFERENCES runs(run_id),
    round_index  INTEGER NOT NULL,
    record_json  TEXT NOT NULL,
    state        BLOB NOT NULL,
    state_sha256 TEXT NOT NULL,
    wall_clock   REAL NOT NULL,
    committed_at REAL NOT NULL,
    PRIMARY KEY (run_id, round_index)
);
"""


class LedgerError(RuntimeError):
    """Base class of every run-ledger failure."""


class LedgerCorruptError(LedgerError):
    """The ledger file is damaged (not SQLite, failed integrity check, bad
    checkpoint checksum).  The file is reported and left untouched — never
    silently overwritten."""


class LedgerSchemaError(LedgerError):
    """The file is a healthy SQLite database but not a compatible ledger
    (foreign ``application_id`` or a different :data:`SCHEMA_VERSION`)."""


@dataclass(frozen=True)
class RunInfo:
    """One run's row of the ledger, with JSON columns already decoded.

    Example
    -------
    >>> info = RunInfo(run_id="ab12", name="demo", status="completed",
    ...                created_at=0.0, finished_at=1.0, rounds_planned=5,
    ...                rounds_committed=5, config={"rounds": 5}, seeds={})
    >>> info.status
    'completed'
    """

    run_id: str
    name: str
    status: str
    created_at: float
    finished_at: Optional[float]
    rounds_planned: int
    rounds_committed: int
    config: dict
    seeds: dict
    scenario: Optional[dict] = None
    recipe: Optional[dict] = None
    bench: Optional[dict] = None
    report: Optional[dict] = None


def _json_or_none(text: Optional[str]) -> Optional[dict]:
    return None if text is None else json.loads(text)


class RunLedger:
    """A durable record of federated runs backed by one SQLite file.

    Opening a path creates a fresh ledger when the file does not exist (and
    ``create=True``), or validates an existing one: a non-ledger or
    corrupted file raises instead of being overwritten.  All writes are
    single transactions, so readers in other processes (the CLI, a resuming
    run) always observe a consistent prefix of the run.

    Example
    -------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "ledger.db")
    >>> with RunLedger(path) as ledger:
    ...     run_id = ledger.begin_run("demo", config={"rounds": 2},
    ...                               seeds={"config": 0}, rounds_planned=2)
    ...     ledger.round_count(run_id)
    0
    """

    def __init__(self, path: "str | os.PathLike", create: bool = True,
                 timeout: float = 30.0):
        self.path = os.fspath(path)
        existed = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        if not existed and not create:
            raise LedgerError(f"no ledger at {self.path}")
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.row_factory = sqlite3.Row
        try:
            if existed:
                self._validate()
            else:
                self._initialize()
        except BaseException:
            self._conn.close()
            raise

    # -- open/validate -------------------------------------------------------------

    def _pragma(self, name: str):
        return self._conn.execute(f"PRAGMA {name}").fetchone()[0]

    def _initialize(self) -> None:
        with self._conn:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(f"PRAGMA application_id = {_APPLICATION_ID}")
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    def _validate(self) -> None:
        try:
            application_id = self._pragma("application_id")
            user_version = self._pragma("user_version")
            quick_check = self._pragma("quick_check")
        except sqlite3.DatabaseError as exc:
            raise LedgerCorruptError(
                f"{self.path} is not a SQLite database ({exc}); refusing to "
                "overwrite it"
            ) from exc
        if application_id != _APPLICATION_ID:
            raise LedgerSchemaError(
                f"{self.path} is a SQLite database but not a run ledger "
                f"(application_id {application_id:#x}); refusing to touch it"
            )
        if user_version != SCHEMA_VERSION:
            raise LedgerSchemaError(
                f"{self.path} uses ledger schema v{user_version}, this code "
                f"speaks v{SCHEMA_VERSION}; refusing to migrate in place"
            )
        if quick_check != "ok":
            raise LedgerCorruptError(
                f"{self.path} failed SQLite integrity check: {quick_check}"
            )

    # -- recording -----------------------------------------------------------------

    def begin_run(self, name: str, config: Mapping, seeds: Mapping,
                  rounds_planned: int, scenario: Optional[Mapping] = None,
                  recipe: Optional[Mapping] = None,
                  bench: Optional[Mapping] = None,
                  run_id: Optional[str] = None) -> str:
        """Open a new run row (status ``running``) and return its id.

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {"rounds": 1}, {"config": 0}, 1)
        >>> ledger.run(run_id).status
        'running'
        """
        run_id = run_id or uuid.uuid4().hex[:12]
        with self._conn:
            self._conn.execute(
                "INSERT INTO runs (run_id, name, status, created_at, "
                "rounds_planned, config_json, scenario_json, seeds_json, "
                "recipe_json, bench_json) VALUES (?, ?, 'running', ?, ?, ?, "
                "?, ?, ?, ?)",
                (run_id, name, time.time(), int(rounds_planned),
                 json.dumps(dict(config)),
                 None if scenario is None else json.dumps(dict(scenario)),
                 json.dumps(dict(seeds)),
                 None if recipe is None else json.dumps(dict(recipe)),
                 None if bench is None else json.dumps(dict(bench))),
            )
        return run_id

    def commit_round(self, run_id: str, record: Mapping,
                     state: Mapping[str, np.ndarray],
                     wall_clock: float = 0.0) -> None:
        """Append one completed round in a single transaction.

        *record* is a :meth:`~repro.federated.history.RoundRecord.to_dict`
        payload, *state* the post-aggregation global model state (the
        resume checkpoint).  Re-committing an already-recorded round index
        raises — committed history is immutable.

        Example
        -------
        >>> import tempfile, os, numpy as np
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {}, {}, 1)
        >>> ledger.commit_round(run_id, {"round_index": 0},
        ...                     {"w": np.zeros(2)})
        >>> ledger.round_count(run_id)
        1
        """
        record = dict(record)
        round_index = int(record["round_index"])
        blob = state_to_bytes(state)
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO rounds (run_id, round_index, record_json, "
                    "state, state_sha256, wall_clock, committed_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (run_id, round_index, json.dumps(record), blob,
                     state_sha256(blob), float(wall_clock), time.time()),
                )
        except sqlite3.IntegrityError as exc:
            raise LedgerError(
                f"round {round_index} of run {run_id} is already committed; "
                "ledger rounds are append-only"
            ) from exc

    def finish_run(self, run_id: str, report: Optional[Mapping] = None) -> None:
        """Mark a run completed (optionally attaching a report summary).

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {}, {}, 1)
        >>> ledger.finish_run(run_id, report={"final_accuracy": 0.9})
        >>> ledger.run(run_id).status
        'completed'
        """
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE runs SET status = 'completed', finished_at = ?, "
                "report_json = COALESCE(?, report_json) WHERE run_id = ?",
                (time.time(),
                 None if report is None else json.dumps(dict(report)), run_id),
            )
        if cursor.rowcount == 0:
            raise LedgerError(f"no run {run_id!r} in {self.path}")

    def reopen_run(self, run_id: str) -> None:
        """Flip a run back to ``running`` (the RESUME path continues it).

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {}, {}, 1)
        >>> ledger.reopen_run(run_id)
        """
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE runs SET status = 'running', finished_at = NULL "
                "WHERE run_id = ?", (run_id,))
        if cursor.rowcount == 0:
            raise LedgerError(f"no run {run_id!r} in {self.path}")

    # -- reading -------------------------------------------------------------------

    def _run_info(self, row: sqlite3.Row) -> RunInfo:
        committed = self._conn.execute(
            "SELECT COUNT(*) FROM rounds WHERE run_id = ?",
            (row["run_id"],)).fetchone()[0]
        return RunInfo(
            run_id=row["run_id"],
            name=row["name"],
            status=row["status"],
            created_at=row["created_at"],
            finished_at=row["finished_at"],
            rounds_planned=row["rounds_planned"],
            rounds_committed=committed,
            config=json.loads(row["config_json"]),
            seeds=json.loads(row["seeds_json"]),
            scenario=_json_or_none(row["scenario_json"]),
            recipe=_json_or_none(row["recipe_json"]),
            bench=_json_or_none(row["bench_json"]),
            report=_json_or_none(row["report_json"]),
        )

    def runs(self) -> "list[RunInfo]":
        """Every recorded run, oldest first.

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> ledger.runs()
        []
        """
        rows = self._conn.execute(
            "SELECT * FROM runs ORDER BY created_at, run_id").fetchall()
        return [self._run_info(row) for row in rows]

    def run(self, run_id: Optional[str] = None) -> RunInfo:
        """One run's info; ``run_id=None`` means the most recent run.

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {}, {}, 1)
        >>> ledger.run().run_id == run_id
        True
        """
        if run_id is None:
            row = self._conn.execute(
                "SELECT * FROM runs ORDER BY created_at DESC, run_id DESC "
                "LIMIT 1").fetchone()
            if row is None:
                raise LedgerError(f"{self.path} contains no runs")
        else:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)).fetchone()
            if row is None:
                raise LedgerError(f"no run {run_id!r} in {self.path}")
        return self._run_info(row)

    def round_count(self, run_id: str) -> int:
        """How many rounds of a run are durably committed.

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> ledger.round_count(ledger.begin_run("demo", {}, {}, 1))
        0
        """
        return self._conn.execute(
            "SELECT COUNT(*) FROM rounds WHERE run_id = ?",
            (run_id,)).fetchone()[0]

    def rounds(self, run_id: str) -> "list[dict]":
        """The committed round records of a run, in round order.

        Each entry is the :meth:`RoundRecord.to_dict` payload as committed;
        a contiguity gap (a missing round index) means the file was
        tampered with and raises :class:`LedgerCorruptError`.

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> ledger.rounds(ledger.begin_run("demo", {}, {}, 1))
        []
        """
        rows = self._conn.execute(
            "SELECT round_index, record_json FROM rounds WHERE run_id = ? "
            "ORDER BY round_index", (run_id,)).fetchall()
        records = []
        for position, row in enumerate(rows):
            if row["round_index"] != position:
                raise LedgerCorruptError(
                    f"run {run_id} in {self.path} is missing round "
                    f"{position} (found {row['round_index']}); committed "
                    "rounds must be contiguous"
                )
            records.append(json.loads(row["record_json"]))
        return records

    def checkpoint(self, run_id: str, round_index: Optional[int] = None,
                   ) -> "tuple[int, dict[str, np.ndarray]]":
        """A committed global-state checkpoint (default: the latest round).

        Returns ``(round_index, state_dict)``; the blob's SHA-256 is
        verified before deserialization, so a damaged checkpoint raises
        :class:`LedgerCorruptError` instead of resuming from garbage.

        Example
        -------
        >>> import tempfile, os, numpy as np
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> run_id = ledger.begin_run("demo", {}, {}, 1)
        >>> ledger.commit_round(run_id, {"round_index": 0}, {"w": np.ones(2)})
        >>> index, state = ledger.checkpoint(run_id)
        >>> index, state["w"].tolist()
        (0, [1.0, 1.0])
        """
        if round_index is None:
            row = self._conn.execute(
                "SELECT round_index, state, state_sha256 FROM rounds "
                "WHERE run_id = ? ORDER BY round_index DESC LIMIT 1",
                (run_id,)).fetchone()
        else:
            row = self._conn.execute(
                "SELECT round_index, state, state_sha256 FROM rounds "
                "WHERE run_id = ? AND round_index = ?",
                (run_id, round_index)).fetchone()
        if row is None:
            raise LedgerError(
                f"run {run_id!r} has no committed checkpoint"
                + (f" at round {round_index}" if round_index is not None else "")
            )
        blob = row["state"]
        if state_sha256(blob) != row["state_sha256"]:
            raise LedgerCorruptError(
                f"checkpoint of run {run_id} round {row['round_index']} "
                "fails its SHA-256 check; refusing to resume from it"
            )
        return row["round_index"], state_from_bytes(blob)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Close the SQLite connection (idempotent).

        Example
        -------
        >>> import tempfile, os
        >>> ledger = RunLedger(os.path.join(tempfile.mkdtemp(), "l.db"))
        >>> ledger.close(); ledger.close()
        """
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
