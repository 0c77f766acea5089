"""Ordered, reversible schema migrations (terrarium-annotator style).

Every schema change to the annotation store travels through one place:
a :class:`Migration` (zero-padded revision id, human name, paired
``upgrade`` / ``downgrade`` callables taking the connection)
registered in :data:`MIGRATIONS`.  :class:`MigrationRunner` applies the
chain in order and records each applied revision in
``_nebula_schema_revisions``, so ``repro migrate status`` can always
answer "which schema is this database on?".

Seed-era databases — annotation tables present, no revisions table —
are *baseline-stamped*: the runner records revision 0001 as already
applied instead of re-running its DDL, then applies the rest of the
chain normally.  The versioning migration (0002) backfills the commit
log with one ``migrate`` commit holding an ``insert`` version of every
pre-existing row, so time-travel to that commit reproduces the state
the database had when it was migrated.

The chain so far:

======  ======================  =============================================
0001    legacy-base             the seed annotation/attachment tables + indexes
0002    versioning              commit log, history tables, current views,
                                backfill
0003    persistent-index        the search-index tables (postings + stats)
0004    operational-tables      dead letters, verification tasks, hop profile,
                                annotation rules
0005    read-indexes            partial indexes of the range edges on the
                                head and history attachment tables; the
                                verification tasks by annotation
======  ======================  =============================================

Components assume the chain has run: none of them creates or alters a
table.  A caller holding an unmigrated connection runs
:func:`ensure_schema` first (:class:`~repro.annotations.store.AnnotationStore`
does so on construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import MigrationError
from ..storage.compat import Connection
from .schema import LEGACY_DDL, VERSIONING_DDL

#: The revision every database implicitly starts from.
BASELINE_REVISION = "0001"

REVISIONS_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_schema_revisions (
    revision   TEXT PRIMARY KEY,
    name       TEXT NOT NULL,
    applied_at TEXT NOT NULL
);
"""

_BACKFILL_COMMIT = (
    "INSERT INTO _nebula_commits (kind, author, request_id, note, created_at) "
    "VALUES ('migrate', NULL, NULL, 'backfill of pre-versioning rows', ?)"
)

_BACKFILL_ANNOTATIONS = (
    "INSERT INTO _nebula_annotation_history "
    "(commit_id, annotation_id, op, content, author, created_seq) "
    "SELECT ?, annotation_id, 'insert', content, author, created_seq "
    "FROM _nebula_annotations ORDER BY annotation_id"
)

_BACKFILL_ATTACHMENTS = (
    "INSERT INTO _nebula_attachment_history "
    "(commit_id, attachment_id, op, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind) "
    "SELECT ?, attachment_id, 'insert', annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind "
    "FROM _nebula_attachments ORDER BY attachment_id"
)

_INDEX_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_index_postings (
    posting_id INTEGER PRIMARY KEY,
    token      TEXT NOT NULL,
    tbl        TEXT NOT NULL,
    col        TEXT NOT NULL,
    row_id     INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS _nebula_index_postings_token
    ON _nebula_index_postings (token);
CREATE TABLE IF NOT EXISTS _nebula_index_stats (
    kind  TEXT NOT NULL,
    tbl   TEXT NOT NULL,
    col   TEXT NOT NULL,
    value INTEGER NOT NULL,
    PRIMARY KEY (kind, tbl, col)
);
"""


#: The engine's operational state.  These tables predate the chain
#: (their owners created them on construction), so 0004 creates each
#: only when absent and its downgrade keeps them with their rows.
_OPERATIONAL_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_dead_letters (
    letter_id   INTEGER PRIMARY KEY,
    content     TEXT NOT NULL,
    author      TEXT,
    focal_json  TEXT NOT NULL,
    stage       TEXT NOT NULL,
    error       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 1,
    status      TEXT NOT NULL DEFAULT 'pending'
        CHECK (status IN ('pending', 'resolved')),
    claimed     INTEGER NOT NULL DEFAULT 0,
    request_id  TEXT,
    commit_id   INTEGER
);
CREATE TABLE IF NOT EXISTS _nebula_verification_tasks (
    task_id       INTEGER PRIMARY KEY,
    annotation_id INTEGER NOT NULL,
    target_table  TEXT NOT NULL,
    target_rowid  INTEGER NOT NULL,
    confidence    REAL NOT NULL,
    evidence      TEXT NOT NULL,
    status        TEXT NOT NULL CHECK (status IN
        ('pending', 'auto_accepted', 'auto_rejected', 'verified', 'rejected'))
);
CREATE TABLE IF NOT EXISTS _nebula_hop_profile (
    hops  INTEGER PRIMARY KEY,
    count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS _nebula_annotation_rules (
    rule_id       INTEGER PRIMARY KEY,
    annotation_id INTEGER NOT NULL REFERENCES _nebula_annotations(annotation_id),
    target_table  TEXT NOT NULL,
    target_column TEXT,
    predicate     TEXT NOT NULL,
    active        INTEGER NOT NULL DEFAULT 1
);
"""

#: Dead-letter columns added after the table first shipped, each with
#: the statement that adds it to an older table: ``claimed`` (the replay
#: claim; 0 is the unclaimed state), ``request_id`` (the service
#: submission; NULL for none) and ``commit_id`` (the replay commit).
_DEAD_LETTER_COLUMNS: Tuple[Tuple[str, str], ...] = (
    (
        "claimed",
        "ALTER TABLE _nebula_dead_letters "
        "ADD COLUMN claimed INTEGER NOT NULL DEFAULT 0",
    ),
    ("request_id", "ALTER TABLE _nebula_dead_letters ADD COLUMN request_id TEXT"),
    ("commit_id", "ALTER TABLE _nebula_dead_letters ADD COLUMN commit_id INTEGER"),
)


#: The range edges of each attachment table, keyed like ``…_by_target``:
#: the covering-range arm of a row's edges searches them
#: (:mod:`repro.versioning.timetravel`).  Both stay empty while no range
#: edge exists.  An expert ``verify`` reads the annotation's tasks to
#: derive its triage focal (:mod:`repro.core.verification`) through
#: ``…_by_annotation``.
_READ_INDEX_DDL = """
CREATE INDEX IF NOT EXISTS _nebula_attachments_by_range
    ON _nebula_attachments (target_table, target_rowid)
    WHERE target_rowid_hi IS NOT NULL;
CREATE INDEX IF NOT EXISTS _nebula_attachment_history_by_range
    ON _nebula_attachment_history (target_table, target_rowid)
    WHERE target_rowid_hi IS NOT NULL;
CREATE INDEX IF NOT EXISTS _nebula_verification_tasks_by_annotation
    ON _nebula_verification_tasks (annotation_id);
"""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _table_exists(connection: Connection, name: str) -> bool:
    row = connection.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
        (name,),
    ).fetchone()
    return row is not None


@dataclass(frozen=True)
class Migration:
    """One reversible schema step."""

    revision: str
    name: str
    upgrade: Callable[[Connection], None]
    downgrade: Callable[[Connection], None]


@dataclass(frozen=True)
class Revision:
    """One applied-migration record from ``_nebula_schema_revisions``."""

    revision: str
    name: str
    applied_at: str


# ----------------------------------------------------------------------
# The chain
# ----------------------------------------------------------------------


def _upgrade_legacy_base(connection: Connection) -> None:
    connection.executescript(LEGACY_DDL)


def _downgrade_legacy_base(connection: Connection) -> None:
    connection.executescript(
        "DROP INDEX IF EXISTS _nebula_attachments_by_target;\n"
        "DROP INDEX IF EXISTS _nebula_attachments_by_annotation;\n"
        "DROP TABLE IF EXISTS _nebula_attachments;\n"
        "DROP TABLE IF EXISTS _nebula_annotations;"
    )


def _upgrade_versioning(connection: Connection) -> None:
    connection.executescript(VERSIONING_DDL)
    # Backfill a pre-versioning head into the log, once: every existing
    # row becomes an 'insert' version under a single migrate commit.
    history_rows = connection.execute(
        "SELECT (SELECT COUNT(*) FROM _nebula_annotation_history) + "
        "(SELECT COUNT(*) FROM _nebula_attachment_history)"
    ).fetchone()
    head_rows = connection.execute(
        "SELECT (SELECT COUNT(*) FROM _nebula_annotations) + "
        "(SELECT COUNT(*) FROM _nebula_attachments)"
    ).fetchone()
    if int(history_rows[0]) > 0 or int(head_rows[0]) == 0:
        return
    cursor = connection.execute(_BACKFILL_COMMIT, (_utc_now(),))
    commit_id = int(cursor.lastrowid)
    connection.execute(_BACKFILL_ANNOTATIONS, (commit_id,))
    connection.execute(_BACKFILL_ATTACHMENTS, (commit_id,))


#: Inverse of :data:`VERSIONING_DDL` (drop order mirrors
#: :data:`~repro.versioning.schema.VERSIONING_OBJECTS`).
_VERSIONING_DROP = """
DROP VIEW IF EXISTS _nebula_annotations_current;
DROP VIEW IF EXISTS _nebula_attachments_current;
DROP TABLE IF EXISTS _nebula_annotation_history;
DROP TABLE IF EXISTS _nebula_attachment_history;
DROP TABLE IF EXISTS _nebula_commits;
"""


def _downgrade_versioning(connection: Connection) -> None:
    connection.executescript(_VERSIONING_DROP)


def _upgrade_persistent_index(connection: Connection) -> None:
    connection.executescript(_INDEX_DDL)


def _downgrade_persistent_index(connection: Connection) -> None:
    connection.executescript(
        "DROP INDEX IF EXISTS _nebula_index_postings_token;\n"
        "DROP TABLE IF EXISTS _nebula_index_postings;\n"
        "DROP TABLE IF EXISTS _nebula_index_stats;"
    )


def _upgrade_operational_tables(connection: Connection) -> None:
    connection.executescript(_OPERATIONAL_DDL)
    present = {
        str(row[1])
        for row in connection.execute("PRAGMA table_info(_nebula_dead_letters)")
    }
    for column, add_column in _DEAD_LETTER_COLUMNS:
        if column not in present:
            connection.execute(add_column)


def _downgrade_operational_tables(connection: Connection) -> None:
    """Keep the tables: they hold live state (pending tasks, unreplayed
    letters) that no other revision can rebuild, so a down -> up round
    trip stays lossless for them."""


def _upgrade_read_indexes(connection: Connection) -> None:
    connection.executescript(_READ_INDEX_DDL)


def _downgrade_read_indexes(connection: Connection) -> None:
    connection.executescript(
        "DROP INDEX IF EXISTS _nebula_attachments_by_range;\n"
        "DROP INDEX IF EXISTS _nebula_attachment_history_by_range;\n"
        "DROP INDEX IF EXISTS _nebula_verification_tasks_by_annotation;"
    )


#: The full ordered chain every database is kept on.
MIGRATIONS: Tuple[Migration, ...] = (
    Migration(
        revision="0001",
        name="legacy-base",
        upgrade=_upgrade_legacy_base,
        downgrade=_downgrade_legacy_base,
    ),
    Migration(
        revision="0002",
        name="versioning",
        upgrade=_upgrade_versioning,
        downgrade=_downgrade_versioning,
    ),
    Migration(
        revision="0003",
        name="persistent-index",
        upgrade=_upgrade_persistent_index,
        downgrade=_downgrade_persistent_index,
    ),
    Migration(
        revision="0004",
        name="operational-tables",
        upgrade=_upgrade_operational_tables,
        downgrade=_downgrade_operational_tables,
    ),
    Migration(
        revision="0005",
        name="read-indexes",
        upgrade=_upgrade_read_indexes,
        downgrade=_downgrade_read_indexes,
    ),
)


class MigrationRunner:
    """Applies the migration chain and records it."""

    def __init__(
        self,
        connection: Connection,
        migrations: Optional[Sequence[Migration]] = None,
    ) -> None:
        self.connection = connection
        self.migrations = tuple(migrations if migrations is not None else MIGRATIONS)
        self._validate_chain()
        self.connection.executescript(REVISIONS_DDL)
        self._stamp_baseline_if_needed()

    def _validate_chain(self) -> None:
        revisions = [m.revision for m in self.migrations]
        if len(set(revisions)) != len(revisions):
            raise MigrationError("duplicate revision ids in the migration chain")
        if revisions != sorted(revisions):
            raise MigrationError("migration chain must be ordered by revision id")

    def _stamp_baseline_if_needed(self) -> None:
        """Adopt a seed-era database: tables exist, no recorded chain."""
        if self.applied():
            return
        if _table_exists(self.connection, "_nebula_annotations"):
            self._record(BASELINE_REVISION, "legacy-base (baseline stamp)")
            self.connection.commit()

    # ------------------------------------------------------------------

    def applied(self) -> List[Revision]:
        """Applied revisions, oldest first."""
        rows = self.connection.execute(
            "SELECT revision, name, applied_at FROM _nebula_schema_revisions "
            "ORDER BY revision"
        ).fetchall()
        return [Revision(str(r[0]), str(r[1]), str(r[2])) for r in rows]

    def pending(self) -> List[Migration]:
        """Chain entries not yet recorded as applied, in order."""
        done = {r.revision for r in self.applied()}
        return [m for m in self.migrations if m.revision not in done]

    def current_revision(self) -> Optional[str]:
        """The newest applied revision id, or None on a virgin database."""
        applied = self.applied()
        return applied[-1].revision if applied else None

    def status(self) -> Dict[str, object]:
        """A CLI-friendly summary of where this database stands."""
        applied = self.applied()
        return {
            "current": applied[-1].revision if applied else None,
            "applied": [
                {"revision": r.revision, "name": r.name, "applied_at": r.applied_at}
                for r in applied
            ],
            "pending": [
                {"revision": m.revision, "name": m.name} for m in self.pending()
            ],
        }

    # ------------------------------------------------------------------

    def upgrade(self, target: Optional[str] = None) -> List[str]:
        """Apply pending migrations up to ``target`` (default: all).

        Returns the revision ids applied by this call, in order.
        """
        applied_now: List[str] = []
        for migration in self.pending():
            if target is not None and migration.revision > target:
                break
            try:
                migration.upgrade(self.connection)
            except Exception as error:
                raise MigrationError(
                    f"upgrade to {migration.revision} ({migration.name}) "
                    f"failed: {error}"
                ) from error
            self._record(migration.revision, migration.name)
            applied_now.append(migration.revision)
        if applied_now:
            self.connection.commit()
        return applied_now

    def downgrade(self, target: str = BASELINE_REVISION) -> List[str]:
        """Revert applied revisions above ``target``, newest first.

        The default lands on the legacy base schema — the
        pre-versioning layout (the materialized head tables hold the
        latest state, so no annotation data is lost), beside the
        operational tables 0004 keeps.
        """
        by_revision = {m.revision: m for m in self.migrations}
        reverted: List[str] = []
        for record in reversed(self.applied()):
            if record.revision <= target:
                continue
            migration = by_revision.get(record.revision)
            if migration is None:
                raise MigrationError(
                    f"applied revision {record.revision} has no registered "
                    "migration to downgrade with"
                )
            try:
                migration.downgrade(self.connection)
            except Exception as error:
                raise MigrationError(
                    f"downgrade of {migration.revision} ({migration.name}) "
                    f"failed: {error}"
                ) from error
            self.connection.execute(
                "DELETE FROM _nebula_schema_revisions WHERE revision = ?",
                (record.revision,),
            )
            reverted.append(record.revision)
        if reverted:
            self.connection.commit()
        return reverted

    # ------------------------------------------------------------------

    def _record(self, revision: str, name: str) -> None:
        self.connection.execute(
            "INSERT INTO _nebula_schema_revisions (revision, name, applied_at) "
            "VALUES (?, ?, ?)",
            (revision, name, _utc_now()),
        )


def ensure_schema(connection: Connection) -> MigrationRunner:
    """Bring a database fully up to date; the store's init path."""
    runner = MigrationRunner(connection)
    runner.upgrade()
    return runner
