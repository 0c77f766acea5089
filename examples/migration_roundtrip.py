"""Migration round-trip smoke: legacy -> up -> parity -> down -> legacy.

Builds a seed-era (pre-versioning) annotation database, runs the
:mod:`repro.versioning.migrations` chain forward, and asserts parity
with a freshly initialized versioned database holding the same logical
content — identical schema objects (both at the newest revision with the
four operational tables), identical state fingerprints, and a head the
commit log verifies against its own history.  The service's tuple read
on the upgraded database must return every edge that applies to a row (a
legacy range edge and a table-level edge included), at the head and at
the backfill commit, as the store's row read does.  Then tears the upgraded
head and log apart in every way the parity check must see, one tear at
a time, and asserts that each reads as torn and that ``restore_head()``
heals it.  Then writes a row to each
operational table, reverts the chain and asserts the legacy layout comes
back intact (versioning objects and revision 0005's indexes gone, the
materialized latest state and the operational rows preserved), and
finally re-upgrades to prove the round trip is lossless.

Both databases are temporary files, deleted on exit.  Exits non-zero on
any violated invariant.

Run::

    PYTHONPATH=src python examples/migration_roundtrip.py
"""

import sys

from repro import SqliteFileBackend
from repro.annotations.store import AnnotationStore
from repro.versioning import (
    BASELINE_REVISION,
    CommitLog,
    MIGRATIONS,
    MigrationRunner,
    ensure_schema,
    timetravel,
)
from repro.versioning.schema import LEGACY_DDL

ANNOTATIONS = [
    (1, "curated note on the first gene", "ann", 1),
    (2, "a second, anonymous observation", None, 2),
    (3, "family-level remark", "bob", 3),
]

ATTACHMENTS = [
    (1, 1, "Gene", 1, None, None, 1.0, "true"),
    (2, 1, "Gene", 4, None, None, 0.8, "predicted"),
    (3, 2, "Gene", 2, None, "name", 1.0, "true"),
    (4, 3, "Protein", 1, 3, None, 0.6, "predicted"),
    (5, 2, "Protein", None, None, None, 1.0, "true"),
]

#: The user table the edges above point into (Gene is not read).
PROTEIN_ROWS = [("P00001",), ("P00002",), ("P00003",)]

#: Revision 0005's indexes: the partial indexes of the range edges and
#: the verification tasks by annotation.
READ_INDEXES = {
    ("index", "_nebula_attachments_by_range"),
    ("index", "_nebula_attachment_history_by_range"),
    ("index", "_nebula_verification_tasks_by_annotation"),
}

#: One row per operational table (revision 0004), kept on downgrade.
OPERATIONAL_ROWS = [
    (
        "INSERT INTO _nebula_dead_letters (content, focal_json, stage, error) "
        "VALUES (?, ?, ?, ?)",
        ("unreplayed note", '[["Gene", 1]]', "queue.triage", "boom"),
    ),
    (
        "INSERT INTO _nebula_verification_tasks (annotation_id, target_table, "
        "target_rowid, confidence, evidence, status) VALUES (?, ?, ?, ?, ?, ?)",
        (1, "Gene", 4, 0.8, "q@0", "pending"),
    ),
    ("INSERT INTO _nebula_hop_profile (hops, count) VALUES (?, ?)", (2, 5)),
    (
        "INSERT INTO _nebula_annotation_rules "
        "(annotation_id, target_table, predicate) VALUES (?, ?, ?)",
        (3, "Protein", "PType = 'kinase'"),
    ),
]

_ATTACHMENT_HISTORY_COLUMNS = (
    "attachment_id, annotation_id, target_table, target_rowid, "
    "target_rowid_hi, target_column, confidence, kind"
)

#: Torn states ``CommitLog.verify_head()`` must report, planted one at a
#: time: (name, the script that tears, the script that puts the log back
#: or None).  A head-side tear leaves the log intact, so
#: ``restore_head()`` alone gives back the pre-tear head; a log-side tear
#: is mended after its restore.
TEARS = [
    ("head annotation deleted",
     "DELETE FROM _nebula_annotations WHERE annotation_id = 2", None),
    ("head attachment deleted",
     "DELETE FROM _nebula_attachments WHERE attachment_id = 3", None),
    ("stray head annotation",
     "INSERT INTO _nebula_annotations VALUES (9, 'stray', NULL, 9)", None),
    ("stray head attachment",
     "INSERT INTO _nebula_attachments "
     "VALUES (9, 1, 'Gene', 5, NULL, NULL, 0.5, 'predicted')", None),
    ("head author NULL -> value",
     "UPDATE _nebula_annotations SET author = 'eve' WHERE annotation_id = 2",
     None),
    ("head column value -> NULL",
     "UPDATE _nebula_attachments SET target_column = NULL "
     "WHERE attachment_id = 3", None),
    ("head confidence changed",
     "UPDATE _nebula_attachments SET confidence = 0.7 WHERE attachment_id = 2",
     None),
    # The same edge under another id: equal content, torn by id.
    ("head attachment re-id",
     "UPDATE _nebula_attachments SET attachment_id = 9 WHERE attachment_id = 4",
     None),
    ("tombstone the head never applied",
     "INSERT INTO _nebula_attachment_history (commit_id, op, "
     + _ATTACHMENT_HISTORY_COLUMNS + ") "
     "SELECT (SELECT MAX(commit_id) FROM _nebula_commits), 'delete', "
     + _ATTACHMENT_HISTORY_COLUMNS + " "
     "FROM _nebula_attachments WHERE attachment_id = 1",
     "DELETE FROM _nebula_attachment_history WHERE history_id = "
     "(SELECT MAX(history_id) FROM _nebula_attachment_history)"),
    ("history version deleted",
     "CREATE TEMP TABLE torn AS SELECT * FROM _nebula_annotation_history "
     "WHERE annotation_id = 3; "
     "DELETE FROM _nebula_annotation_history WHERE annotation_id = 3",
     "INSERT INTO _nebula_annotation_history SELECT * FROM torn; "
     "DROP TABLE torn"),
]

OPERATIONAL_TABLES = (
    "_nebula_dead_letters",
    "_nebula_verification_tasks",
    "_nebula_hop_profile",
    "_nebula_annotation_rules",
)


def _seed_rows(connection):
    connection.executemany(
        "INSERT INTO _nebula_annotations VALUES (?, ?, ?, ?)", ANNOTATIONS
    )
    connection.executemany(
        "INSERT INTO _nebula_attachments VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        ATTACHMENTS,
    )


def _schema_objects(connection):
    return {
        (str(r[0]), str(r[1]))
        for r in connection.execute(
            "SELECT type, name FROM sqlite_master "
            "WHERE type IN ('table', 'view', 'index') "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchall()
        if str(r[1]).startswith("_nebula")
    }


def _operational_rows(connection):
    return {
        table: connection.execute(f"SELECT * FROM {table} ORDER BY 1").fetchall()
        for table in OPERATIONAL_TABLES
    }


def _store_row_read(store, table, rowid, as_of):
    """The store's row read joined with content, in the service's order."""
    edges = sorted(
        store.attachments_on(table, rowid, as_of=as_of),
        key=lambda a: (-a.confidence, a.annotation_id, a.attachment_id),
    )
    return [
        (
            a.annotation_id,
            store.get_annotation(a.annotation_id, as_of=as_of).content,
            a.confidence,
            a.kind.value,
        )
        for a in edges
    ]


def _fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    legacy_backend = SqliteFileBackend.temporary()
    fresh_backend = SqliteFileBackend.temporary()
    try:
        # --- the seed-era world -------------------------------------
        legacy = legacy_backend.primary
        legacy.executescript(LEGACY_DDL)
        legacy.execute("CREATE TABLE Protein (PID TEXT NOT NULL)")
        legacy.executemany("INSERT INTO Protein VALUES (?)", PROTEIN_ROWS)
        _seed_rows(legacy)
        runner = MigrationRunner(legacy)
        if runner.current_revision() != BASELINE_REVISION:
            return _fail("legacy database not baseline-stamped")

        # --- upgrade ------------------------------------------------
        applied = runner.upgrade()
        legacy.commit()
        expected = [m.revision for m in MIGRATIONS[1:]]
        if applied != expected:
            return _fail(f"applied {applied}, expected {expected}")
        newest = MIGRATIONS[-1].revision
        if runner.current_revision() != newest:
            return _fail(f"upgraded legacy database at {runner.current_revision()}")
        missing = set(OPERATIONAL_TABLES) - {n for _, n in _schema_objects(legacy)}
        if missing:
            return _fail(f"upgraded legacy database lacks {sorted(missing)}")
        log = CommitLog(legacy)
        if not log.verify_head():
            return _fail("head/log parity does not hold after upgrade")
        backfill = log.commits()[-1]
        if backfill.kind != "migrate":
            return _fail(f"backfill commit kind {backfill.kind!r}")

        # --- the service's tuple read: every edge that applies ------
        # (timetravel.annotations_on_row is AnnotationService.annotations_for's
        # statement).  Protein 2 lies in legacy range edge 4 (annotation 3);
        # table-level edge 5 (annotation 2) applies to every Protein row.
        if not READ_INDEXES <= _schema_objects(legacy):
            return _fail("upgraded database lacks revision 0005's indexes")
        store = AnnotationStore(legacy)
        for as_of in (None, backfill.commit_id):
            for rowid in range(1, len(PROTEIN_ROWS) + 1):
                read = timetravel.annotations_on_row(legacy, "Protein", rowid, as_of)
                if read != _store_row_read(store, "Protein", rowid, as_of):
                    return _fail(f"tuple read of Protein {rowid}@{as_of}: {read}")
                if 2 not in {row[0] for row in read}:
                    return _fail(f"table-level edge misses Protein {rowid}@{as_of}")
            read = timetravel.annotations_on_row(legacy, "Protein", 2, as_of)
            if 3 not in {row[0] for row in read}:
                return _fail(f"range edge misses Protein 2@{as_of}: {read}")

        # --- every tear reads as torn, and restore_head() heals it ----
        healthy = timetravel.head_fingerprint(legacy)
        for name, tear, mend in TEARS:
            legacy.executescript(tear)
            if log.verify_head():
                return _fail(f"head/log parity holds on a torn state: {name}")
            log.restore_head()
            if not log.verify_head():
                return _fail(f"restore_head() left the state torn: {name}")
            if mend is not None:
                legacy.executescript(mend)
                log.restore_head()
            if not log.verify_head() or timetravel.head_fingerprint(legacy) != healthy:
                return _fail(f"the head did not come back after: {name}")

        # --- parity with a fresh versioned init ---------------------
        fresh = fresh_backend.primary
        if ensure_schema(fresh).current_revision() != newest:
            return _fail("fresh init did not reach the newest revision")
        _seed_rows(fresh)
        fresh_log = CommitLog(fresh)
        with fresh_log.commit_scope("migrate", note="smoke backfill"):
            fresh_log.record_annotation_range(1, len(ANNOTATIONS))
            fresh_log.record_attachments_above(0)
        if _schema_objects(legacy) != _schema_objects(fresh):
            return _fail("upgraded schema differs from fresh init")
        if timetravel.state_fingerprint(legacy) != timetravel.state_fingerprint(fresh):
            return _fail("upgraded state differs from fresh init")
        pinned = timetravel.count_annotations(legacy, backfill.commit_id)
        if pinned != len(ANNOTATIONS):
            return _fail(f"as_of backfill sees {pinned} annotations")

        # --- downgrade ----------------------------------------------
        for sql, params in OPERATIONAL_ROWS:
            legacy.execute(sql, params)
        legacy.commit()
        operational = _operational_rows(legacy)
        if any(len(rows) != 1 for rows in operational.values()):
            return _fail(f"operational rows not written: {operational}")
        upgraded_head = timetravel.head_fingerprint(legacy)
        reverted = runner.downgrade()
        legacy.commit()
        if reverted != list(reversed(expected)):
            return _fail(f"reverted {reverted}")
        if runner.current_revision() != BASELINE_REVISION:
            return _fail("downgrade did not land on the baseline")
        names = {name for _, name in _schema_objects(legacy)}
        leaked = names & {
            "_nebula_commits",
            "_nebula_annotation_history",
            "_nebula_attachment_history",
        }
        if leaked:
            return _fail(f"versioning objects survived the downgrade: {leaked}")
        if READ_INDEXES & _schema_objects(legacy):
            return _fail("an index of revision 0005 survived the downgrade")
        if timetravel.head_fingerprint(legacy) != upgraded_head:
            return _fail("latest state lost by the downgrade")
        if _operational_rows(legacy) != operational:
            return _fail("operational rows lost by the downgrade")

        # --- and back up: the round trip is lossless ----------------
        runner.upgrade()
        legacy.commit()
        if timetravel.head_fingerprint(legacy) != upgraded_head:
            return _fail("re-upgrade changed the latest state")
        if _operational_rows(legacy) != operational:
            return _fail("re-upgrade changed the operational rows")
        if runner.current_revision() != newest:
            return _fail(f"re-upgrade stopped at {runner.current_revision()}")
        if not READ_INDEXES <= _schema_objects(legacy):
            return _fail("re-upgrade did not restore revision 0005's indexes")
        if not CommitLog(legacy).verify_head():
            return _fail("head/log parity does not hold after re-upgrade")

        print(
            "migration roundtrip ok: "
            f"engine={legacy_backend.name} "
            f"chain={[m.revision for m in MIGRATIONS]} "
            f"annotations={len(ANNOTATIONS)} attachments={len(ATTACHMENTS)} "
            f"tears={len(TEARS)}"
        )
        return 0
    finally:
        legacy_backend.close()
        fresh_backend.close()


if __name__ == "__main__":
    sys.exit(main())
