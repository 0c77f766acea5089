"""Migration round-trip smoke: legacy -> up -> parity -> down -> legacy.

Builds a seed-era (pre-versioning) annotation database, runs the
:mod:`repro.versioning.migrations` chain forward, and asserts parity
with a freshly initialized versioned database holding the same logical
content — identical schema objects, identical state fingerprints, and a
head the commit log verifies against its own history.  Then reverts the
chain and asserts the legacy layout comes back intact (versioning
objects gone, the materialized latest state preserved), and finally
re-upgrades to prove the round trip is lossless.

Both databases are temporary files, deleted on exit.  Exits non-zero on
any violated invariant.

Run::

    PYTHONPATH=src python examples/migration_roundtrip.py
"""

import sys

from repro import SqliteFileBackend
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
]


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
        log = CommitLog(legacy)
        if not log.verify_head():
            return _fail("head/log parity does not hold after upgrade")
        backfill = log.commits()[-1]
        if backfill.kind != "migrate":
            return _fail(f"backfill commit kind {backfill.kind!r}")

        # --- parity with a fresh versioned init ---------------------
        fresh = fresh_backend.primary
        ensure_schema(fresh)
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
        if timetravel.head_fingerprint(legacy) != upgraded_head:
            return _fail("latest state lost by the downgrade")

        # --- and back up: the round trip is lossless ----------------
        runner.upgrade()
        legacy.commit()
        if timetravel.head_fingerprint(legacy) != upgraded_head:
            return _fail("re-upgrade changed the latest state")
        if not CommitLog(legacy).verify_head():
            return _fail("head/log parity does not hold after re-upgrade")

        print(
            "migration roundtrip ok: "
            f"engine={legacy_backend.name} "
            f"chain={[m.revision for m in MIGRATIONS]} "
            f"annotations={len(ANNOTATIONS)} attachments={len(ATTACHMENTS)}"
        )
        return 0
    finally:
        legacy_backend.close()
        fresh_backend.close()


if __name__ == "__main__":
    sys.exit(main())
