"""DDL of the append-only versioning layer.

Three commit-log tables ride alongside the materialized annotation
tables (Ontologia's ``commits`` + ``entity_history`` pattern):

``_nebula_commits``
    One row per logical write — an ingestion, a batch, an expert
    verify/reject, a dead-letter replay, or a migration backfill.
    ``commit_id`` is monotonically increasing (AUTOINCREMENT) under the
    single writer, and each row carries the provenance the service
    layer already tracks: author, ``request_id``, and a timestamp.

``_nebula_annotation_history`` / ``_nebula_attachment_history``
    One row per *version* of an annotation / attachment: the full
    column set of the entity at that version plus the ``commit_id``
    that produced it and the operation (``insert`` / ``update`` /
    ``delete``).  History rows are only ever appended — the lint rule
    NBL013 forbids UPDATE/DELETE against versioned tables outside this
    package.

The materialized tables (``_nebula_annotations`` /
``_nebula_attachments``) remain the head of the log: every mutation
appends the matching history row inside the same SAVEPOINT, so the two
representations cannot diverge under rollback.  The
``*_current`` views recompute the head purely from history (latest
``history_id`` per entity, tombstones excluded); recovery's
``restore_head`` replays them into the head, and they are the
reference for migration parity and the property tests.  The
recovery check itself (``CommitLog.verify_head``) reads no view: it
compares each entity's latest version with its head row by id.  The
whole-state ``as_of`` reads in :mod:`repro.versioning.timetravel` are
the same query with a ``commit_id <= ?`` pin; the entity-addressed ones
(one annotation, one tuple, one row's edges) search the history through
``_nebula_attachment_history_by_target``, the partial
``…_by_range`` index of revision 0005 and the two ``…_by_entity``
indexes instead, so their cost follows the entity's history, not the
log's.
"""

from __future__ import annotations

from typing import Tuple

#: Tables whose mutations must flow through the commit log (NBL013 scope).
VERSIONED_TABLES: Tuple[str, ...] = ("_nebula_annotations", "_nebula_attachments")

#: Commit kinds recorded in ``_nebula_commits.kind``.
COMMIT_KINDS: Tuple[str, ...] = (
    "ingest",   # one annotation through the pipeline
    "batch",    # one batched ingestion (insert_annotations)
    "verify",   # expert VERIFY ATTACHMENT
    "reject",   # expert REJECT ATTACHMENT
    "replay",   # dead-letter reprocessing
    "migrate",  # schema-migration backfill
    "auto",     # implicit single-operation commit (direct store use)
)

#: The commit log + history tables + current-version views.
VERSIONING_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_commits (
    commit_id  INTEGER PRIMARY KEY AUTOINCREMENT,
    kind       TEXT NOT NULL CHECK (kind IN
        ('ingest', 'batch', 'verify', 'reject', 'replay', 'migrate', 'auto')),
    author     TEXT,
    request_id TEXT,
    note       TEXT,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS _nebula_annotation_history (
    history_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    commit_id     INTEGER NOT NULL REFERENCES _nebula_commits(commit_id),
    annotation_id INTEGER NOT NULL,
    op            TEXT NOT NULL CHECK (op IN ('insert', 'update', 'delete')),
    content       TEXT,
    author        TEXT,
    created_seq   INTEGER
);
CREATE INDEX IF NOT EXISTS _nebula_annotation_history_by_entity
    ON _nebula_annotation_history (annotation_id, commit_id);
CREATE INDEX IF NOT EXISTS _nebula_annotation_history_by_commit
    ON _nebula_annotation_history (commit_id);
CREATE TABLE IF NOT EXISTS _nebula_attachment_history (
    history_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    commit_id       INTEGER NOT NULL REFERENCES _nebula_commits(commit_id),
    attachment_id   INTEGER NOT NULL,
    op              TEXT NOT NULL CHECK (op IN ('insert', 'update', 'delete')),
    annotation_id   INTEGER,
    target_table    TEXT,
    target_rowid    INTEGER,
    target_rowid_hi INTEGER,
    target_column   TEXT,
    confidence      REAL,
    kind            TEXT
);
CREATE INDEX IF NOT EXISTS _nebula_attachment_history_by_entity
    ON _nebula_attachment_history (attachment_id, commit_id);
CREATE INDEX IF NOT EXISTS _nebula_attachment_history_by_commit
    ON _nebula_attachment_history (commit_id);
CREATE INDEX IF NOT EXISTS _nebula_attachment_history_by_target
    ON _nebula_attachment_history (target_table, target_rowid);
CREATE VIEW IF NOT EXISTS _nebula_annotations_current AS
    SELECT h.annotation_id AS annotation_id,
           h.content       AS content,
           h.author        AS author,
           h.created_seq   AS created_seq
    FROM _nebula_annotation_history AS h
    JOIN (
        SELECT annotation_id, MAX(history_id) AS history_id
        FROM _nebula_annotation_history
        GROUP BY annotation_id
    ) AS latest ON h.history_id = latest.history_id
    WHERE h.op <> 'delete';
CREATE VIEW IF NOT EXISTS _nebula_attachments_current AS
    SELECT h.attachment_id   AS attachment_id,
           h.annotation_id   AS annotation_id,
           h.target_table    AS target_table,
           h.target_rowid    AS target_rowid,
           h.target_rowid_hi AS target_rowid_hi,
           h.target_column   AS target_column,
           h.confidence      AS confidence,
           h.kind            AS kind
    FROM _nebula_attachment_history AS h
    JOIN (
        SELECT attachment_id, MAX(history_id) AS history_id
        FROM _nebula_attachment_history
        GROUP BY attachment_id
    ) AS latest ON h.history_id = latest.history_id
    WHERE h.op <> 'delete';
"""

#: Objects created by :data:`VERSIONING_DDL`, in drop-safe order
#: (views before tables) — the versioning downgrade walks this list.
VERSIONING_OBJECTS: Tuple[Tuple[str, str], ...] = (
    ("view", "_nebula_annotations_current"),
    ("view", "_nebula_attachments_current"),
    ("table", "_nebula_annotation_history"),
    ("table", "_nebula_attachment_history"),
    ("table", "_nebula_commits"),
)

#: The seed-era (pre-versioning) annotation schema — the legacy base
#: every database starts from; owned by migration 0001.
LEGACY_DDL = """
CREATE TABLE IF NOT EXISTS _nebula_annotations (
    annotation_id INTEGER PRIMARY KEY,
    content       TEXT NOT NULL,
    author        TEXT,
    created_seq   INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS _nebula_attachments (
    attachment_id   INTEGER PRIMARY KEY,
    annotation_id   INTEGER NOT NULL REFERENCES _nebula_annotations(annotation_id),
    target_table    TEXT NOT NULL,
    target_rowid    INTEGER,
    target_rowid_hi INTEGER,
    target_column   TEXT,
    confidence      REAL NOT NULL,
    kind            TEXT NOT NULL CHECK (kind IN ('true', 'predicted')),
    UNIQUE (annotation_id, target_table, target_rowid, target_rowid_hi, target_column)
);
CREATE INDEX IF NOT EXISTS _nebula_attachments_by_target
    ON _nebula_attachments (target_table, target_rowid);
CREATE INDEX IF NOT EXISTS _nebula_attachments_by_annotation
    ON _nebula_attachments (annotation_id);
"""
