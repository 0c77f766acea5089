"""Disk-resident, incrementally-maintained inverted value index.

The in-memory :class:`~repro.search.index.InvertedValueIndex` is rebuilt
from scratch on every engine open — a full scan of every searchable
column, which is the cold-start cost that caps service startup time and
the memory that caps database size (EMBANKS-style disk-based keyword
indexes are the standard answer).  This module keeps the very same index
in two backend tables instead:

``_nebula_index_postings``
    One row per posting: ``(token, tbl, col, row_id)`` plus a
    monotonically increasing ``posting_id`` that preserves build
    insertion order, so lazily loaded pages reproduce the in-memory
    index's first-seen ordering exactly (the mapper's value-evidence
    aggregation iterates it).

``_nebula_index_stats``
    Small key-value rows ``(kind, tbl, col) -> value``: the persisted
    ``generation`` counter and schema version (``kind='meta'``), the
    per-column indexed-row counts (``kind='column'``), and per-column
    *staleness stamps* (``kind='stamp_count'`` / ``'stamp_maxrow'``):
    the ``COUNT(*)`` of non-null values and ``MAX(rowid)`` of each
    indexed column at persist time.  An open revalidates the stamps
    against the live data; any mismatch (rows bulk-loaded behind the
    index's back, deletions, a changed searchable-column set) falls
    back to rebuild-and-persist.

:class:`PersistentValueIndex` satisfies the full
:class:`~repro.search.index.InvertedValueIndex` interface.  Postings are
fetched **per token** on first lookup and cached in a bounded
:class:`~repro.perf.pagecache.LruPageCache`, so a valid persisted index
opens in O(#columns) stamp probes instead of O(#rows) — and the resident
set is the working set of hot tokens, not the whole index.  Incremental
maintenance (``add_row``, the editor's ingestion hook) writes the
posting, counts, stamps, and generation inside the caller's open
transaction, so a rolled-back ingestion rolls the index back with it.

Every identifier interpolated into SQL goes through
:func:`~repro.utils.sql.quote_identifier`; the ``_nebula_*`` table names
are fixed literals, mirroring :mod:`repro.annotations.store`.
"""

from __future__ import annotations

from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from ..observability.metrics import MetricsRegistry
from ..observability.tracing import NOOP_TRACER, TracerLike
from ..perf.pagecache import LruPageCache
from ..perf.cache import MISS
from ..storage.compat import Connection
from ..utils.sql import quote_identifier
from ..utils.tokenize import normalize_word
from .index import _EMPTY, InvertedValueIndex, Posting

#: Bump when the persisted layout changes; a mismatch forces a rebuild.
SCHEMA_VERSION = 1

_DDL = """
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


def ensure_schema(connection: Connection) -> None:
    """Create the index tables when absent (idempotent)."""
    connection.executescript(_DDL)


def _column_key(table: str, column: str) -> Tuple[str, str]:
    return (table.casefold(), column.casefold())


def _dedup_columns(
    columns: Iterable[Tuple[str, str]]
) -> List[Tuple[str, str]]:
    """Original-case column pairs, first occurrence wins (casefolded)."""
    seen: set = set()
    ordered: List[Tuple[str, str]] = []
    for table, column in columns:
        key = _column_key(table, column)
        if key not in seen:
            seen.add(key)
            ordered.append((table, column))
    return ordered


def _live_stamp(
    connection: Connection, table: str, column: str
) -> Tuple[int, int]:
    """``(COUNT(*) non-null, MAX(rowid))`` of one indexed column, live."""
    row = connection.execute(
        f"SELECT COUNT(*), COALESCE(MAX(rowid), 0) "
        f"FROM {quote_identifier(table)} "
        f"WHERE {quote_identifier(column)} IS NOT NULL"
    ).fetchone()
    return int(row[0]), int(row[1])


class _TokenPage:
    """One token's decoded posting list plus its derived lookups."""

    __slots__ = ("postings", "by_table", "by_column", "counts", "surface_counts")

    def __init__(self, rows: Sequence[Tuple[str, str, int]]) -> None:
        postings: List[Posting] = []
        by_table: Dict[str, List[Posting]] = {}
        by_column: Dict[Tuple[str, str], List[Posting]] = {}
        counts: Dict[Tuple[str, str], int] = {}
        surface: Dict[Tuple[str, str], int] = {}
        for table, column, rowid in rows:
            posting = Posting(table=table, column=column, rowid=int(rowid))
            postings.append(posting)
            table_key = table.casefold()
            column_key = column.casefold()
            by_table.setdefault(table_key, []).append(posting)
            by_column.setdefault((table_key, column_key), []).append(posting)
            counts[(table_key, column_key)] = (
                counts.get((table_key, column_key), 0) + 1
            )
            surface[(table, column)] = surface.get((table, column), 0) + 1
        self.postings: Tuple[Posting, ...] = tuple(postings)
        self.by_table: Dict[str, Tuple[Posting, ...]] = {
            key: tuple(bucket) for key, bucket in by_table.items()
        }
        self.by_column: Dict[Tuple[str, str], Tuple[Posting, ...]] = {
            key: tuple(bucket) for key, bucket in by_column.items()
        }
        self.counts = counts
        self.surface_counts = surface


class PersistentValueIndex(InvertedValueIndex):
    """The inverted value index served from backend tables.

    Satisfies the whole in-memory interface; posting lists live on disk
    and materialize lazily per token through a bounded LRU page cache.
    Construction does not touch the tables — use :meth:`open` (validate,
    then lazy-load or rebuild-and-persist) or :meth:`rebuild`.
    """

    #: Capacity of the posting-page cache, in tokens.
    PAGE_CACHE_SIZE: ClassVar[int] = 4096

    def __init__(
        self,
        connection: Connection,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__()
        self.connection = connection
        self._pages: LruPageCache[str, _TokenPage] = LruPageCache(
            self.PAGE_CACHE_SIZE, metrics=metrics
        )
        #: Mirror of the ``stamp_*`` stats rows, kept for O(1) stamp
        #: maintenance on the incremental write path.
        self._stamps: Dict[Tuple[str, str, str], int] = {}

    # ------------------------------------------------------------------
    # Open protocol
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        connection: Connection,
        columns: Iterable[Tuple[str, str]],
        metrics: Optional[MetricsRegistry] = None,
        tracer: TracerLike = NOOP_TRACER,
    ) -> Tuple["PersistentValueIndex", str]:
        """Open the persisted index over ``columns``.

        Returns ``(index, source)`` where ``source`` is ``"loaded"``
        when a valid persisted image was adopted without reading a
        single posting, or ``"rebuilt"`` when the image was absent or
        stale and a fresh build was persisted (and committed).
        """
        requested = _dedup_columns(columns)
        ensure_schema(connection)
        index = cls(connection, metrics=metrics)
        with tracer.span("index.load") as span:
            loaded = index._load_if_valid(requested)
            span.set_attribute("valid", loaded)
            span.set_attribute("columns", len(requested))
        if loaded:
            return index, "loaded"
        with tracer.span("index.build") as span:
            index._rebuild(requested)
            # The rebuild must survive the caller never committing (a
            # read-only CLI command) and the service's startup rollback;
            # the manager's ``executescript`` has already folded any
            # pending caller transaction at engine-construction time, so
            # this commit finalizes only index writes.
            connection.commit()
            span.set_attribute("columns", len(requested))
        return index, "rebuilt"

    def _stored_stats(self) -> Dict[Tuple[str, str, str], int]:
        return {
            (str(kind), str(tbl), str(col)): int(value)
            for kind, tbl, col, value in self.connection.execute(
                "SELECT kind, tbl, col, value FROM _nebula_index_stats"
            )
        }

    def _load_if_valid(self, columns: Sequence[Tuple[str, str]]) -> bool:
        """Adopt the persisted image when its stamps match the live data."""
        stats = self._stored_stats()
        if stats.get(("meta", "schema_version", "")) != SCHEMA_VERSION:
            return False
        stored_columns = {
            (tbl, col)
            for kind, tbl, col in stats
            if kind == "column"
        }
        requested = {_column_key(t, c) for t, c in columns}
        if stored_columns != requested:
            return False
        for table, column in columns:
            tkey, ckey = _column_key(table, column)
            count, max_rowid = _live_stamp(self.connection, table, column)
            if stats.get(("stamp_count", tkey, ckey)) != count:
                return False
            if stats.get(("stamp_maxrow", tkey, ckey)) != max_rowid:
                return False
        self._generation = stats.get(("meta", "generation", ""), 0)
        self._columns = set(requested)
        self._value_counts = {
            (tbl, col): value
            for (kind, tbl, col), value in stats.items()
            if kind == "column"
        }
        self._stamps = {
            key: value
            for key, value in stats.items()
            if key[0] in ("stamp_count", "stamp_maxrow")
        }
        return True

    def _rebuild(self, columns: Sequence[Tuple[str, str]]) -> None:
        """Discard any persisted image and rebuild + persist from data."""
        generation = self._generation + 1
        self.connection.execute("DELETE FROM _nebula_index_postings")
        self.connection.execute("DELETE FROM _nebula_index_stats")
        self._columns = set()
        self._value_counts = {}
        self._stamps = {}
        self._pages.clear()
        self._generation = generation
        for table, column in columns:
            key = _column_key(table, column)
            self._columns.add(key)
            count = self._persist_column(table, column)
            self._value_counts[key] = count
            self._set_stat("column", key[0], key[1], count)
            self._stamp_from_data(table, column)
        self._set_stat("meta", "schema_version", "", SCHEMA_VERSION)
        self._set_stat("meta", "generation", "", self._generation)
        # Provenance: which commit of the append-only annotation log this
        # image was persisted at (0 when the log table is absent — the
        # index can run standalone on an unmigrated database).
        self._set_stat("meta", "commit", "", self._commit_head())

    def rebuild(self, columns: Iterable[Tuple[str, str]]) -> None:
        """Force a rebuild-and-persist (plus commit) regardless of stamps.

        ``repro index build`` calls this for explicit management; normal
        opens go through :meth:`open`, which rebuilds only when stale.
        """
        self._rebuild(_dedup_columns(columns))
        self.connection.commit()

    def refresh(self, columns: Iterable[Tuple[str, str]]) -> bool:
        """Revalidate the stamps; rebuild, persist and commit when stale.

        Returns True when a rebuild ran.  The service's startup recovery
        calls this (through ``Nebula.ensure_index_fresh``) before going
        ready, so data loaded behind the index's back — ``repro.datagen``
        bulk inserts, deletions, restored backups — cannot serve stale
        search results.
        """
        requested = _dedup_columns(columns)
        if self._load_if_valid(requested):
            return False
        self._rebuild(requested)
        self.connection.commit()
        return True

    def _persist_column(self, table: str, column: str) -> int:
        """Scan one column into the postings table; rows indexed."""
        cursor = self.connection.execute(
            f"SELECT rowid, {quote_identifier(column)} "
            f"FROM {quote_identifier(table)} "
            f"WHERE {quote_identifier(column)} IS NOT NULL"
        )
        rows: List[Tuple[str, str, str, int]] = []
        for rowid, value in cursor:
            token = normalize_word(str(value))
            if not token:
                continue
            rows.append((token, table, column, int(rowid)))
        if rows:
            self.connection.executemany(
                "INSERT INTO _nebula_index_postings (token, tbl, col, row_id) "
                "VALUES (?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def _set_stat(self, kind: str, tbl: str, col: str, value: int) -> None:
        self.connection.execute(
            "INSERT INTO _nebula_index_stats (kind, tbl, col, value) "
            "VALUES (?, ?, ?, ?) "
            "ON CONFLICT (kind, tbl, col) DO UPDATE SET value = excluded.value",
            (kind, tbl, col, int(value)),
        )

    def _commit_head(self) -> int:
        """Newest annotation-log commit id; 0 when the log is absent."""
        try:
            row = self.connection.execute(
                "SELECT COALESCE(MAX(commit_id), 0) FROM _nebula_commits"
            ).fetchone()
        except Exception:
            return 0
        return int(row[0])

    def _stamp_from_data(self, table: str, column: str) -> None:
        """Recompute + persist one column's staleness stamps from data."""
        tkey, ckey = _column_key(table, column)
        count, max_rowid = _live_stamp(self.connection, table, column)
        self._stamps[("stamp_count", tkey, ckey)] = count
        self._stamps[("stamp_maxrow", tkey, ckey)] = max_rowid
        self._set_stat("stamp_count", tkey, ckey, count)
        self._set_stat("stamp_maxrow", tkey, ckey, max_rowid)

    # ------------------------------------------------------------------
    # Construction interface (InvertedValueIndex parity)
    # ------------------------------------------------------------------

    def add_column(self, connection: Connection, table: str, column: str) -> int:
        """Index one more column incrementally, persisting its postings."""
        key = _column_key(table, column)
        if key in self._columns:
            return 0
        self._columns.add(key)
        self._generation += 1
        count = self._persist_column(table, column)
        self._value_counts[key] = self._value_counts.get(key, 0) + count
        self._set_stat("column", key[0], key[1], self._value_counts[key])
        self._stamp_from_data(table, column)
        self._set_stat("meta", "generation", "", self._generation)
        # New postings may belong to already-cached tokens.
        self._pages.clear()
        return count

    def add_row(self, table: str, column: str, rowid: int, value: str) -> None:
        """Incrementally index one newly inserted value.

        Runs inside the caller's open transaction (the editor calls this
        right after inserting the data row), so a rollback reverts the
        posting, the counts, the stamps, and the persisted generation
        together with the data change.
        """
        key = _column_key(table, column)
        self._columns.add(key)
        token = normalize_word(str(value))
        if not token:
            return
        self._generation += 1
        self.connection.execute(
            "INSERT INTO _nebula_index_postings (token, tbl, col, row_id) "
            "VALUES (?, ?, ?, ?)",
            (token, table, column, int(rowid)),
        )
        self._value_counts[key] = self._value_counts.get(key, 0) + 1
        self._set_stat("column", key[0], key[1], self._value_counts[key])
        count_key = ("stamp_count", key[0], key[1])
        maxrow_key = ("stamp_maxrow", key[0], key[1])
        self._stamps[count_key] = self._stamps.get(count_key, 0) + 1
        self._stamps[maxrow_key] = max(self._stamps.get(maxrow_key, 0), int(rowid))
        self._set_stat(*count_key, self._stamps[count_key])
        self._set_stat(*maxrow_key, self._stamps[maxrow_key])
        self._set_stat("meta", "generation", "", self._generation)
        self._pages.invalidate(token)

    # ------------------------------------------------------------------
    # Lookup (lazy, page-cached)
    # ------------------------------------------------------------------

    def _page(self, token: str) -> _TokenPage:
        cached = self._pages.get(token)
        if cached is not MISS:
            return cached  # type: ignore[return-value]
        rows = self.connection.execute(
            "SELECT tbl, col, row_id FROM _nebula_index_postings "
            "WHERE token = ? ORDER BY posting_id",
            (token,),
        ).fetchall()
        page = _TokenPage(rows)
        self._pages.put(token, page)
        return page

    def lookup(self, word: str) -> Tuple[Posting, ...]:
        token = normalize_word(word)
        if not token:
            return _EMPTY
        return self._page(token).postings

    def lookup_in(
        self, word: str, table: str, column: Optional[str] = None
    ) -> Tuple[Posting, ...]:
        token = normalize_word(word)
        if not token:
            return _EMPTY
        page = self._page(token)
        if column is None:
            bucket = page.by_table.get(table.casefold())
        else:
            bucket = page.by_column.get((table.casefold(), column.casefold()))
        return bucket if bucket is not None else _EMPTY

    def document_frequency(self, word: str) -> int:
        token = normalize_word(word)
        if not token:
            return 0
        return len(self._page(token).postings)

    def match_count(self, word: str, table: str, column: str) -> int:
        token = normalize_word(word)
        if not token:
            return 0
        return self._page(token).counts.get(
            (table.casefold(), column.casefold()), 0
        )

    def column_counts(self, word: str) -> Dict[Tuple[str, str], int]:
        token = normalize_word(word)
        if not token:
            return {}
        return dict(self._page(token).surface_counts)

    def __len__(self) -> int:
        row = self.connection.execute(
            "SELECT COUNT(DISTINCT token) FROM _nebula_index_postings"
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # Introspection / verification
    # ------------------------------------------------------------------

    def posting_count(self) -> int:
        row = self.connection.execute(
            "SELECT COUNT(*) FROM _nebula_index_postings"
        ).fetchone()
        return int(row[0])

    def describe(self) -> Dict[str, object]:
        """Status document for ``repro index status`` and tests."""
        persisted_at = self.connection.execute(
            "SELECT value FROM _nebula_index_stats "
            "WHERE kind = 'meta' AND tbl = 'commit'"
        ).fetchone()
        return {
            "schema_version": SCHEMA_VERSION,
            "generation": self.generation,
            "persisted_at_commit": 0 if persisted_at is None else int(persisted_at[0]),
            "columns": sorted(self._columns),
            "tokens": len(self),
            "postings": self.posting_count(),
            "page_cache": {
                "pages": len(self._pages),
                "capacity": self._pages.capacity,
                "hits": self._pages.stats.hits,
                "misses": self._pages.stats.misses,
            },
        }

    def parity_mismatches(
        self, reference: InvertedValueIndex, sample: Optional[int] = None
    ) -> List[str]:
        """Differences vs an in-memory reference index (empty = equal).

        Compares the distinct-token count, then every persisted token's
        postings, per-column counts, and surface aggregation against the
        reference (``sample`` bounds the number of tokens checked).
        """
        problems: List[str] = []
        if len(self) != len(reference):
            problems.append(
                f"distinct tokens differ: persisted={len(self)} "
                f"memory={len(reference)}"
            )
        cursor = self.connection.execute(
            "SELECT DISTINCT token FROM _nebula_index_postings ORDER BY token"
        )
        for checked, (token,) in enumerate(cursor):
            if sample is not None and checked >= sample:
                break
            if self.lookup(token) != reference.lookup(token):
                problems.append(f"postings differ for token {token!r}")
            elif self.column_counts(token) != reference.column_counts(token):
                problems.append(f"column counts differ for token {token!r}")
            if len(problems) >= 20:
                problems.append("... (truncated)")
                break
        if self.indexed_columns != reference.indexed_columns:
            problems.append("indexed column sets differ")
        return problems
