"""Units for the ``repro.perf`` package and the hot-path data structures.

Covers the versioned :class:`AnalysisCache` (LRU + generation
invalidation), the precomputed count structures of the inverted value
index, the mapper's per-query keyword dedup, the meta-repository memos,
and the bulk Stage-0 store path.
"""

from __future__ import annotations

import pytest

from repro import ConceptRef, Lexicon, NebulaConfig
from repro.annotations.engine import AnnotationManager
from repro.errors import StorageError
from repro.meta.repository import NebulaMeta
from repro.observability import MetricsRegistry
from repro.perf import MISS, AnalysisCache, AnnotationRequest, coerce_request
from repro.search.index import InvertedValueIndex
from repro.search.metadata import SchemaGraph
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


# ----------------------------------------------------------------------
# AnalysisCache
# ----------------------------------------------------------------------


class TestAnalysisCache:
    def test_round_trip_and_stats(self):
        cache = AnalysisCache(max_entries=8)
        assert cache.get("ns", "k", 0) is MISS
        cache.put("ns", "k", 0, ("v",))
        assert cache.get("ns", "k", 0) == ("v",)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.snapshot()["entries"] == 1

    def test_namespaces_do_not_collide(self):
        cache = AnalysisCache(max_entries=8)
        cache.put("a", "k", 0, "from-a")
        cache.put("b", "k", 0, "from-b")
        assert cache.get("a", "k", 0) == "from-a"
        assert cache.get("b", "k", 0) == "from-b"

    def test_stale_generation_is_invalidated(self):
        cache = AnalysisCache(max_entries=8)
        cache.put("ns", "k", 1, "old")
        assert cache.get("ns", "k", 2) is MISS
        assert cache.stats.invalidations == 1
        # The stale entry is gone — even the old generation misses now.
        assert cache.get("ns", "k", 1) is MISS

    def test_tuple_generations_are_supported(self):
        cache = AnalysisCache(max_entries=8)
        cache.put("ns", "k", (3, 7), "v")
        assert cache.get("ns", "k", (3, 7)) == "v"
        assert cache.get("ns", "k", (3, 8)) is MISS

    def test_lru_eviction(self):
        cache = AnalysisCache(max_entries=2)
        cache.put("ns", "a", 0, 1)
        cache.put("ns", "b", 0, 2)
        assert cache.get("ns", "a", 0) == 1  # refresh "a"
        cache.put("ns", "c", 0, 3)  # evicts "b"
        assert cache.get("ns", "b", 0) is MISS
        assert cache.get("ns", "a", 0) == 1
        assert cache.stats.evictions == 1

    def test_eviction_is_exported(self):
        registry = MetricsRegistry()
        cache = AnalysisCache(max_entries=1, metrics=registry)
        cache.put("ns", "a", 0, 1)
        assert registry.counter("nebula_analysis_cache_evictions_total").value == 0
        cache.put("ns", "b", 0, 2)  # evicts "a"
        assert registry.counter("nebula_analysis_cache_evictions_total").value == 1
        assert cache.stats.evictions == 1

    def test_default_holds_a_long_stream_vocabulary(self):
        """Both per-word memos default to one capacity that holds the
        ~3,200 distinct words an annotate-long stream settles at: a second
        pass over them hits every time."""
        meta = NebulaMeta()
        assert NebulaConfig().analysis_cache_size == meta._cache.max_entries
        cache = AnalysisCache(NebulaConfig().analysis_cache_size)
        words = [f"word{i}" for i in range(3200)]
        for _ in range(2):
            for word in words:
                if cache.get("mapper.keyword", word, 0) is MISS:
                    cache.put("mapper.keyword", word, 0, (word,))
        assert cache.stats.evictions == 0
        assert cache.stats.hits == len(words)

    def test_zero_capacity_disables(self):
        cache = AnalysisCache(max_entries=0)
        assert cache.enabled is False
        cache.put("ns", "k", 0, "v")
        assert cache.get("ns", "k", 0) is MISS
        assert len(cache) == 0

    def test_cached_falsy_values_hit(self):
        cache = AnalysisCache(max_entries=8)
        cache.put("ns", "k", 0, ())
        assert cache.get("ns", "k", 0) == ()
        assert cache.stats.hits == 1


# ----------------------------------------------------------------------
# Inverted value index count structures
# ----------------------------------------------------------------------


class TestIndexCounts:
    @pytest.fixture()
    def index(self):
        connection = build_figure1_connection()
        index = InvertedValueIndex.build(
            connection,
            [("Gene", "GID"), ("Gene", "Family"), ("Protein", "PType")],
        )
        yield index, connection
        connection.close()

    def test_lookup_returns_cached_view(self, index):
        idx, _ = index
        first = idx.lookup("F1")
        assert first is idx.lookup("F1")  # identity: no per-call copy
        assert idx.lookup("nonexistent") == ()

    def test_counts_agree_with_postings(self, index):
        idx, _ = index
        for word in ("F1", "JW0013", "enzyme"):
            postings = idx.lookup(word)
            assert idx.document_frequency(word) == len(postings)
            by_column = {}
            for posting in postings:
                key = (posting.table, posting.column)
                by_column[key] = by_column.get(key, 0) + 1
            assert idx.column_counts(word) == by_column
            for (table, column), count in by_column.items():
                assert idx.match_count(word, table, column) == count
                assert idx.selectivity(word, table, column) == 1.0 / count
        assert idx.selectivity("nonexistent", "Gene", "GID") == 0.0

    def test_lookup_in_matches_filtered_postings(self, index):
        idx, _ = index
        all_f1 = idx.lookup("F1")
        assert idx.lookup_in("F1", "Gene") == tuple(
            p for p in all_f1 if p.table.casefold() == "gene"
        )
        assert idx.lookup_in("F1", "Gene", "Family") == tuple(
            p
            for p in all_f1
            if p.table.casefold() == "gene" and p.column.casefold() == "family"
        )
        assert idx.lookup_in("F1", "Protein") == ()

    def test_add_row_bumps_generation_and_refreshes_view(self, index):
        idx, _ = index
        stale_view = idx.lookup("F1")
        generation = idx.generation
        idx.add_row("Gene", "Family", 99, "F1")
        assert idx.generation == generation + 1
        fresh_view = idx.lookup("F1")
        assert fresh_view is not stale_view
        assert len(fresh_view) == len(stale_view) + 1
        assert idx.match_count("F1", "Gene", "Family") == len(
            idx.lookup_in("F1", "Gene", "Family")
        )

    def test_empty_value_does_not_bump_generation(self, index):
        idx, _ = index
        generation = idx.generation
        idx.add_row("Gene", "Family", 100, "")
        assert idx.generation == generation


# ----------------------------------------------------------------------
# Mapper dedup / meta memoization / lexicon + schema versions
# ----------------------------------------------------------------------


class TestHotPathMemos:
    def test_map_query_computes_duplicates_once(self, figure1_db):
        from repro.search.engine import KeywordSearchEngine

        connection, _ = figure1_db
        engine = KeywordSearchEngine(
            connection, [("Gene", "GID"), ("Gene", "Name")]
        )
        calls = []
        original = engine.mapper.map_keyword

        def counting(keyword):
            calls.append(keyword)
            return original(keyword)

        engine.mapper.map_keyword = counting
        mapped = engine.mapper.map_query(["JW0013", "gene", "JW0013", "gene"])
        assert calls == ["JW0013", "gene"]
        assert set(mapped) == {"JW0013", "gene"}

    def test_meta_memoizes_until_mutation(self, figure1_meta):
        first = figure1_meta.concept_mappings("gene")
        assert figure1_meta.concept_mappings("gene") == first
        generation = figure1_meta.generation
        figure1_meta.add_concept(
            ConceptRef.build("Assay", "Gene", [["Seq"]], equivalent_names=["assay"])
        )
        assert figure1_meta.generation > generation
        assert any(
            m.concept == "Assay" for m in figure1_meta.concept_mappings("assay")
        )

    def test_lexicon_generation_counts_mutations(self):
        lexicon = Lexicon()
        generation = lexicon.generation
        lexicon.add_synset(["tumour", "tumor"])
        assert lexicon.generation == generation + 1
        lexicon.add_synset(["solo"])  # ignored: < 2 words
        assert lexicon.generation == generation + 1
        lexicon.add_hyponyms("enzyme", ["ligase"])
        assert lexicon.generation == generation + 2

    def test_schema_normalized_names_cached(self, figure1_connection):
        graph = SchemaGraph.from_connection(figure1_connection)
        names = graph.normalized_names()
        assert names is graph.normalized_names()
        by_table = dict((t, (n, dict(cols))) for t, n, cols in names)
        assert by_table["Gene"][0] == "gene"
        assert by_table["Protein"][1]["PName"] == "pname"


# ----------------------------------------------------------------------
# Batch request inputs / bulk Stage-0 store
# ----------------------------------------------------------------------


class TestBatchInputs:
    def test_coerce_request(self):
        request = coerce_request("plain text")
        assert request == AnnotationRequest(text="plain text")
        prepared = AnnotationRequest.build(
            "t", [TupleRef("Gene", 1)], author="alice"
        )
        assert coerce_request(prepared) is prepared
        assert prepared.focal == (TupleRef("Gene", 1),)


class TestBulkStore:
    def test_bulk_insert_matches_sequential(self):
        sequential = AnnotationManager(build_figure1_connection())
        bulk = AnnotationManager(build_figure1_connection())
        items = [
            ("first note", [CellRef("Gene", 1)], "alice"),
            ("second note", [CellRef("Gene", 2), CellRef("Protein", 1)], None),
            ("third note", [], "bob"),
        ]
        for content, attach_to, author in items:
            sequential.add_annotation(content, attach_to=attach_to, author=author)
        annotations = bulk.bulk_add_annotations(items)

        def rows(manager, table, columns):
            return manager.connection.execute(
                f"SELECT {columns} FROM {table} ORDER BY 1, 2"
            ).fetchall()

        assert [a.content for a in annotations] == [c for c, _a, _au in items]
        for table, columns in (
            ("_nebula_annotations", "annotation_id, content, author, created_seq"),
            (
                "_nebula_attachments",
                "annotation_id, target_table, target_rowid, confidence, kind",
            ),
        ):
            assert rows(bulk, table, columns) == rows(sequential, table, columns)

    def test_bulk_validates_before_writing(self):
        manager = AnnotationManager(build_figure1_connection())
        with pytest.raises(StorageError):
            manager.bulk_add_annotations(
                [
                    ("ok", [CellRef("Gene", 1)], None),
                    ("bad", [CellRef("NoSuchTable", 1)], None),
                ]
            )
        assert manager.store.count_annotations() == 0
        assert manager.store.count_attachments() == 0

    def test_bulk_attach_deduplicates_edges(self):
        manager = AnnotationManager(build_figure1_connection())
        (annotation,) = manager.store.bulk_insert_annotations([("note", None)])
        target = CellRef("Gene", 1)
        written = manager.store.bulk_attach_true(
            [(annotation.annotation_id, target), (annotation.annotation_id, target)]
        )
        assert written == 1
        assert manager.store.count_attachments() == 1
