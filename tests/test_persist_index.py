"""The persisted search index: parity, staleness, hop profile.

The contract under test: :class:`repro.search.persist.PersistentValueIndex`
is *observationally identical* to the in-memory
:class:`~repro.search.index.InvertedValueIndex` it replaces — same
postings in the same first-seen order, same counts, same search results —
while opening from a valid persisted image in O(#columns) stamp probes,
detecting data loaded behind its back, and rolling back its incremental
writes together with the enclosing data transaction.
"""

import pytest

from repro import Nebula, NebulaConfig, generate_bio_database
from repro.cli import main as cli_main
from repro.core.acg import UNREACHABLE, HopProfile, PersistentHopProfile
from repro.core.execution import identify_related_tuples
from repro.core.query_generation import generate_queries
from repro.datagen.biodb import BioDatabaseSpec
from repro.meta.lexicon import DEFAULT_LEXICON
from repro.perf import AnalysisCache
from repro.search.engine import KeywordQuery, KeywordSearchEngine
from repro.search.index import InvertedValueIndex
from repro.search.persist import PersistentValueIndex

from conftest import build_figure1_meta

SEARCHABLE = [("Gene", "GID"), ("Gene", "Name"), ("Protein", "PID"),
              ("Protein", "PName"), ("Protein", "PType")]

TINY_SPEC = BioDatabaseSpec(genes=40, proteins=24, publications=60, seed=23)


def _open(connection, columns=SEARCHABLE, **kwargs):
    return PersistentValueIndex.open(connection, columns, **kwargs)


class TestPersistParity:
    """Persisted vs in-memory: identical on both storage engines."""

    def test_rebuild_matches_memory_build(self, figure1_connection):
        index, source = _open(figure1_connection)
        assert source == "rebuilt"
        reference = InvertedValueIndex.build(figure1_connection, SEARCHABLE)
        assert index.parity_mismatches(reference) == []

    def test_loaded_image_matches_memory_build(self, figure1_connection):
        _open(figure1_connection)
        index, source = _open(figure1_connection)
        assert source == "loaded"
        reference = InvertedValueIndex.build(figure1_connection, SEARCHABLE)
        assert index.parity_mismatches(reference) == []
        assert len(index) == len(reference)
        assert index.indexed_columns == reference.indexed_columns

    def test_lookup_interface_equivalence(self, figure1_connection):
        _open(figure1_connection)
        index, _ = _open(figure1_connection)
        reference = InvertedValueIndex.build(figure1_connection, SEARCHABLE)
        for word in ("JW0013", "grpC", "G-Actin", "enzyme", "absent"):
            assert index.lookup(word) == reference.lookup(word)
            assert index.lookup_in(word, "Gene") == reference.lookup_in(word, "Gene")
            assert index.lookup_in(word, "Gene", "Name") == reference.lookup_in(
                word, "Gene", "Name"
            )
            assert index.document_frequency(word) == reference.document_frequency(word)
            assert index.column_counts(word) == reference.column_counts(word)
            assert index.match_count(word, "Gene", "GID") == reference.match_count(
                word, "Gene", "GID"
            )
            assert index.selectivity(word, "Gene", "GID") == reference.selectivity(
                word, "Gene", "GID"
            )

    def test_search_results_identical(self, figure1_connection):
        """Same mappings, candidates, and scores through the engine."""
        persisted, _ = _open(figure1_connection)
        engines = [
            KeywordSearchEngine(
                figure1_connection, searchable_columns=SEARCHABLE,
                aliases={"genes": ("Gene", None)}, lexicon=DEFAULT_LEXICON,
                index=index,
            )
            for index in (None, persisted)
        ]
        for keywords in (
            ("gene", "JW0013"), ("gene", "GRPC"), ("protein", "G-Actin"),
            ("gene", "JW0013", "grpC"), ("gene", "JW9999"),
        ):
            results = [e.search(KeywordQuery(keywords)) for e in engines]
            assert results[0].tuples == results[1].tuples
            mapped = [
                e.mapper.map_query(list(keywords)) for e in engines
            ]
            assert mapped[0] == mapped[1]

    def test_pipeline_parity_on_generated_world(self, storage_backend):
        """Full Stage 1-2 parity on an organic world, both engines."""
        db = generate_bio_database(TINY_SPEC, backend=storage_backend)
        persisted = Nebula(
            db.backend, db.meta, NebulaConfig(epsilon=0.6),
            aliases=db.aliases,
        )
        assert persisted.index_source == "rebuilt"
        # The reference: an engine over the in-memory index rebuilt from
        # the data, with an analysis cache of its own.
        memory = KeywordSearchEngine(
            db.connection, searchable_columns=persisted.searchable_columns(),
            aliases=db.aliases, lexicon=db.meta.lexicon,
            analysis_cache=AnalysisCache(), index=None,
        )
        gene = db.genes[3]
        for text in (
            f"this gene resembles gene {gene.gid}",
            f"{gene.name} interacts with {db.proteins[0].pname}",
        ):
            generation = generate_queries(text, db.meta, persisted.config)
            reference = identify_related_tuples(generation.queries, memory)
            report = persisted.analyze(text)
            assert [
                (c.ref, pytest.approx(c.confidence)) for c in reference.tuples
            ] == [(c.ref, c.confidence) for c in report.candidates]
            assert len(generation.queries) == len(report.generation.queries)


class TestIncrementalMaintenance:
    def test_add_row_visible_and_persisted(self, figure1_connection):
        index, _ = _open(figure1_connection)
        generation = index.generation
        figure1_connection.execute(
            "INSERT INTO Gene VALUES ('JW0099', 'newG', 1, 'ACGT', 'F9')"
        )
        cursor = figure1_connection.execute(
            "SELECT rowid FROM Gene WHERE GID = 'JW0099'"
        )
        rowid = cursor.fetchone()[0]
        index.add_row("Gene", "GID", rowid, "JW0099")
        index.add_row("Gene", "Name", rowid, "newG")
        figure1_connection.commit()
        assert index.generation > generation
        assert [p.rowid for p in index.lookup("JW0099")] == [rowid]
        # A fresh open adopts the incrementally-maintained image as-is.
        reopened, source = _open(figure1_connection)
        assert source == "loaded"
        reference = InvertedValueIndex.build(figure1_connection, SEARCHABLE)
        assert reopened.parity_mismatches(reference) == []

    def test_rollback_reverts_index_with_data(self, figure1_connection):
        index, _ = _open(figure1_connection)
        figure1_connection.execute(
            "INSERT INTO Gene VALUES ('JW0098', 'rlbG', 1, 'ACGT', 'F9')"
        )
        rowid = figure1_connection.execute(
            "SELECT rowid FROM Gene WHERE GID = 'JW0098'"
        ).fetchone()[0]
        index.add_row("Gene", "GID", rowid, "JW0098")
        figure1_connection.rollback()
        # The persisted posting and stamps rolled back with the data row;
        # the in-memory mirror over-counts, which the stamp check catches
        # in the safe direction (rebuild), never the stale one.
        reopened, _ = _open(figure1_connection)
        assert reopened.lookup("JW0098") == ()
        reference = InvertedValueIndex.build(figure1_connection, SEARCHABLE)
        assert reopened.parity_mismatches(reference) == []


class TestStalenessDetection:
    def test_out_of_band_insert_forces_rebuild(self, figure1_connection):
        _open(figure1_connection)
        # Bulk load behind the index's back (the repro.datagen path).
        figure1_connection.execute(
            "INSERT INTO Gene VALUES ('JW0097', 'oobG', 1, 'ACGT', 'F9')"
        )
        figure1_connection.commit()
        index, source = _open(figure1_connection)
        assert source == "rebuilt"
        assert len(index.lookup("JW0097")) == 1

    def test_out_of_band_delete_forces_rebuild(self, figure1_connection):
        _open(figure1_connection)
        figure1_connection.execute("DELETE FROM Gene WHERE GID = 'JW0027'")
        figure1_connection.commit()
        index, source = _open(figure1_connection)
        assert source == "rebuilt"
        assert index.lookup("JW0027") == ()

    def test_changed_column_set_forces_rebuild(self, figure1_connection):
        _open(figure1_connection)
        index, source = _open(figure1_connection, columns=SEARCHABLE[:3])
        assert source == "rebuilt"
        assert index.indexed_columns == {
            (t.casefold(), c.casefold()) for t, c in SEARCHABLE[:3]
        }

    def test_refresh_reports_and_repairs(self, figure1_connection):
        index, _ = _open(figure1_connection)
        assert index.refresh(SEARCHABLE) is False
        figure1_connection.execute(
            "INSERT INTO Gene VALUES ('JW0096', 'rfsG', 1, 'ACGT', 'F9')"
        )
        figure1_connection.commit()
        assert index.refresh(SEARCHABLE) is True
        assert len(index.lookup("JW0096")) == 1
        assert index.refresh(SEARCHABLE) is False

    def test_nebula_ensure_index_fresh(self, figure1_backend, figure1_connection):
        nebula = Nebula(figure1_backend, build_figure1_meta(), NebulaConfig())
        assert nebula.ensure_index_fresh() is False
        figure1_connection.execute(
            "INSERT INTO Gene VALUES ('JW0095', 'svcG', 1, 'ACGT', 'F9')"
        )
        figure1_connection.commit()
        assert nebula.ensure_index_fresh() is True
        assert nebula.index_source == "rebuilt"
        report = nebula.analyze("gene JW0095 observed")
        assert any(c.ref.table == "Gene" for c in report.candidates)


class TestPersistentHopProfile:
    def test_counts_survive_reopen(self, figure1_connection):
        profile = PersistentHopProfile(figure1_connection)
        for hops in (1, 1, 2, UNREACHABLE):
            profile.record(hops)
        figure1_connection.commit()
        reopened = PersistentHopProfile(figure1_connection)
        assert reopened.buckets == {1: 2, 2: 1}
        assert reopened.unreachable == 1
        assert reopened.as_rows() == profile.as_rows()

    def test_behaves_like_memory_profile(self, figure1_connection):
        persistent = PersistentHopProfile(figure1_connection)
        memory = HopProfile()
        for hops in (1, 2, 2, 3, UNREACHABLE):
            persistent.record(hops)
            memory.record(hops)
        assert persistent.buckets == memory.buckets
        assert persistent.unreachable == memory.unreachable


class TestIndexCli:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = str(tmp_path / "cli.db")
        assert cli_main([
            "generate", "--db", path, "--genes", "30", "--proteins", "18",
            "--publications", "40",
        ]) == 0
        return path

    def test_status_build_verify_roundtrip(self, db_path, capsys):
        assert cli_main(["index", "status", "--db", db_path]) == 0
        assert "source:" in capsys.readouterr().out
        assert cli_main(["index", "build", "--db", db_path]) == 0
        assert "rebuilt in" in capsys.readouterr().out
        assert cli_main(["index", "verify", "--db", db_path]) == 0
        assert "verified" in capsys.readouterr().out

    def test_verify_detects_corruption(self, db_path, capsys):
        assert cli_main(["index", "build", "--db", db_path]) == 0
        import sqlite3

        with sqlite3.connect(db_path) as connection:
            connection.execute(
                "DELETE FROM _nebula_index_postings WHERE posting_id IN ("
                "SELECT posting_id FROM _nebula_index_postings LIMIT 1)"
            )
            # Keep the stamps valid so the open adopts the (now
            # corrupted) image instead of silently repairing it.
            connection.commit()
        capsys.readouterr()
        assert cli_main(["index", "verify", "--db", db_path]) == 1
        assert "DIVERGES" in capsys.readouterr().out
