"""Unit tests for NebulaMeta: ConceptRefs, p(w, c), and d(w, c)."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.errors import MetadataError, UnknownConceptError
from repro.meta.concepts import ConceptRef, ReferencingColumn
from repro.meta.lexicon import _DEFAULT_HYPONYMS, _DEFAULT_SYNSETS, Lexicon
from repro.meta.ontology import Ontology
from repro.meta.patterns import ValuePattern
from repro.meta.repository import (
    EQUIVALENT_NAME_SCORE,
    EXACT_NAME_SCORE,
    SYNONYM_NAME_SCORE,
    NebulaMeta,
)
from repro.meta.sampling import ColumnSample
from repro.utils.tokenize import STOPWORDS

from conftest import build_figure1_connection, build_figure1_meta


class TestConceptRef:
    def test_build_single_and_combined_alternatives(self):
        ref = ConceptRef.build("Protein", "Protein", [["PID"], ["PName", "PType"]])
        assert len(ref.referenced_by) == 2
        assert ref.referenced_by[1] == (
            ReferencingColumn("Protein", "PName"),
            ReferencingColumn("Protein", "PType"),
        )

    def test_qualified_column_names(self):
        ref = ConceptRef.build("X", "A", [["B.col"]])
        assert ref.referenced_by[0][0].table == "B"

    def test_matches_name_with_equivalents(self):
        ref = ConceptRef.build("Gene", "Gene", [["GID"]], equivalent_names=["locus"])
        assert ref.matches_name("gene")
        assert ref.matches_name("LOCUS")
        assert not ref.matches_name("protein")

    def test_referencing_columns_flattened(self):
        ref = ConceptRef.build("Protein", "Protein", [["PID"], ["PName", "PType"]])
        columns = {c.column for c in ref.referencing_columns}
        assert columns == {"PID", "PName", "PType"}


class TestConceptMappings:
    @pytest.fixture
    def meta(self):
        return build_figure1_meta()

    def test_exact_table_name(self, meta):
        mappings = meta.concept_mappings("gene")
        table_hits = [m for m in mappings if m.kind == "table" and m.table == "Gene"]
        assert table_hits and table_hits[0].score == EXACT_NAME_SCORE

    def test_equivalent_name(self, meta):
        mappings = meta.concept_mappings("genes")
        assert any(
            m.kind == "table" and m.score == EQUIVALENT_NAME_SCORE for m in mappings
        )

    def test_column_equivalent(self, meta):
        mappings = meta.concept_mappings("id")
        assert any(
            m.kind == "column" and m.column == "GID" and m.score == EQUIVALENT_NAME_SCORE
            for m in mappings
        )

    def test_synonym_via_lexicon(self, meta):
        # "cistron" is in the gene synset of the default lexicon.
        mappings = meta.concept_mappings("cistron")
        assert any(m.score == SYNONYM_NAME_SCORE for m in mappings)

    def test_exact_column_name(self, meta):
        mappings = meta.concept_mappings("family")
        assert any(m.kind == "column" and m.column == "Family" for m in mappings)

    def test_stopwords_never_map(self, meta):
        assert meta.concept_mappings("the") == []

    def test_unrelated_word(self, meta):
        assert meta.concept_mappings("spectacular") == []

    def test_mappings_sorted_best_first(self, meta):
        mappings = meta.concept_mappings("gene")
        scores = [m.score for m in mappings]
        assert scores == sorted(scores, reverse=True)


class TestValueMappings:
    @pytest.fixture
    def meta(self):
        return build_figure1_meta()

    def test_pattern_match_scores_high(self, meta):
        mappings = meta.value_mappings("JW0014")
        gid = [m for m in mappings if m.column == "GID"]
        assert gid and gid[0].score >= 0.8
        assert any("pattern" in e for e in gid[0].evidence)

    def test_gene_name_pattern_case_sensitive(self, meta):
        strong = meta.value_mappings("nhaA")
        weak = meta.value_mappings("nhaa")
        strong_name = max(m.score for m in strong if m.column == "Name")
        weak_name = max((m.score for m in weak if m.column == "Name"), default=0.0)
        assert strong_name > weak_name

    def test_ontology_member(self, meta):
        mappings = meta.value_mappings("enzyme")
        ptype = [m for m in mappings if m.column == "PType"]
        assert ptype and ptype[0].score >= 0.8

    def test_sample_exact_membership(self, meta):
        mappings = meta.value_mappings("G-Actin")
        pname = [m for m in mappings if m.column == "PName"]
        assert pname and pname[0].score >= 0.8

    def test_type_only_evidence_insufficient(self, meta):
        # A word with no ontology/pattern/sample signal yields no mapping
        # for pattern-guarded columns.
        mappings = meta.value_mappings("zzzzzzzzzzzzzzzz")
        assert all(m.score < 0.6 for m in mappings)

    def test_stopword_rejected(self, meta):
        assert meta.value_mappings("the") == []

    def test_sorted_best_first(self, meta):
        mappings = meta.value_mappings("JW0013")
        scores = [m.score for m in mappings]
        assert scores == sorted(scores, reverse=True)


def _probe_words(meta):
    """Lexicon words, schema and equivalent names, stopwords, and their
    case and punctuation variants."""
    words = set(STOPWORDS)
    for synset in _DEFAULT_SYNSETS:
        words.update(synset)
    for hypernym, hyponyms in _DEFAULT_HYPONYMS.items():
        words.add(hypernym)
        words.update(hyponyms)
    for concept in meta.concepts:
        words.update((concept.concept, concept.table, *concept.equivalent_names))
        for column in concept.referencing_columns:
            words.update((column.table, column.column))
    for names in (*meta._table_equivalents.values(), *meta._column_equivalents.values()):
        words.update(names)
    variants = set()
    for word in words:
        variants.update((word, word.upper(), word.title(), f"{word}.", f"-{word}/"))
    return sorted(variants | {"", " ", ".", "spectacular", "JW0013"})


def _assert_concept_table_matches_reference(meta, words):
    for word in words:
        assert meta.concept_mappings(word) == meta._concept_mappings(word), word


_FIGURE1_META = build_figure1_meta()


class TestEstimatorTables:
    """The precomputed tables answer exactly what the scans they replace do."""

    def test_concept_table_matches_reference_on_figure1(self):
        meta = build_figure1_meta()
        _assert_concept_table_matches_reference(meta, _probe_words(meta))

    def test_concept_table_matches_reference_on_generated_world(self, bio_db):
        _assert_concept_table_matches_reference(bio_db.meta, _probe_words(bio_db.meta))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=12))
    def test_concept_table_matches_reference_on_random_strings(self, word):
        assert _FIGURE1_META.concept_mappings(word) == _FIGURE1_META._concept_mappings(word)

    @pytest.mark.parametrize(
        "mutate, word, score",
        [
            (lambda meta, lexicon: lexicon.add_synset(["protein", "peptide"]),
             "peptide", SYNONYM_NAME_SCORE),
            (lambda meta, lexicon: meta.add_column_equivalents("Gene", "Name", ["moniker"]),
             "moniker", EQUIVALENT_NAME_SCORE),
            (lambda meta, lexicon: meta.add_table_equivalents("Protein", ["chain"]),
             "chain", EQUIVALENT_NAME_SCORE),
        ],
        ids=["add_synset", "add_column_equivalents", "add_table_equivalents"],
    )
    def test_concept_table_follows_mutations(self, mutate, word, score):
        lexicon = Lexicon(_DEFAULT_SYNSETS, _DEFAULT_HYPONYMS)
        meta = build_figure1_meta(lexicon)
        words = _probe_words(meta) + [word]
        _assert_concept_table_matches_reference(meta, words)
        assert meta.concept_mappings(word) == []
        mutate(meta, lexicon)
        _assert_concept_table_matches_reference(meta, words)
        assert [m.score for m in meta.concept_mappings(word)] == [score]

    def test_concept_lookups_leave_the_memo_to_values(self):
        meta = build_figure1_meta()
        meta.concept_mappings("gene")
        assert len(meta._cache) == 0
        meta.value_mappings("JW0013")
        assert len(meta._cache) == 1

    def test_disabled_memo_computes_concepts_directly(self):
        meta = build_figure1_meta()
        meta.configure_cache(0)
        _assert_concept_table_matches_reference(meta, _probe_words(meta))
        assert meta._names is None
        meta.configure_cache(16)
        assert meta.concept_mappings("locus")
        assert meta._names is not None

    def _family_mapping(self, meta, word):
        return next(m for m in meta.value_mappings(word) if m.column == "Family")

    def test_value_mappings_follow_attach_pattern(self):
        meta = build_figure1_meta()
        assert self._family_mapping(meta, "F9").evidence == ("type:TEXT", "sample")
        meta.attach_pattern("Gene", "Family", ValuePattern("F[0-9]"))
        family = self._family_mapping(meta, "F9")
        assert family.evidence == ("type:TEXT", "pattern:F[0-9]")
        assert family.score == pytest.approx(0.9)
        assert self._family_mapping(meta, "f9").evidence == ("type:TEXT", "pattern~:F[0-9]")

    def test_value_mappings_follow_attach_ontology(self):
        meta = build_figure1_meta()
        assert self._family_mapping(meta, "F9").evidence == ("type:TEXT", "sample")
        meta.attach_ontology("Gene", "Family", Ontology("families", ["F9"]))
        family = self._family_mapping(meta, "F9")
        assert family.evidence == ("type:TEXT", "ontology:families")
        assert family.score == pytest.approx(0.9)

    def test_value_mappings_follow_attach_sample(self):
        meta = build_figure1_meta()
        pname = next(m for m in meta.value_mappings("Z-Actin") if m.column == "PName")
        assert pname.score < 0.9
        meta.attach_sample(ColumnSample("Protein", "PName", ("Z-Actin",)))
        pname = next(m for m in meta.value_mappings("Z-Actin") if m.column == "PName")
        assert pname.score == pytest.approx(0.9)


class TestBootstrap:
    def test_bootstrap_draws_samples_and_patterns(self):
        connection = build_figure1_connection()
        meta = NebulaMeta()
        meta.add_concept(ConceptRef.build("Gene", "Gene", [["GID"], ["Name"]]))
        meta.bootstrap_from_connection(connection, sample_size=10)
        assert meta.sample_for("Gene", "GID") is not None
        assert meta.pattern_for("Gene", "GID") is not None
        # 7 hand-picked names are enough support and share the template.
        assert meta.pattern_for("Gene", "Name") is not None

    def test_bootstrap_samples_do_not_depend_on_hash_seed(self):
        # Every column's sample comes from one seeded generator, so the
        # column visiting order must not follow set iteration order.
        script = (
            "import json\n"
            "from repro import BioDatabaseSpec, generate_bio_database\n"
            "db = generate_bio_database(BioDatabaseSpec("
            "genes=60, proteins=36, publications=40, seed=11))\n"
            "print(json.dumps({f'{c.table}.{c.column}': "
            "list(db.meta.sample_for(c.table, c.column).values) "
            "for concept in db.meta.concepts "
            "for c in concept.referencing_columns}, sort_keys=True))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        samples = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            output = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            samples.append(json.loads(output))
        assert len(samples[0]["Gene.GID"]) == 50
        assert samples[0] == samples[1]

    def test_bootstrap_reads_each_table_schema_once(self):
        # Figure 1's concepts refer to three columns of each table.
        connection = build_figure1_connection()
        meta = build_figure1_meta()
        statements = []
        connection.set_trace_callback(statements.append)
        try:
            meta.bootstrap_from_connection(connection)
        finally:
            connection.set_trace_callback(None)
        pragmas = [s for s in statements if s.startswith("PRAGMA table_info")]
        assert len(pragmas) == 2
        assert {p.split("(")[1].strip('")') for p in pragmas} == {"Gene", "Protein"}
        assert sum(s.startswith("SELECT DISTINCT") for s in statements) == 6

    def test_bootstrap_rejects_unknown_column(self):
        connection = build_figure1_connection()
        meta = NebulaMeta()
        meta.add_concept(ConceptRef.build("Gene", "Gene", [["NoSuchColumn"]]))
        with pytest.raises(MetadataError):
            meta.bootstrap_from_connection(connection)

    def test_get_concept_unknown(self):
        with pytest.raises(UnknownConceptError):
            NebulaMeta().get_concept("nothing")

    def test_get_concept_case_insensitive(self):
        meta = build_figure1_meta()
        assert meta.get_concept("GENE").concept == "Gene"
