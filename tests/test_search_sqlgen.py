"""Focused tests for SQL generation edge cases."""

import sqlite3

import pytest

from repro.meta.lexicon import DEFAULT_LEXICON
from repro.search.configurations import enumerate_configurations
from repro.search.engine import KeywordSearchEngine
from repro.search.sqlgen import Condition, generate_sql

from conftest import build_figure1_connection

SEARCHABLE = [("Gene", "GID"), ("Gene", "Name"), ("Protein", "PID"),
              ("Protein", "PName"), ("Protein", "PType")]


@pytest.fixture
def engine():
    return KeywordSearchEngine(
        build_figure1_connection(),
        searchable_columns=SEARCHABLE,
        aliases={"genes": ("Gene", None)},
        lexicon=DEFAULT_LEXICON,
    )


def _config_for(engine, keywords):
    mappings = engine.mapper.map_query(list(keywords))
    configs = enumerate_configurations(mappings, engine.schema)
    assert configs, f"no configuration for {keywords}"
    return configs[0]


class TestTableSubstitution:
    def test_target_table_substituted(self, engine):
        config = _config_for(engine, ["JW0013"])
        (query,) = generate_sql(
            config, engine.schema, table_map={"gene": "_minidb_Gene"}
        )
        assert "FROM _minidb_Gene t0" in query.sql
        # The logical target table name is preserved for result mapping.
        assert query.target_table == "Gene"

    def test_substituted_target_gets_no_scope_fragment(self, engine):
        config = _config_for(engine, ["JW0013"])
        (query,) = generate_sql(
            config,
            engine.schema,
            scope_filter={"gene": "rowid IN (1)"},
            table_map={"gene": "_minidb_Gene"},
        )
        assert "rowid IN (1)" not in query.sql

    def test_unsubstituted_target_keeps_scope_fragment(self, engine):
        config = _config_for(engine, ["JW0013"])
        (query,) = generate_sql(
            config, engine.schema, scope_filter={"gene": "rowid IN (1, 2)"}
        )
        assert "rowid IN (1, 2)" in query.sql

    def test_join_tables_substituted(self, engine):
        config = next(
            c
            for c in enumerate_configurations(
                engine.mapper.map_query(["grpC", "G-Actin"]), engine.schema
            )
            if {v.table for v in c.value_mappings} == {"Gene", "Protein"}
        )
        queries = generate_sql(
            config, engine.schema,
            table_map={"gene": "_minidb_Gene", "protein": "_minidb_Protein"},
        )
        for query in queries:
            assert "_minidb_" in query.sql
            assert " Gene " not in query.sql and " Protein " not in query.sql


class TestConditionSemantics:
    def test_same_table_conditions_conjoined(self, engine):
        # JW0013 and grpC are both Gene values: one query, two ANDed
        # conditions, matching exactly the row satisfying both.
        config = next(
            c
            for c in enumerate_configurations(
                engine.mapper.map_query(["JW0013", "grpC"]), engine.schema
            )
            if len(c.value_mappings) == 2
        )
        (query,) = generate_sql(config, engine.schema)
        assert query.sql.count("COLLATE NOCASE") == 2
        rowids = engine.execute_sql(query)
        assert rowids == [1]

    def test_conditions_recorded_structurally(self, engine):
        config = _config_for(engine, ["JW0013"])
        (query,) = generate_sql(config, engine.schema)
        assert query.conditions == (Condition("Gene", "GID", "JW0013"),)

    def test_mismatched_pair_returns_nothing(self, engine):
        # JW0013's name is grpC, not yaaB: the conjunction must be empty.
        config = next(
            c
            for c in enumerate_configurations(
                engine.mapper.map_query(["JW0013", "yaaB"]), engine.schema
            )
            if len(c.value_mappings) == 2
        )
        queries = generate_sql(config, engine.schema)
        for query in queries:
            assert engine.execute_sql(query) == []


class TestUnreachableConditions:
    def test_dropped_condition_halves_confidence(self):
        connection = sqlite3.connect(":memory:")
        connection.executescript(
            """
            CREATE TABLE A (name TEXT);
            CREATE TABLE B (name TEXT);
            INSERT INTO A VALUES ('alpha');
            INSERT INTO B VALUES ('beta');
            """
        )
        engine = KeywordSearchEngine(
            connection, searchable_columns=[("A", "name"), ("B", "name")]
        )
        mappings = engine.mapper.map_query(["alpha", "beta"])
        config = next(
            c
            for c in enumerate_configurations(mappings, engine.schema)
            if len(c.value_mappings) == 2
        )
        queries = generate_sql(config, engine.schema)
        # A and B are unconnected: each target query drops the other
        # table's condition and pays a 50% confidence penalty.
        assert len(queries) == 2
        for query in queries:
            assert query.confidence == pytest.approx(config.score * 0.5)
            assert len(query.conditions) == 1


class TestSignatures:
    def test_signature_ignores_sql_text(self, engine):
        config = _config_for(engine, ["JW0013"])
        (plain,) = generate_sql(config, engine.schema)
        (scoped,) = generate_sql(
            config, engine.schema, scope_filter={"gene": "rowid IN (1)"}
        )
        # Same logical probe: identical signature despite different SQL.
        assert plain.signature == scoped.signature

    def test_single_local_condition_flag_negative(self, engine):
        config = next(
            c
            for c in enumerate_configurations(
                engine.mapper.map_query(["JW0013", "grpC"]), engine.schema
            )
            if len(c.value_mappings) == 2
        )
        (query,) = generate_sql(config, engine.schema)
        assert not query.is_single_local_condition
