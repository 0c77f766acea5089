"""Shared fixtures.

Two database worlds are used throughout the tests:

* ``figure1_db`` — a tiny, hand-built database mirroring the paper's
  Figure 1 (genes JW0013/grpC, JW0019/yaaB, ... plus a couple of
  proteins), with a manually populated NebulaMeta.  Deterministic and
  readable: unit tests assert exact mappings, matches, and queries on it.
* ``bio_db`` / ``bio_nebula`` — a small synthetic generated database
  (module-scoped), for integration-level tests that need organic
  co-annotation structure.

Every world is a WAL database file on the one storage engine
(:class:`~repro.storage.SqliteFileBackend`): fixtures put it under
``tmp_path``, the ``build_figure1_*`` helpers in a temporary directory removed
at session end.
"""

from __future__ import annotations

import sqlite3
from typing import List, Optional

import pytest

from repro import (
    BioDatabaseSpec,
    ConceptRef,
    Lexicon,
    Nebula,
    NebulaConfig,
    NebulaMeta,
    Ontology,
    SqliteFileBackend,
    ValuePattern,
    generate_bio_database,
    get_backend,
)
from repro.meta.sampling import ColumnSample

FIGURE1_GENES = [
    # (GID, Name, Length, Seq, Family)
    ("JW0013", "grpC", 1130, "TGCT", "F1"),
    ("JW0014", "groP", 1916, "GGTT", "F6"),
    ("JW0015", "insL", 1112, "GGCT", "F1"),
    ("JW0018", "nhaA", 1166, "CGTT", "F1"),
    ("JW0019", "yaaB", 905, "TGTG", "F3"),
    ("JW0012", "yaaI", 404, "TTCG", "F1"),
    ("JW0027", "namE", 658, "GTTT", "F4"),
]

FIGURE1_PROTEINS = [
    # (PID, PName, PType, GID, Mass)
    ("P00001", "G-Actin", "enzyme", "JW0013", 41.8),
    ("P00002", "Ligase42", "ligase", "JW0014", 103.2),
    ("P00003", "B-Tubulin", "kinase", "JW0019", 55.1),
]


#: Backends created by the ``build_figure1_*`` helpers, closed (which
#: removes their temporary directories) at session end.
_SESSION_BACKENDS: List[SqliteFileBackend] = []


def pytest_sessionfinish(session, exitstatus):
    for backend in _SESSION_BACKENDS:
        backend.close()
    _SESSION_BACKENDS.clear()


def build_figure1_backend() -> SqliteFileBackend:
    """A temporary database holding the Figure-1 schema and rows."""
    backend = SqliteFileBackend.temporary()
    _SESSION_BACKENDS.append(backend)
    build_figure1_connection(backend.primary)
    return backend


def build_figure1_connection(
    connection: Optional[sqlite3.Connection] = None,
) -> sqlite3.Connection:
    """Populate the Figure-1 schema on ``connection`` (the primary of a
    fresh :func:`build_figure1_backend` when omitted)."""
    if connection is None:
        return build_figure1_backend().primary
    connection.executescript(
        """
        CREATE TABLE Gene (
            GID TEXT PRIMARY KEY, Name TEXT NOT NULL, Length INTEGER NOT NULL,
            Seq TEXT NOT NULL, Family TEXT NOT NULL
        );
        CREATE TABLE Protein (
            PID TEXT PRIMARY KEY, PName TEXT NOT NULL, PType TEXT NOT NULL,
            GID TEXT NOT NULL REFERENCES Gene(GID), Mass REAL NOT NULL
        );
        """
    )
    connection.executemany(
        "INSERT INTO Gene VALUES (?, ?, ?, ?, ?)", FIGURE1_GENES
    )
    connection.executemany(
        "INSERT INTO Protein VALUES (?, ?, ?, ?, ?)", FIGURE1_PROTEINS
    )
    return connection


def build_figure1_meta(lexicon: Optional[Lexicon] = None) -> NebulaMeta:
    """NebulaMeta populated like the paper's Figure 3 ConceptRefs."""
    meta = NebulaMeta(lexicon)
    meta.add_concept(
        ConceptRef.build("Gene", "Gene", [["GID"], ["Name"]],
                         equivalent_names=["genes", "locus"])
    )
    meta.add_concept(
        ConceptRef.build("Protein", "Protein", [["PID"], ["PName", "PType"]],
                         equivalent_names=["proteins"])
    )
    meta.add_concept(
        ConceptRef.build("Gene Family", "Gene", [["Family"]],
                         equivalent_names=["family"])
    )
    meta.add_table_equivalents("Gene", ["genes", "locus"])
    meta.add_table_equivalents("Protein", ["proteins"])
    meta.add_column_equivalents("Gene", "GID", ["id", "identifier"])
    meta.add_column_equivalents("Protein", "PID", ["id", "accession"])
    meta.attach_pattern("Gene", "GID", ValuePattern(r"JW[0-9]{4}"))
    meta.attach_pattern("Gene", "Name", ValuePattern(r"[a-z]{3}[A-Z]"))
    meta.attach_pattern("Protein", "PID", ValuePattern(r"P[0-9]{5}"))
    meta.attach_ontology(
        "Protein", "PType",
        Ontology("protein-types", ["enzyme", "kinase", "ligase", "receptor"]),
    )
    meta.attach_sample(
        ColumnSample("Protein", "PName", tuple(p[1] for p in FIGURE1_PROTEINS))
    )
    meta.attach_sample(
        ColumnSample("Gene", "Family", tuple(sorted({g[4] for g in FIGURE1_GENES})))
    )
    for table, column, declared in [
        ("Gene", "GID", "TEXT"), ("Gene", "Name", "TEXT"), ("Gene", "Family", "TEXT"),
        ("Protein", "PID", "TEXT"), ("Protein", "PName", "TEXT"),
        ("Protein", "PType", "TEXT"),
    ]:
        meta.set_column_type(table, column, declared)
    return meta


@pytest.fixture(params=["sqlite-file"])
def storage_backend(request, tmp_path):
    """A fresh storage backend under ``tmp_path``.

    The single ``sqlite-file`` param keeps the ``[sqlite-file]`` test ids
    the suite reported when it also ran on a memory engine.
    """
    backend = get_backend(request.param, path=str(tmp_path / "backend.db"))
    yield backend
    backend.close()


@pytest.fixture
def figure1_backend(storage_backend):
    """The Figure-1 database on ``storage_backend``."""
    build_figure1_connection(storage_backend.primary)
    return storage_backend


@pytest.fixture
def figure1_connection(figure1_backend):
    """The primary connection of ``figure1_backend``."""
    return figure1_backend.primary


@pytest.fixture
def figure1_meta():
    return build_figure1_meta()


@pytest.fixture
def figure1_db(figure1_connection, figure1_meta):
    """(connection, meta) pair for the hand-built world."""
    return figure1_connection, figure1_meta


SMALL_SPEC = BioDatabaseSpec(genes=80, proteins=48, publications=400, seed=7)


@pytest.fixture(scope="module")
def bio_db(tmp_path_factory):
    """A small generated bio-database (module-scoped: ~0.5 s to build)."""
    path = tmp_path_factory.mktemp("bio") / "bio.db"
    with get_backend("sqlite-file", path=str(path)) as backend:
        yield generate_bio_database(SMALL_SPEC, backend=backend)


@pytest.fixture(scope="module")
def bio_nebula(bio_db):
    """A Nebula engine over ``bio_db`` with the default 0.6 cutoff.

    Module-scoped and therefore *stateful across tests in a module*;
    tests that mutate (insert annotations) should use fresh labels and
    must not assume pristine stores.
    """
    return Nebula(
        bio_db.backend,
        bio_db.meta,
        NebulaConfig(epsilon=0.6),
        aliases=bio_db.aliases,
    )
