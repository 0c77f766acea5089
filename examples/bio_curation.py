"""Motivation Scenario 1 — Bob & Alice's curation session (paper Figure 1).

Recreates the paper's introductory example on a hand-built database:

* Bob attaches a scientific article to gene JW0013; the article also
  references genes yaaB and yaaI and the protein G-Actin;
* Alice attaches a comment to gene JW0019; the comment also references
  genes JW0014 and grpC.

Neither curator creates those extra links — the database is
*under-annotated* — and Nebula proactively discovers them.

Run:  python examples/bio_curation.py
"""

from repro import (
    TupleRef,
    ConceptRef,
    Nebula,
    NebulaConfig,
    NebulaMeta,
    Ontology,
    SqliteFileBackend,
    ValuePattern,
    propagate,
)
from repro.meta.sampling import ColumnSample

GENES = [
    ("JW0013", "grpC", 1130, "TGCT", "F1"),
    ("JW0014", "groP", 1916, "GGTT", "F6"),
    ("JW0015", "insL", 1112, "GGCT", "F1"),
    ("JW0018", "nhaA", 1166, "CGTT", "F1"),
    ("JW0019", "yaaB", 905, "TGTG", "F3"),
    ("JW0012", "yaaI", 404, "TTCG", "F1"),
    ("JW0027", "namE", 658, "GTTT", "F4"),
]

PROTEINS = [
    ("P00001", "G-Actin", "enzyme", "JW0013", 41.8),
    ("P00002", "Ligase42", "ligase", "JW0014", 103.2),
]

BOB_ARTICLE = (
    "Abstract. We study the regulatory roles of gene yaaB and gene yaaI in "
    "the stress response pathway. Binding assays show the protein G-Actin "
    "mediates the observed interaction, with expression levels consistent "
    "across strains."
)

ALICE_COMMENT = (
    "From the exp, it seems this gene is correlated to JW0014 of grpC."
)


def build_database() -> SqliteFileBackend:
    """The Figure-1 tables on a temporary database file."""
    backend = SqliteFileBackend.temporary()
    connection = backend.primary
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
    connection.executemany("INSERT INTO Gene VALUES (?, ?, ?, ?, ?)", GENES)
    connection.executemany("INSERT INTO Protein VALUES (?, ?, ?, ?, ?)", PROTEINS)
    return backend


def build_meta() -> NebulaMeta:
    """The ConceptRefs table of the paper's Figure 3, hand-populated."""
    meta = NebulaMeta()
    meta.add_concept(
        ConceptRef.build("Gene", "Gene", [["GID"], ["Name"]],
                         equivalent_names=["genes", "locus"])
    )
    meta.add_concept(
        ConceptRef.build("Protein", "Protein", [["PID"], ["PName", "PType"]],
                         equivalent_names=["proteins"])
    )
    meta.add_concept(ConceptRef.build("Gene Family", "Gene", [["Family"]]))
    meta.add_column_equivalents("Gene", "GID", ["id", "identifier"])
    meta.attach_pattern("Gene", "GID", ValuePattern(r"JW[0-9]{4}"))
    meta.attach_pattern("Gene", "Name", ValuePattern(r"[a-z]{3}[A-Z]"))
    meta.attach_pattern("Protein", "PID", ValuePattern(r"P[0-9]{5}"))
    meta.attach_ontology(
        "Protein", "PType", Ontology("ptype", ["enzyme", "ligase", "kinase"])
    )
    meta.attach_sample(ColumnSample("Protein", "PName", tuple(p[1] for p in PROTEINS)))
    meta.attach_sample(ColumnSample("Gene", "Family", ("F1", "F3", "F4", "F6")))
    return meta


def main() -> None:
    backend = build_database()
    connection = backend.primary
    nebula = Nebula(backend, build_meta(), NebulaConfig(epsilon=0.6))

    def rowid_of(gid: str) -> int:
        return connection.execute(
            "SELECT rowid FROM Gene WHERE GID = ?", (gid,)
        ).fetchone()[0]

    print("== Bob attaches an article to gene JW0013 ==")
    bob = nebula.insert_annotation(
        BOB_ARTICLE,
        attach_to=[TupleRef("Gene", rowid_of("JW0013"))],
        author="bob",
    )
    for task in bob.tasks:
        print(f"  predicted {task.ref} conf={task.confidence:.2f} -> {task.decision.value}")

    print("\n== Alice attaches a comment to gene JW0019 ==")
    alice = nebula.insert_annotation(
        ALICE_COMMENT,
        attach_to=[TupleRef("Gene", rowid_of("JW0019"))],
        author="alice",
    )
    for task in alice.tasks:
        print(f"  predicted {task.ref} conf={task.confidence:.2f} -> {task.decision.value}")

    print("\n== expert resolves any pending tasks ==")
    for task in nebula.pending_tasks():
        print(f"  VERIFY ATTACHMENT {task.task_id}  ({task.ref})")
        nebula.execute_command(f"VERIFY ATTACHMENT {task.task_id}")

    print("\n== the annotated answer of: SELECT * FROM Gene WHERE Family = 'F1' ==")
    for row in propagate(connection, "Gene", where="Family = 'F1'"):
        notes = [text[:46] + "..." for text, _ in row.annotations]
        print(f"  {row.values[0]:8} {row.values[1]:6} annotations={notes}")
    backend.close()


if __name__ == "__main__":
    main()
