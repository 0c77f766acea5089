"""Synthetic curated bio-database builder (the UniProt substitute).

Produces a SQLite database with the paper's schema shape:

* ``Gene(GID, Name, Length, Seq, Family)``;
* ``Protein(PID, PName, PType, GID, Mass)`` — N:1 to Gene;
* ``Publication(PubID, Title, Abstract, Year)``;
* ``ProteinPublication(PID, PubID)`` — the N:M bridge.

Every publication's abstract embeds a known set of references to gene and
protein tuples (the generator's ground truth).  Each publication is also
registered as an *annotation* attached to exactly its referenced tuples,
so the resulting annotated database is, by construction, the experiment's
ideal reference ``D_ideal`` (paper §8.1, step 1).

Publications cite within *communities* of related genes (plus occasional
strays into nearby communities), which gives the co-annotation graph the
local structure the focal-based techniques exploit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..annotations.engine import AnnotationManager
from ..meta.concepts import ConceptRef
from ..meta.ontology import Ontology
from ..meta.repository import NebulaMeta
from ..storage.backends import SqliteFileBackend
from ..storage.compat import Connection
from ..types import CellRef, TupleRef
from ..utils.rng import make_rng
from .text import EmbeddedReference, TextSynthesizer
from .vocab import PROTEIN_TYPES, GeneRecord, ProteinRecord, VocabularyBuilder

_DDL = """
CREATE TABLE Gene (
    GID    TEXT PRIMARY KEY,
    Name   TEXT NOT NULL,
    Length INTEGER NOT NULL,
    Seq    TEXT NOT NULL,
    Family TEXT NOT NULL
);
CREATE TABLE Protein (
    PID   TEXT PRIMARY KEY,
    PName TEXT NOT NULL,
    PType TEXT NOT NULL,
    GID   TEXT NOT NULL REFERENCES Gene(GID),
    Mass  REAL NOT NULL
);
CREATE TABLE Publication (
    PubID    TEXT PRIMARY KEY,
    Title    TEXT NOT NULL,
    Abstract TEXT NOT NULL,
    Year     INTEGER NOT NULL
);
CREATE TABLE ProteinPublication (
    PID   TEXT NOT NULL REFERENCES Protein(PID),
    PubID TEXT NOT NULL REFERENCES Publication(PubID),
    PRIMARY KEY (PID, PubID)
);
"""

#: Reference-count distribution per publication: most publications cite a
#: handful of tuples, a few cite many — covering the paper's 1-10 band.
_REF_COUNT_WEIGHTS: Tuple[Tuple[int, int], ...] = (
    (1, 18), (2, 20), (3, 18), (4, 14), (5, 10),
    (6, 8), (7, 5), (8, 3), (9, 2), (10, 2),
)


@dataclass(frozen=True)
class BioDatabaseSpec:
    """Size and shape knobs of the generated database."""

    genes: int = 240
    proteins: int = 140
    publications: int = 1400
    community_size: int = 10
    #: Probability that a publication cites one tuple outside its community.
    stray_probability: float = 0.25
    #: Abstract byte budget (min, max).
    abstract_bytes: Tuple[int, int] = (180, 420)
    seed: int = 7

    def scaled(self, factor: int) -> "BioDatabaseSpec":
        """Uniformly scale the table cardinalities (the D_small/mid/large knob)."""
        return BioDatabaseSpec(
            genes=self.genes * factor,
            proteins=self.proteins * factor,
            publications=self.publications * factor,
            community_size=self.community_size,
            stray_probability=self.stray_probability,
            abstract_bytes=self.abstract_bytes,
            seed=self.seed,
        )


@dataclass
class PublicationTruth:
    """Ground truth of one publication-annotation."""

    pub_key: str
    annotation_id: int
    references: Tuple[EmbeddedReference, ...]
    refs: Tuple[TupleRef, ...]


@dataclass
class BioDatabase:
    """The generated database plus its oracle and metadata."""

    connection: Connection
    spec: BioDatabaseSpec
    genes: List[GeneRecord]
    proteins: List[ProteinRecord]
    gene_rowids: Dict[str, int]
    protein_rowids: Dict[str, int]
    manager: AnnotationManager
    meta: NebulaMeta
    truths: Dict[int, PublicationTruth] = field(default_factory=dict)
    #: The backend holding the data; None when the caller passed only a
    #: connection (the caller then owns the database).
    backend: Optional[SqliteFileBackend] = None

    # ------------------------------------------------------------------

    def resolve(self, kind: str, key: str) -> TupleRef:
        """TupleRef of a gene (by GID) or protein (by PID)."""
        if kind == "gene":
            return TupleRef("Gene", self.gene_rowids[key])
        return TupleRef("Protein", self.protein_rowids[key])

    def resolve_references(
        self, references: Sequence[EmbeddedReference]
    ) -> Tuple[TupleRef, ...]:
        ordered: List[TupleRef] = []
        seen = set()
        for reference in references:
            ref = self.resolve(reference.kind, reference.key)
            if ref not in seen:
                seen.add(ref)
                ordered.append(ref)
        return tuple(ordered)

    def community_count(self) -> int:
        return max(1, (len(self.genes) + self.spec.community_size - 1) // self.spec.community_size)

    def community_members(self, community: int) -> Tuple[List[GeneRecord], List[ProteinRecord]]:
        """Genes and proteins belonging to one community."""
        low = community * self.spec.community_size
        high = low + self.spec.community_size
        genes = self.genes[low:high]
        gids = {g.gid for g in genes}
        proteins = [p for p in self.proteins if p.gid in gids]
        return genes, proteins

    @property
    def searchable_columns(self) -> Tuple[Tuple[str, str], ...]:
        """The referencing columns of the registered concepts."""
        columns = []
        for concept in self.meta.concepts:
            for column in sorted(
                concept.referencing_columns, key=lambda c: (c.table, c.column)
            ):
                pair = (column.table, column.column)
                if pair not in columns:
                    columns.append(pair)
        return tuple(columns)

    @property
    def aliases(self) -> Dict[str, Tuple[str, Optional[str]]]:
        """Alias map handed to the keyword-search engine."""
        return {
            "genes": ("Gene", None),
            "proteins": ("Protein", None),
            "id": ("Gene", "GID"),
            "accession": ("Protein", "PID"),
        }


def generate_bio_database(
    spec: Optional[BioDatabaseSpec] = None,
    connection: Optional[Connection] = None,
    backend: Optional[SqliteFileBackend] = None,
) -> BioDatabase:
    """Generate the full synthetic annotated database.

    The data lands on ``backend``'s primary connection when one is given,
    on ``connection`` otherwise, and on a fresh temporary database
    (:meth:`SqliteFileBackend.temporary`, deleted when
    ``database.backend`` closes) when neither is.  The returned
    :class:`BioDatabase` carries the oracle (per-publication ground
    truth), a bootstrapped :class:`NebulaMeta`, and the passive
    annotation manager holding the ideal attachment set.
    """
    spec = spec or BioDatabaseSpec()
    if backend is not None:
        connection = backend.primary
    elif connection is None:
        backend = SqliteFileBackend.temporary()
        connection = backend.primary
    connection.executescript(_DDL)

    vocab = VocabularyBuilder(make_rng(spec.seed, "vocab"))
    synthesizer = TextSynthesizer(vocab, make_rng(spec.seed, "text"))
    rng = make_rng(spec.seed, "structure")

    genes = [vocab.gene(i) for i in range(spec.genes)]
    proteins = [
        vocab.protein(i, _protein_gene(genes, i, spec, rng).gid)
        for i in range(spec.proteins)
    ]

    gene_rowids = _insert_genes(connection, genes)
    protein_rowids = _insert_proteins(connection, proteins)

    manager = AnnotationManager(connection)
    meta = _build_meta(connection)
    database = BioDatabase(
        connection=connection,
        spec=spec,
        genes=genes,
        proteins=proteins,
        gene_rowids=gene_rowids,
        protein_rowids=protein_rowids,
        manager=manager,
        meta=meta,
        backend=backend,
    )
    _generate_publications(database, synthesizer, rng)
    connection.commit()
    return database


# ----------------------------------------------------------------------
# Internal generation steps
# ----------------------------------------------------------------------


def _protein_gene(
    genes: List[GeneRecord], index: int, spec: BioDatabaseSpec, rng: random.Random
) -> GeneRecord:
    """Assign protein ``index`` to a gene, keeping community locality."""
    # Spread proteins across communities proportionally, jittered.
    anchor = int(index / max(1, spec.proteins) * len(genes))
    jitter = rng.randrange(-spec.community_size // 2, spec.community_size // 2 + 1)
    position = min(len(genes) - 1, max(0, anchor + jitter))
    return genes[position]


def _insert_genes(connection: Connection, genes: Sequence[GeneRecord]) -> Dict[str, int]:
    rowids: Dict[str, int] = {}
    for gene in genes:
        cursor = connection.execute(
            "INSERT INTO Gene (GID, Name, Length, Seq, Family) VALUES (?, ?, ?, ?, ?)",
            (gene.gid, gene.name, gene.length, gene.seq, gene.family),
        )
        rowids[gene.gid] = int(cursor.lastrowid)
    return rowids


def _insert_proteins(
    connection: Connection, proteins: Sequence[ProteinRecord]
) -> Dict[str, int]:
    rowids: Dict[str, int] = {}
    for protein in proteins:
        cursor = connection.execute(
            "INSERT INTO Protein (PID, PName, PType, GID, Mass) VALUES (?, ?, ?, ?, ?)",
            (protein.pid, protein.pname, protein.ptype, protein.gid, protein.mass),
        )
        rowids[protein.pid] = int(cursor.lastrowid)
    return rowids


def _build_meta(connection: Connection) -> NebulaMeta:
    """Populate NebulaMeta as the paper's experts did (§8.1):

    the Gene and Protein concepts with their referencing columns, plus the
    Gene Family concept, equivalent names, the protein-type ontology, and
    bootstrapped samples / inferred patterns for every referencing column.
    """
    meta = NebulaMeta()
    meta.add_concept(
        ConceptRef.build(
            "Gene", "Gene", [["GID"], ["Name"]], equivalent_names=["genes", "locus"]
        )
    )
    meta.add_concept(
        ConceptRef.build(
            "Protein",
            "Protein",
            [["PID"], ["PName", "PType"]],
            equivalent_names=["proteins", "polypeptide"],
        )
    )
    meta.add_concept(
        ConceptRef.build("Gene Family", "Gene", [["Family"]], equivalent_names=["family"])
    )
    meta.add_table_equivalents("Gene", ["genes", "locus"])
    meta.add_table_equivalents("Protein", ["proteins", "polypeptide"])
    meta.add_column_equivalents("Gene", "GID", ["id", "identifier", "accession"])
    meta.add_column_equivalents("Gene", "Name", ["symbol"])
    meta.add_column_equivalents("Protein", "PID", ["id", "identifier", "accession"])
    meta.add_column_equivalents("Protein", "PName", ["symbol"])
    meta.attach_ontology("Protein", "PType", Ontology("protein-types", PROTEIN_TYPES))
    meta.bootstrap_from_connection(connection)
    return meta


def _generate_publications(
    database: BioDatabase, synthesizer: TextSynthesizer, rng: random.Random
) -> None:
    spec = database.spec
    vocab = synthesizer.vocab
    communities = database.community_count()
    for index in range(spec.publications):
        community = rng.randrange(communities)
        genes, proteins = _pick_citations(database, community, rng)
        max_bytes = rng.randrange(*spec.abstract_bytes)
        abstract, references = synthesizer.compose(genes, proteins, max_bytes)
        pub_key = vocab.publication_id(index)
        database.connection.execute(
            "INSERT INTO Publication (PubID, Title, Abstract, Year) VALUES (?, ?, ?, ?)",
            (pub_key, vocab.publication_title(), abstract, rng.randrange(1995, 2016)),
        )
        refs = database.resolve_references(references)
        for reference in references:
            if reference.kind == "protein":
                database.connection.execute(
                    "INSERT OR IGNORE INTO ProteinPublication (PID, PubID) VALUES (?, ?)",
                    (reference.key, pub_key),
                )
        annotation = database.manager.add_annotation(
            abstract,
            attach_to=[CellRef(r.table, r.rowid) for r in refs],
            author="curator",
            verify_targets=False,
        )
        database.truths[annotation.annotation_id] = PublicationTruth(
            pub_key=pub_key,
            annotation_id=annotation.annotation_id,
            references=tuple(references),
            refs=refs,
        )


def _pick_citations(
    database: BioDatabase, community: int, rng: random.Random
) -> Tuple[List[GeneRecord], List[ProteinRecord]]:
    """Choose a publication's cited tuples: community members + rare strays."""
    count = _weighted_ref_count(rng)
    genes, proteins = database.community_members(community)
    pool: List[Tuple[str, object]] = [("gene", g) for g in genes] + [
        ("protein", p) for p in proteins
    ]
    if not pool:
        raise AssertionError("empty community pool")
    rng.shuffle(pool)
    chosen = pool[:count]
    if chosen and rng.random() < database.spec.stray_probability:
        stray = _pick_stray(database, community, rng)
        if stray is not None:
            chosen[-1] = stray
    cited_genes = [record for kind, record in chosen if kind == "gene"]
    cited_proteins = [record for kind, record in chosen if kind == "protein"]
    return cited_genes, cited_proteins


def _pick_stray(
    database: BioDatabase, community: int, rng: random.Random
) -> Optional[Tuple[str, object]]:
    communities = database.community_count()
    if communities <= 1:
        return None
    offset = rng.choice((1, 1, 2, 2, 3))
    direction = rng.choice((-1, 1))
    target = (community + direction * offset) % communities
    genes, proteins = database.community_members(target)
    pool: List[Tuple[str, object]] = [("gene", g) for g in genes] + [
        ("protein", p) for p in proteins
    ]
    if not pool:
        return None
    return rng.choice(pool)


def _weighted_ref_count(rng: random.Random) -> int:
    total = sum(weight for _, weight in _REF_COUNT_WEIGHTS)
    roll = rng.randrange(total)
    cumulative = 0
    for count, weight in _REF_COUNT_WEIGHTS:
        cumulative += weight
        if roll < cumulative:
            return count
    return _REF_COUNT_WEIGHTS[-1][0]
