"""Identifier and word vocabularies for the synthetic bio-database.

The generated identifier schemes deliberately mirror the paper's examples:

* gene ids follow ``JW[0-9]{4}`` (the paper's ``JW0013`` etc.);
* gene names follow ``[a-z]{3}[A-Z]`` (the paper's ``grpC``, ``yaaB``);
* protein accessions follow ``P[0-9]{5}`` (UniProt style);
* protein names are *heterogeneous* on purpose (``G-Actin``-style,
  ``Ligase42``-style, plain stems), so pattern inference fails on them and
  NebulaMeta falls back to sample matching — exactly the tiered-evidence
  regime the paper's experiments rely on;
* the filler vocabulary contains common scientific English, a few
  protein-type ontology terms, and a few 4-letter lowercase words whose
  shape shadows gene names — the calibrated sources of false-positive
  keywords at the loose cutoff thresholds.

All drawing is deterministic under a seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from ..utils.tokenize import normalize_word

#: Protein-type controlled vocabulary — becomes the PType ontology.
PROTEIN_TYPES: Tuple[str, ...] = (
    "enzyme",
    "kinase",
    "receptor",
    "transporter",
    "chaperone",
    "ligase",
    "protease",
    "polymerase",
)

#: Gene families.
GENE_FAMILIES: Tuple[str, ...] = tuple(f"F{i}" for i in range(1, 10))

#: Scientific filler words (never embedded references).  A few are 4-letter
#: lowercase (shape-shadowing gene names); a few are ontology terms.
FILLER_WORDS: Tuple[str, ...] = (
    "analysis", "approach", "assay", "cells", "cloning", "compared",
    "conditions", "confirmed", "consistent", "culture", "data", "derived",
    "described", "detected", "developed", "effect", "evidence", "exhibited",
    "experiments", "expression", "figure", "findings", "growth", "identified",
    "increased", "indicated", "involved", "levels", "line", "measured",
    "mechanism", "method", "model", "observed", "obtained", "pathway",
    "performed", "phenotype", "presented", "previously", "process", "profile",
    "rate", "reduced", "region", "report", "response", "revealed", "role",
    "sampled", "shown", "signal", "strain", "strains", "studied", "suggest",
    "system", "technique", "tested", "tissue", "treatment", "validated",
    "wild", "yield",
)

#: Sentence templates the synthesizer fills with filler words.  ``{w}``
#: slots take filler words; templates containing ``{concept}`` mention a
#: schema concept, which is what lets loose cutoffs pair a junk value word
#: with a nearby concept into a false-positive query.
FILLER_TEMPLATES: Tuple[str, ...] = (
    "The {w} was {w} under standard {w}.",
    "Our {w} {w} a marked {w} in the {w}.",
    "These {w} were {w} with the {w} {w}.",
    "Further {w} {w} the {w} of this {w}.",
    "The {concept} {w} {w} showed a clear {w}.",
    "We {w} the {concept} {w} across all {w}.",
    "A {w} {w} was {w} during the {w} phase.",
    "This {w} is {w} with earlier {w} of the {w}.",
)

#: Concept words usable inside filler templates.
FILLER_CONCEPTS: Tuple[str, ...] = ("gene", "protein", "family", "sequence")

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = "ABCDEFGHIJKLMNPQRSTUVWXYZ"

_PROTEIN_STEMS = (
    "Actin", "Tubulin", "Ligase", "Kinase", "Helicase", "Ferritin",
    "Myosin", "Keratin", "Laminin", "Globin", "Lectin", "Amylase",
    "Catalase", "Elastin", "Fibrin", "Pepsin", "Renin", "Trypsin",
)


@dataclass(frozen=True)
class GeneRecord:
    gid: str
    name: str
    length: int
    seq: str
    family: str


@dataclass(frozen=True)
class ProteinRecord:
    pid: str
    pname: str
    ptype: str
    gid: str
    mass: float


class VocabularyBuilder:
    """Deterministic factory for identifiers, names, and filler text."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._used_gene_names: Set[str] = set()
        self._filler_normalized = frozenset(normalize_word(w) for w in FILLER_WORDS)

    # ------------------------------------------------------------------
    # Identifiers
    # ------------------------------------------------------------------

    def gene_id(self, index: int) -> str:
        """``JW####`` — rigid scheme, pattern-inferable."""
        return f"JW{index:04d}"

    def protein_id(self, index: int) -> str:
        """``P#####`` — rigid scheme, pattern-inferable."""
        return f"P{index:05d}"

    def publication_id(self, index: int) -> str:
        """``PM######`` — rigid scheme."""
        return f"PM{index:06d}"

    def gene_name(self) -> str:
        """Fresh ``[a-z]{3}[A-Z]`` name, never colliding with filler words.

        The name space holds 26^3 x 25 combinations, so uniqueness holds
        comfortably for any realistic gene count.
        """
        while True:
            head = "".join(self.rng.choice(_LOWER) for _ in range(3))
            name = head + self.rng.choice(_UPPER)
            key = normalize_word(name)
            if key in self._filler_normalized or key in self._used_gene_names:
                continue
            self._used_gene_names.add(key)
            return name

    def protein_name(self, index: int) -> str:
        """Deliberately heterogeneous name formats (defeats pattern inference)."""
        stem = self.rng.choice(_PROTEIN_STEMS)
        shape = index % 3
        if shape == 0:
            return f"{self.rng.choice(_UPPER)}-{stem}"
        if shape == 1:
            return f"{stem}{self.rng.randrange(10, 99)}"
        return f"{stem.lower()}in{self.rng.randrange(1, 9)}"

    def dna_sequence(self, length: int = 8) -> str:
        return "".join(self.rng.choice("ACGT") for _ in range(length))

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    def gene(self, index: int) -> GeneRecord:
        return GeneRecord(
            gid=self.gene_id(index),
            name=self.gene_name(),
            length=self.rng.randrange(300, 2500),
            seq=self.dna_sequence(),
            family=self.rng.choice(GENE_FAMILIES),
        )

    def protein(self, index: int, gid: str) -> ProteinRecord:
        return ProteinRecord(
            pid=self.protein_id(index),
            pname=self.protein_name(index),
            ptype=self.rng.choice(PROTEIN_TYPES),
            gid=gid,
            mass=round(self.rng.uniform(10.0, 250.0), 2),
        )

    # ------------------------------------------------------------------
    # Filler text
    # ------------------------------------------------------------------

    def filler_sentence(self) -> str:
        """One filler sentence; occasionally name-drops a concept word."""
        template = self.rng.choice(FILLER_TEMPLATES)
        concept = self.rng.choice(FILLER_CONCEPTS)
        words: List[str] = []
        rendered = template
        while "{w}" in rendered:
            rendered = rendered.replace("{w}", self.rng.choice(FILLER_WORDS), 1)
        return rendered.replace("{concept}", concept)

    def publication_title(self) -> str:
        a, b = self.rng.choice(FILLER_WORDS), self.rng.choice(FILLER_WORDS)
        return f"A {a} {b} study of {self.rng.choice(FILLER_CONCEPTS)} function"
