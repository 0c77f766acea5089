"""Annotation-text synthesis with controlled embedded references.

The workload needs annotations whose text contains a *known* set of
embedded references (the oracle for Figures 11c and 15).  The synthesizer
renders each reference in one of the paper's context-match shapes:

* **TYPE1** — table + column + value: ``gene GID JW0014``;
* **TYPE2** — table + value: ``gene JW0014`` (the paper's common case);
* **TYPE3** — column + value: ``GID JW0014``;
* **BARE** — value only, relying on an *earlier* concept mention — the
  special case the backward concept search (§5.2.3 lines 8-12) exists
  for.  Bare references are always emitted inside a reference sentence
  whose leading concept word matches their kind, mirroring "gene ...
  JW0014 or grpC" in Alice's comment.

Reference sentences are interleaved with filler sentences up to the
annotation's byte budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

from ..errors import WorkloadError
from .vocab import GeneRecord, ProteinRecord, VocabularyBuilder


class ReferenceStyle(str, Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"
    BARE = "bare"


@dataclass(frozen=True)
class EmbeddedReference:
    """Ground truth for one reference embedded in an annotation's text."""

    #: ``"gene"`` or ``"protein"``.
    kind: str
    #: Primary key of the referenced record (GID / PID).
    key: str
    #: The value keyword as written in the text (GID, name, PID, or PName).
    keyword: str
    #: Which column of the record the keyword came from.
    column: str
    #: Rendering shape used.
    style: ReferenceStyle


def _gene_keyword(gene: GeneRecord, rng: random.Random) -> Tuple[str, str]:
    """(keyword, column) — references by GID (60%) or by Name (40%)."""
    if rng.random() < 0.6:
        return gene.gid, "GID"
    return gene.name, "Name"


def _protein_keyword(protein: ProteinRecord, rng: random.Random) -> Tuple[str, str]:
    """(keyword, column) — references by PID (50%) or by PName (50%)."""
    if rng.random() < 0.5:
        return protein.pid, "PID"
    return protein.pname, "PName"


class TextSynthesizer:
    """Render annotations with a controlled set of embedded references."""

    def __init__(self, vocab: VocabularyBuilder, rng: random.Random) -> None:
        self.vocab = vocab
        self.rng = rng

    # ------------------------------------------------------------------

    def compose(
        self,
        genes: Sequence[GeneRecord],
        proteins: Sequence[ProteinRecord],
        max_bytes: int,
        filler_ratio: float = 0.6,
    ) -> Tuple[str, List[EmbeddedReference]]:
        """Build an annotation referencing ``genes`` and ``proteins``.

        The reference sentences are mandatory; filler sentences are
        appended while the byte budget allows (roughly ``filler_ratio`` of
        the remaining budget).  Raises :class:`WorkloadError` when the
        references alone exceed ``max_bytes``.
        """
        sentences: List[str] = []
        references: List[EmbeddedReference] = []
        for kind, records in (("gene", list(genes)), ("protein", list(proteins))):
            while records:
                take = min(len(records), self.rng.randrange(1, 4))
                chunk, records = records[:take], records[take:]
                sentence, refs = self._reference_sentence(kind, chunk)
                sentences.append(sentence)
                references.extend(refs)
        if not references:
            raise WorkloadError("an annotation needs at least one reference")

        text = " ".join(sentences)
        if len(text.encode()) > max_bytes:
            # Retry with the tersest rendering before giving up.
            text, references = self._terse(genes, proteins)
            if len(text.encode()) > max_bytes:
                raise WorkloadError(
                    f"{len(references)} references cannot fit in {max_bytes} bytes"
                )
            return text, references

        # Interleave filler while the budget allows.
        budget = max_bytes - len(text.encode())
        filler: List[str] = []
        while budget > 40 and self.rng.random() < filler_ratio:
            sentence = self.vocab.filler_sentence()
            cost = len(sentence.encode()) + 1
            if cost > budget:
                break
            filler.append(sentence)
            budget -= cost
        combined = self._interleave(sentences, filler)
        return " ".join(combined), references

    # ------------------------------------------------------------------

    def _reference_sentence(
        self, kind: str, records: Sequence
    ) -> Tuple[str, List[EmbeddedReference]]:
        """One sentence referencing 1-3 same-kind records.

        The first record takes a TYPE1/TYPE2/TYPE3 form; subsequent records
        are BARE values relying on the sentence's leading concept word.
        """
        refs: List[EmbeddedReference] = []
        keywords: List[str] = []
        columns: List[str] = []
        # One referencing column for the whole sentence: humans writing
        # "GID JW0013, JW0014 and JW0015" do not switch to names mid-list.
        if kind == "gene":
            sentence_column = "GID" if self.rng.random() < 0.6 else "Name"
        else:
            sentence_column = "PID" if self.rng.random() < 0.5 else "PName"
        for record in records:
            if kind == "gene":
                keyword = record.gid if sentence_column == "GID" else record.name
                column = sentence_column
                key = record.gid
            else:
                keyword = record.pid if sentence_column == "PID" else record.pname
                column = sentence_column
                key = record.pid
            keywords.append(keyword)
            columns.append(column)
            refs.append(
                EmbeddedReference(
                    kind=kind, key=key, keyword=keyword, column=column,
                    style=ReferenceStyle.BARE,  # fixed below for the head
                )
            )

        concept = kind if len(records) == 1 else kind + "s"
        style = self._head_style()
        if style is ReferenceStyle.TYPE1:
            head = f"{concept} {columns[0]} {keywords[0]}"
        elif style is ReferenceStyle.TYPE3:
            head = f"{columns[0]} {keywords[0]}"
        else:
            head = f"{concept} {keywords[0]}"
        refs[0] = EmbeddedReference(
            kind=kind, key=refs[0].key, keyword=keywords[0],
            column=columns[0], style=style,
        )
        tail = ""
        if len(keywords) == 2:
            tail = f" and also {keywords[1]}"
        elif len(keywords) > 2:
            middle = ", then ".join(keywords[1:-1])
            tail = f", notably {middle} and later {keywords[-1]}"
        verb = self.rng.choice(("We examined", "Results involve", "This concerns"))
        return f"{verb} {head}{tail}.", refs

    def _head_style(self) -> ReferenceStyle:
        roll = self.rng.random()
        if roll < 0.15:
            return ReferenceStyle.TYPE1
        if roll < 0.30:
            return ReferenceStyle.TYPE3
        return ReferenceStyle.TYPE2

    def _terse(
        self, genes: Sequence[GeneRecord], proteins: Sequence[ProteinRecord]
    ) -> Tuple[str, List[EmbeddedReference]]:
        """Tersest possible rendering: ``genes a, b proteins c.``"""
        parts: List[str] = []
        references: List[EmbeddedReference] = []
        if genes:
            keywords = []
            for gene in genes:
                keyword, column = _gene_keyword(gene, self.rng)
                keywords.append(keyword)
                references.append(
                    EmbeddedReference("gene", gene.gid, keyword, column, ReferenceStyle.BARE)
                )
            references[0] = EmbeddedReference(
                "gene", genes[0].gid, keywords[0],
                references[0].column, ReferenceStyle.TYPE2,
            )
            parts.append(("genes " if len(genes) > 1 else "gene ") + ", ".join(keywords))
        if proteins:
            keywords = []
            start = len(references)
            for protein in proteins:
                keyword, column = _protein_keyword(protein, self.rng)
                keywords.append(keyword)
                references.append(
                    EmbeddedReference(
                        "protein", protein.pid, keyword, column, ReferenceStyle.BARE
                    )
                )
            references[start] = EmbeddedReference(
                "protein", proteins[0].pid, keywords[0],
                references[start].column, ReferenceStyle.TYPE2,
            )
            parts.append(
                ("proteins " if len(proteins) > 1 else "protein ") + ", ".join(keywords)
            )
        return " ".join(parts) + ".", references

    def _interleave(self, sentences: List[str], filler: List[str]) -> List[str]:
        """Shuffle filler between reference sentences, references first."""
        combined = list(sentences)
        for sentence in filler:
            position = self.rng.randrange(0, len(combined) + 1)
            combined.insert(position, sentence)
        return combined
