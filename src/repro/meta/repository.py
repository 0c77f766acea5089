"""The NebulaMeta repository (paper §5.1).

``NebulaMeta`` aggregates every auxiliary-information source Nebula consults
while analyzing an annotation:

* the ``ConceptRefs`` table (key concepts + referencing columns);
* expert-provided equivalent names for tables and columns;
* the lexical knowledge base (:class:`~repro.meta.lexicon.Lexicon`);
* per-column ontologies, value patterns, and drawn samples.

It exposes the two probability estimators the signature maps are built on:

``concept_mappings(word)``
    candidate mappings of a word to a *table name* or *column name*, each
    with the estimate ``p(w, c)`` — exact-name and equivalent-name matches
    score higher than lexicon-synonym matches, per the paper.

``value_mappings(word)``
    candidate mappings of a word to a *column's value domain*, each with the
    estimate ``d(w, c)`` combining data-type compatibility, ontology
    membership, pattern conformance, and sample matching.

``concept_mappings`` reads an inverted name table precomputed once per
repository state, the EMBANKS idea of replacing per-query scans with
prebuilt structures: only a few dozen words can score p(w, c) > 0, so one
dict probe answers every word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, cast

from ..errors import MetadataError, UnknownConceptError
from ..perf.cache import MISS, AnalysisCache
from ..storage.compat import Connection
from ..utils.rng import make_rng
from ..utils.sql import quote_identifier
from ..utils.tokenize import is_stopword, normalize_word
from .concepts import ConceptRef, ReferencingColumn
from .lexicon import DEFAULT_LEXICON, Lexicon
from .ontology import Ontology
from .patterns import ValuePattern, infer_pattern
from .sampling import ColumnSample

# Score constants for p(w, c): exact / equivalent / synonym name matches.
EXACT_NAME_SCORE = 0.95
EQUIVALENT_NAME_SCORE = 0.85
SYNONYM_NAME_SCORE = 0.65

# Score components for d(w, c).
TYPE_COMPATIBILITY_SCORE = 0.25
ONTOLOGY_MEMBER_SCORE = 0.65
PATTERN_MATCH_SCORE = 0.65
PATTERN_CASEFOLD_SCORE = 0.35
SAMPLE_WEIGHT = 0.65


@dataclass(frozen=True)
class ConceptMapping:
    """A candidate mapping of an annotation word to a schema item."""

    #: ``"table"`` or ``"column"`` — the rectangle / triangle of Figure 4.
    kind: str
    #: The concept (ConceptRefs row) this mapping belongs to.
    concept: str
    #: Table the mapping points at.
    table: str
    #: Column the mapping points at (None for table mappings).
    column: Optional[str]
    #: The estimate p(w, c) in [0, 1].
    score: float


@dataclass(frozen=True)
class ValueMapping:
    """A candidate mapping of an annotation word to a column's domain."""

    table: str
    column: str
    #: The estimate d(w, c) in [0, 1].
    score: float
    #: Which evidence fired, for verification-task evidence reports.
    evidence: Tuple[str, ...] = ()


#: Normalized word -> its p(w, c) > 0 mappings; absent words map to none.
_NameTable = Dict[str, Tuple[ConceptMapping, ...]]


def _type_compatible(word: str, declared_type: str) -> bool:
    """Whether ``word`` could be a value of a column of ``declared_type``."""
    kind = (declared_type or "TEXT").upper()
    if "INT" in kind:
        return word.lstrip("+-").isdigit()
    if "REAL" in kind or "FLOA" in kind or "DOUB" in kind:
        try:
            float(word)
        except ValueError:
            return False
        return True
    return True  # TEXT accepts anything


class NebulaMeta:
    """Aggregated auxiliary-information repository."""

    def __init__(self, lexicon: Optional[Lexicon] = None) -> None:
        self.lexicon = lexicon if lexicon is not None else DEFAULT_LEXICON
        self._concepts: Dict[str, ConceptRef] = {}
        self._table_equivalents: Dict[str, set] = {}
        self._column_equivalents: Dict[Tuple[str, str], set] = {}
        self._column_types: Dict[Tuple[str, str], str] = {}
        self._ontologies: Dict[Tuple[str, str], Ontology] = {}
        self._patterns: Dict[Tuple[str, str], ValuePattern] = {}
        self._samples: Dict[Tuple[str, str], ColumnSample] = {}
        #: Bumped on every registration; versions the name table and the
        #: value memo.
        self._generation = 0
        # Private per-repository memo table for value_mappings — a
        # repository may be shared across engines, so the cache must live
        # with (and be invalidated by) the repository itself.  Mutations
        # MUST go through the registration methods above for the
        # generation stamp to stay honest.
        self._cache = AnalysisCache()
        # (stamp, name table), built lazily and replaced in one assignment
        # when the stamp moves, so a reader never pairs a table with the
        # stamp of another repository state.
        self._names: Optional[Tuple[Tuple[int, int], _NameTable]] = None

    @property
    def generation(self) -> int:
        return self._generation

    def configure_cache(self, max_entries: int) -> None:
        """Resize the ``value_mappings`` memo table (0 disables memoization).

        Swapping in a fresh cache is always safe — entries are pure
        derivations of repository state.  Mainly an ablation knob: the
        benchmarks use it to measure the un-memoized pipeline, so with 0
        entries ``concept_mappings`` also skips the name table (the memo of
        every word that can score) and each estimator call recomputes from
        the repository.
        """
        self._cache = AnalysisCache(max_entries)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_concept(self, concept: ConceptRef) -> None:
        """Register a ConceptRefs row."""
        self._generation += 1
        self._concepts[normalize_word(concept.concept)] = concept

    def get_concept(self, name: str) -> ConceptRef:
        try:
            return self._concepts[normalize_word(name)]
        except KeyError:
            raise UnknownConceptError(name) from None

    @property
    def concepts(self) -> Tuple[ConceptRef, ...]:
        return tuple(self._concepts.values())

    def add_table_equivalents(self, table: str, names: Iterable[str]) -> None:
        """Expert aliases for a table name (e.g. 'genes' for 'Gene')."""
        self._generation += 1
        bucket = self._table_equivalents.setdefault(normalize_word(table), set())
        bucket.update(normalize_word(n) for n in names)

    def add_column_equivalents(self, table: str, column: str, names: Iterable[str]) -> None:
        """Expert aliases for a column name (e.g. 'gene id' for 'GID')."""
        self._generation += 1
        key = (normalize_word(table), normalize_word(column))
        bucket = self._column_equivalents.setdefault(key, set())
        bucket.update(normalize_word(n) for n in names)

    def set_column_type(self, table: str, column: str, declared_type: str) -> None:
        self._generation += 1
        self._column_types[(normalize_word(table), normalize_word(column))] = declared_type

    def attach_ontology(self, table: str, column: str, ontology: Ontology) -> None:
        self._generation += 1
        self._ontologies[(normalize_word(table), normalize_word(column))] = ontology

    def attach_pattern(self, table: str, column: str, pattern: ValuePattern) -> None:
        self._generation += 1
        self._patterns[(normalize_word(table), normalize_word(column))] = pattern

    def attach_sample(self, sample: ColumnSample) -> None:
        self._generation += 1
        self._samples[(normalize_word(sample.table), normalize_word(sample.column))] = sample

    def ontology_for(self, table: str, column: str) -> Optional[Ontology]:
        return self._ontologies.get((normalize_word(table), normalize_word(column)))

    def pattern_for(self, table: str, column: str) -> Optional[ValuePattern]:
        return self._patterns.get((normalize_word(table), normalize_word(column)))

    def sample_for(self, table: str, column: str) -> Optional[ColumnSample]:
        return self._samples.get((normalize_word(table), normalize_word(column)))

    # ------------------------------------------------------------------
    # Bootstrap from a live database
    # ------------------------------------------------------------------

    def bootstrap_from_connection(
        self,
        connection: Connection,
        sample_size: int = 50,
        infer_patterns: bool = True,
        seed: Optional[int] = 7,
    ) -> None:
        """Harvest column types, samples, and inferred patterns.

        For every referencing column of every registered concept, this
        records the declared SQL type, draws a value sample, and — when
        ``infer_patterns`` — tries to generalize the sample into a syntactic
        :class:`ValuePattern`.  Columns that obtain a pattern keep their
        sample too (used for evidence), but per the paper the sample only
        contributes to ``d(w, c)`` when neither ontology nor pattern exist.

        Every sample is drawn from one seeded generator, so the columns are
        visited in a fixed (table, column) order: ``referencing_columns``
        is a set, whose iteration order follows the string hash seed.
        """
        rng = make_rng(seed, "meta-sampling")
        for concept in self.concepts:
            for column in sorted(
                concept.referencing_columns, key=lambda c: (c.table, c.column)
            ):
                self._bootstrap_column(connection, column, sample_size, infer_patterns, rng)

    def _bootstrap_column(
        self,
        connection: Connection,
        column: ReferencingColumn,
        sample_size: int,
        infer_patterns: bool,
        rng: random.Random,
    ) -> None:
        key = (normalize_word(column.table), normalize_word(column.column))
        cursor = connection.execute(
            f"PRAGMA table_info({quote_identifier(column.table)})"
        )
        declared = {row[1].casefold(): (row[2] or "TEXT") for row in cursor.fetchall()}
        if column.column.casefold() not in declared:
            raise MetadataError(
                f"referencing column {column.qualified} absent from database schema"
            )
        self._column_types[key] = declared[column.column.casefold()]
        rows = connection.execute(
            f"SELECT DISTINCT {quote_identifier(column.column)} "
            f"FROM {quote_identifier(column.table)} "
            f"WHERE {quote_identifier(column.column)} IS NOT NULL LIMIT 5000"
        ).fetchall()
        population = [str(r[0]) for r in rows]
        sample = ColumnSample.draw(
            column.table, column.column, population, size=sample_size, rng=rng
        )
        self.attach_sample(sample)
        if infer_patterns and key not in self._patterns:
            pattern = infer_pattern(population[: max(200, sample_size)])
            if pattern is not None:
                self.attach_pattern(column.table, column.column, pattern)

    # ------------------------------------------------------------------
    # p(w, c): concept-name matching
    # ------------------------------------------------------------------

    def concept_mappings(self, word: str) -> List[ConceptMapping]:
        """All candidate schema-item mappings of ``word`` with p(w, c) > 0.

        Matching tiers (paper §5.2.1 Step 1): exact name > equivalent name >
        lexicon synonym.  Stopwords never map.

        One probe of the inverted name table, which is rebuilt when the
        repository or lexicon generation moves; a direct computation when
        :meth:`configure_cache` disabled memoization.
        """
        if not self._cache.enabled:
            return self._concept_mappings(word)
        return list(self._name_table().get(normalize_word(word), ()))

    def _stamp(self) -> Tuple[int, int]:
        return (self._generation, self.lexicon.generation)

    def _name_table(self) -> _NameTable:
        stamp = self._stamp()
        names = self._names
        if names is None or names[0] != stamp:
            names = (stamp, self._build_name_table())
            self._names = names
        return names[1]

    def _build_name_table(self) -> _NameTable:
        """Map every word that can score p(w, c) > 0 to its mappings.

        A word scores only by equalling a table, column or concept name or
        one of their equivalent names, or by sharing a lexicon synset with
        one of them, so those names and their synonyms are the only keys.
        """
        names: Set[str] = set()
        for concept in self.concepts:
            names.update((concept.table, concept.concept))
            names.update(concept.equivalent_names)
            names.update(self._table_equivalents.get(normalize_word(concept.table), ()))
            for column in concept.referencing_columns:
                column_key = (normalize_word(column.table), normalize_word(column.column))
                names.add(column.column)
                names.update(self._column_equivalents.get(column_key, ()))
        keys = {normalize_word(name) for name in names}
        for key in list(keys):
            keys.update(self.lexicon.synonyms(key))
        table: _NameTable = {}
        for key in keys:
            mappings = self._concept_mappings(key)
            if mappings:
                table[key] = tuple(mappings)
        return table

    def _concept_mappings(self, word: str) -> List[ConceptMapping]:
        key = normalize_word(word)
        if not key or is_stopword(key):
            return []
        mappings: List[ConceptMapping] = []
        for concept in self.concepts:
            table_score = self._name_score(
                key,
                canonical=concept.table,
                equivalents=self._table_equivalents.get(normalize_word(concept.table), set())
                | ({normalize_word(concept.concept)} | set(concept.equivalent_names)),
            )
            if table_score > 0.0:
                mappings.append(
                    ConceptMapping(
                        kind="table",
                        concept=concept.concept,
                        table=concept.table,
                        column=None,
                        score=table_score,
                    )
                )
            for column in concept.referencing_columns:
                column_key = (normalize_word(column.table), normalize_word(column.column))
                column_score = self._name_score(
                    key,
                    canonical=column.column,
                    equivalents=self._column_equivalents.get(column_key, set()),
                )
                if column_score > 0.0:
                    mappings.append(
                        ConceptMapping(
                            kind="column",
                            concept=concept.concept,
                            table=column.table,
                            column=column.column,
                            score=column_score,
                        )
                    )
        return _dedupe_concept_mappings(mappings)

    def _name_score(self, word: str, canonical: str, equivalents: set) -> float:
        canonical_key = normalize_word(canonical)
        if word == canonical_key:
            return EXACT_NAME_SCORE
        if word in equivalents:
            return EQUIVALENT_NAME_SCORE
        if self.lexicon.are_synonyms(word, canonical_key) or any(
            self.lexicon.are_synonyms(word, eq) for eq in equivalents
        ):
            return SYNONYM_NAME_SCORE
        return 0.0

    # ------------------------------------------------------------------
    # d(w, c): value-domain matching
    # ------------------------------------------------------------------

    def value_mappings(self, word: str) -> List[ValueMapping]:
        """All candidate value-domain mappings of ``word`` with d(w, c) > 0.

        Per the paper (§5.2.1 Step 2): data-type compatibility is a
        prerequisite; ontology membership and pattern conformance add strong
        evidence; the drawn sample contributes only when the column has
        neither an ontology nor a pattern.

        Memoized per exact word string — pattern matching is surface- and
        case-sensitive, so the key must not be normalized.
        """
        stamp = self._stamp()
        cached = self._cache.get("meta.values", word, stamp)
        if cached is not MISS:
            return list(cast(Tuple[ValueMapping, ...], cached))
        computed = self._value_mappings(word)
        self._cache.put("meta.values", word, stamp, tuple(computed))
        return computed

    def _value_mappings(self, word: str) -> List[ValueMapping]:
        surface = word.strip()
        key = normalize_word(word)
        if not surface or not key or is_stopword(key):
            return []
        mappings: List[ValueMapping] = []
        seen: set = set()
        for concept in self.concepts:
            for column in concept.referencing_columns:
                column_key = (normalize_word(column.table), normalize_word(column.column))
                if column_key in seen:
                    continue
                seen.add(column_key)
                mapping = self._value_score(surface, column)
                if mapping is not None:
                    mappings.append(mapping)
        mappings.sort(key=lambda m: (-m.score, m.table, m.column))
        return mappings

    def _value_score(self, word: str, column: ReferencingColumn) -> Optional[ValueMapping]:
        key = (normalize_word(column.table), normalize_word(column.column))
        declared_type = self._column_types.get(key, "TEXT")
        if not _type_compatible(word, declared_type):
            return None
        score = TYPE_COMPATIBILITY_SCORE
        evidence: List[str] = [f"type:{declared_type}"]
        ontology = self._ontologies.get(key)
        pattern = self._patterns.get(key)
        if ontology is not None and ontology.contains(word):
            score += ONTOLOGY_MEMBER_SCORE
            evidence.append(f"ontology:{ontology.name}")
        if pattern is not None:
            if pattern.matches(word):
                score += PATTERN_MATCH_SCORE
                evidence.append(f"pattern:{pattern.source}")
            elif pattern.matches_casefold(word):
                score += PATTERN_CASEFOLD_SCORE
                evidence.append(f"pattern~:{pattern.source}")
        if ontology is None and pattern is None:
            sample = self._samples.get(key)
            if sample is not None:
                contribution = SAMPLE_WEIGHT * sample.match_score(word)
                if contribution > 0.0:
                    score += contribution
                    evidence.append("sample")
        if score <= TYPE_COMPATIBILITY_SCORE:
            return None
        return ValueMapping(
            table=column.table,
            column=column.column,
            score=min(score, 1.0),
            evidence=tuple(evidence),
        )


def _dedupe_concept_mappings(mappings: Sequence[ConceptMapping]) -> List[ConceptMapping]:
    """Keep the best-scoring mapping per (kind, table, column) target."""
    best: Dict[Tuple[str, str, Optional[str]], ConceptMapping] = {}
    for mapping in mappings:
        target = (mapping.kind, normalize_word(mapping.table), mapping.column)
        current = best.get(target)
        if current is None or mapping.score > current.score:
            best[target] = mapping
    ordered = sorted(best.values(), key=lambda m: (-m.score, m.table, m.column or ""))
    return ordered
