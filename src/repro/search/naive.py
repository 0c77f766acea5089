"""The Naive baseline (paper §4).

The naive approach passes the *entire annotation text* as one keyword query
to the search technique.  With dozens or hundreds of keywords the
configuration space is intractable, so — as the original degrades — the
technique effectively falls back to treating every keyword independently:
every content word is matched (exactly and as a substring) against every
text column of every table, and any row matched by any keyword joins the
answer.

This is exactly what makes the baseline useless in practice and what the
paper measures: execution touches every text column with unindexed scans
(orders of magnitude slower), and the answer set covers a significant
portion of the database with near-meaningless confidences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..storage.compat import Connection
from ..types import ScoredTuple, TupleRef
from ..utils.sql import quote_identifier
from ..utils.tokenize import is_stopword, tokenize
from .metadata import SchemaGraph

#: Keywords shorter than this only match exactly (LIKE on 1-2 chars would
#: match virtually every row and explode the scan cost beyond usefulness).
_MIN_SUBSTRING_LENGTH = 3

#: Confidence band of naive answers: mostly low, slightly increasing with
#: the number of distinct keywords that hit the tuple.
_BASE_CONFIDENCE = 0.34
_CONFIDENCE_SLOPE = 0.45
_MAX_CONFIDENCE = 0.80


@dataclass
class NaiveResult:
    """Answer of the naive whole-annotation search."""

    tuples: List[ScoredTuple]
    keyword_count: int
    scanned_columns: int
    elapsed: float

    @property
    def refs(self) -> List[TupleRef]:
        return [t.ref for t in self.tuples]


class NaiveSearch:
    """Whole-annotation keyword search over every text column."""

    def __init__(
        self,
        connection: Connection,
        schema: Optional[SchemaGraph] = None,
        max_keywords: Optional[int] = None,
    ) -> None:
        self.connection = connection
        self.schema = schema or SchemaGraph.from_connection(connection)
        self.max_keywords = max_keywords

    def search(self, annotation_text: str) -> NaiveResult:
        """Search with the entire annotation as the query."""
        started = time.perf_counter()
        keywords = self._keywords(annotation_text)
        hits: Dict[TupleRef, Set[str]] = {}
        columns = self.schema.text_columns()
        for keyword in keywords:
            for column in columns:
                for rowid in self._scan(column.table, column.name, keyword):
                    hits.setdefault(TupleRef(column.table, rowid), set()).add(keyword)
        total = max(1, len(keywords))
        tuples = [
            ScoredTuple(
                ref=ref,
                confidence=min(
                    _MAX_CONFIDENCE,
                    _BASE_CONFIDENCE + _CONFIDENCE_SLOPE * (len(matched) / total),
                ),
                provenance=("naive",),
            )
            for ref, matched in hits.items()
        ]
        tuples.sort(key=lambda t: (-t.confidence, t.ref))
        return NaiveResult(
            tuples=tuples,
            keyword_count=len(keywords),
            scanned_columns=len(columns),
            elapsed=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------

    def _keywords(self, text: str) -> List[str]:
        seen: Set[str] = set()
        ordered: List[str] = []
        for token in tokenize(text):
            word = token.word
            if not word or is_stopword(word) or word in seen:
                continue
            seen.add(word)
            ordered.append(word)
        if self.max_keywords is not None:
            ordered = ordered[: self.max_keywords]
        return ordered

    def _scan(self, table: str, column: str, keyword: str) -> List[int]:
        """Unindexed scan of one column for one keyword.

        Long-enough keywords match as substrings (the imprecision that
        floods the answer); short ones only exactly.
        """
        if len(keyword) >= _MIN_SUBSTRING_LENGTH:
            sql = (
                f"SELECT rowid FROM {quote_identifier(table)} "
                f"WHERE {quote_identifier(column)} LIKE ?"
            )
            params: Tuple[str, ...] = (f"%{keyword}%",)
        else:
            sql = (
                f"SELECT rowid FROM {quote_identifier(table)} "
                f"WHERE {quote_identifier(column)} = ? COLLATE NOCASE"
            )
            params = (keyword,)
        return [int(r[0]) for r in self.connection.execute(sql, params).fetchall()]
