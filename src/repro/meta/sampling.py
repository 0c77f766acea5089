"""Column value samples and sample-based domain matching.

For columns without an ontology or syntactic pattern, NebulaMeta keeps a
random sample of the column's values (paper §5.1, item 5).  Whether a word
"has good matching with c's drawn sample" then feeds the value-domain
estimate ``d(w, c)``.

Matching is two-tiered:

* **exact membership** in the sample (strong evidence);
* **shape similarity** — the word resembles sampled values in length and
  character composition (weak evidence), which is what lets a sample of
  gene names vouch for an unseen gene name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..utils.tokenize import normalize_word

#: (length, digit-ratio, upper-ratio, alpha-ratio) shape descriptor.
Shape = Tuple[float, float, float, float]


def _shape_vector(value: str) -> Shape:
    """(length, digit-ratio, upper-ratio, alpha-ratio) shape descriptor."""
    if not value:
        return (0.0, 0.0, 0.0, 0.0)
    n = len(value)
    digits = sum(ch.isdigit() for ch in value)
    uppers = sum(ch.isupper() for ch in value)
    alphas = sum(ch.isalpha() for ch in value)
    return (float(n), digits / n, uppers / n, alphas / n)


def _shape_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1] between the shape descriptors of two strings."""
    return _vector_similarity(_shape_vector(a), _shape_vector(b))


def _vector_similarity(va: Shape, vb: Shape) -> float:
    if va[0] == 0 or vb[0] == 0:
        return 0.0
    length_sim = min(va[0], vb[0]) / max(va[0], vb[0])
    ratio_sim = 1.0 - (abs(va[1] - vb[1]) + abs(va[2] - vb[2]) + abs(va[3] - vb[3])) / 3.0
    return max(0.0, length_sim * ratio_sim)


@dataclass
class ColumnSample:
    """A drawn sample of one column's values plus matching helpers."""

    table: str
    column: str
    values: Sequence[str]

    def __post_init__(self) -> None:
        self._normalized = frozenset(normalize_word(v) for v in self.values)
        # Many values share a shape (50 protein names have 12), and equal
        # vectors score equally, so match_score scans the distinct ones.
        self._shapes = tuple({_shape_vector(v) for v in self.values})

    @classmethod
    def draw(
        cls,
        table: str,
        column: str,
        population: Iterable[str],
        size: int = 50,
        rng: Optional[random.Random] = None,
    ) -> "ColumnSample":
        """Draw a random sample of ``size`` distinct values from ``population``."""
        rng = rng or random.Random(0)
        distinct: List[str] = sorted({str(v) for v in population if v is not None})
        if len(distinct) > size:
            distinct = rng.sample(distinct, size)
        return cls(table=table, column=column, values=tuple(distinct))

    def contains(self, word: str) -> bool:
        """Exact (normalized) membership of ``word`` in the sample."""
        return normalize_word(word) in self._normalized

    def match_score(self, word: str) -> float:
        """Graded evidence that ``word`` belongs to this column's domain.

        Returns 1.0 on exact sample membership, otherwise the best shape
        similarity against the sample, damped to at most 0.7 so shape-only
        evidence can never outrank exact membership.
        """
        if not self.values:
            return 0.0
        if self.contains(word):
            return 1.0
        shape = _shape_vector(word)
        best = max(_vector_similarity(shape, v) for v in self._shapes)
        return 0.7 * best

    def __len__(self) -> int:
        return len(self.values)
