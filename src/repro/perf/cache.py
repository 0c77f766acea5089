"""Versioned LRU memoization for the analysis hot path.

Per-annotation ingestion repeats the same expensive lookups over and over:
every keyword of every annotation is re-mapped against the schema, the
meta-repository, and the inverted value index, even though neither changes
between annotations.  :class:`AnalysisCache` memoizes those keyword-level
results and stays *correct* under mutation through versioning: every entry
records the **generation counter** of the structure it was derived from
(``InvertedValueIndex.generation``, ``NebulaMeta.generation``), and a
lookup whose stored generation no longer matches the live one is treated
as a miss and dropped — so an ``add_row`` on the index or an
``add_concept`` on the repository invalidates exactly the stale entries,
lazily, with no eager sweep.

Entries are namespaced (``"mapper"``, ``"meta.values"``, ...) so one
cache instance can serve several call sites without key collisions, and
bounded by an LRU policy so long-running servers cannot grow without
limit.  Hit/miss/invalidation/eviction counts feed both the
instance-local :class:`CacheStats` and the process metrics registry
(``nebula_analysis_cache_{hits,misses,invalidations,evictions}_total``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from ..observability.metrics import Counter, MetricsRegistry, get_metrics

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS: object = object()

#: Default capacity of both per-word memos: the engine's (``mapper.*``
#: entries, sized by ``NebulaConfig.analysis_cache_size``) and
#: ``NebulaMeta``'s ``meta.values``.  On the annotate-long streams each
#: memo's distinct keys stop growing near 3,200 words; at 2,048 entries
#: the LRU kept evicting that vocabulary and re-fetching it, so the
#: default holds it with headroom.
DEFAULT_MAX_ENTRIES = 8192


@dataclass
class CacheStats:
    """Instance-local cache accounting (also mirrored into metrics)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class AnalysisCache:
    """Bounded, generation-versioned memo table for analysis results.

    Values stored here must be immutable (tuples of frozen dataclasses);
    callers that hand out lists should copy on the way out.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.max_entries = max(int(max_entries), 0)
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, Hashable], Tuple[Hashable, object]]" = (
            OrderedDict()
        )
        registry = metrics if metrics is not None else get_metrics()
        self._m_hits: Counter = registry.counter("nebula_analysis_cache_hits_total")
        self._m_misses: Counter = registry.counter("nebula_analysis_cache_misses_total")
        self._m_invalidations: Counter = registry.counter(
            "nebula_analysis_cache_invalidations_total"
        )
        self._m_evictions: Counter = registry.counter(
            "nebula_analysis_cache_evictions_total"
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    # ------------------------------------------------------------------

    def get(self, namespace: str, key: Hashable, generation: Hashable) -> object:
        """The cached value, or :data:`MISS`.

        A hit requires the entry's recorded generation to equal
        ``generation``; a stale entry is discarded (counted as an
        invalidation *and* a miss) so the caller recomputes against the
        mutated structure.
        """
        if not self.enabled:
            return MISS
        full_key = (namespace, key)
        entry = self._entries.get(full_key)
        if entry is None:
            self.stats.misses += 1
            self._m_misses.inc()
            return MISS
        stored_generation, value = entry
        if stored_generation != generation:
            del self._entries[full_key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._m_invalidations.inc()
            self._m_misses.inc()
            return MISS
        self._entries.move_to_end(full_key)
        self.stats.hits += 1
        self._m_hits.inc()
        return value

    def put(
        self, namespace: str, key: Hashable, generation: Hashable, value: object
    ) -> None:
        """Store ``value`` for ``(namespace, key)`` at ``generation``."""
        if not self.enabled:
            return
        full_key = (namespace, key)
        self._entries[full_key] = (generation, value)
        self._entries.move_to_end(full_key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._m_evictions.inc()

    def clear(self) -> None:
        self._entries.clear()

    def snapshot(self) -> Dict[str, int]:
        """Stats as a plain dict (for reports and the CLI)."""
        return {
            "entries": len(self._entries),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "invalidations": self.stats.invalidations,
            "evictions": self.stats.evictions,
        }
