"""Bounded LRU page cache for the persistent inverted index.

:class:`PersistentValueIndex <repro.search.persist.PersistentValueIndex>`
keeps the posting lists on disk and materializes them **per token** only
when a lookup touches that token.  :class:`LruPageCache` is the bounded
in-memory layer between the two: token -> decoded page, evicting the
least-recently-used page once ``capacity`` is reached, so a long-running
service's working set of hot tokens stays resident while the full index
can be arbitrarily larger than memory.

Unlike :class:`~repro.perf.cache.AnalysisCache` this cache is *not*
generation-versioned: the index invalidates the affected token's page
eagerly on every incremental write (``add_row``), which is cheaper than
versioning every page when mutations touch exactly one token at a time.

Hit/miss counts feed the process metrics registry
(``nebula_index_page_cache_{hits,misses}_total``) and the instance-local
:class:`~repro.perf.cache.CacheStats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, TypeVar

from ..observability.metrics import MetricsRegistry, get_metrics
from .cache import MISS, CacheStats

K = TypeVar("K")
V = TypeVar("V")


class LruPageCache(Generic[K, V]):
    """A plain bounded LRU map with cache accounting."""

    def __init__(
        self,
        capacity: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._pages: "OrderedDict[K, V]" = OrderedDict()
        registry = metrics if metrics is not None else get_metrics()
        self._m_hits = registry.counter("nebula_index_page_cache_hits_total")
        self._m_misses = registry.counter("nebula_index_page_cache_misses_total")

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: K) -> bool:
        return key in self._pages

    # ------------------------------------------------------------------

    def get(self, key: K) -> object:
        """The cached page, or :data:`~repro.perf.cache.MISS`."""
        page = self._pages.get(key, MISS)
        if page is MISS:
            self.stats.misses += 1
            self._m_misses.inc()
            return MISS
        self._pages.move_to_end(key)
        self.stats.hits += 1
        self._m_hits.inc()
        return page

    def put(self, key: K, page: V) -> None:
        self._pages[key] = page
        self._pages.move_to_end(key)
        while len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: K) -> None:
        """Drop one page (after an incremental write to its token)."""
        if self._pages.pop(key, None) is not None:
            self.stats.invalidations += 1

    def clear(self) -> None:
        self._pages.clear()
