"""Performance infrastructure for high-throughput ingestion.

Three cooperating pieces, all dependency-free:

* :mod:`~repro.perf.cache` — :class:`AnalysisCache`, a generation-
  versioned LRU memo table for keyword-level analysis results (schema
  mappings, meta-repository probes), invalidated lazily when the inverted
  index or the meta repository mutates;
* :mod:`~repro.perf.pagecache` — :class:`LruPageCache`, the bounded
  posting-page cache of the persistent inverted index;
* :mod:`~repro.perf.batch` — :class:`AnnotationRequest`, the input type
  of :meth:`repro.core.nebula.Nebula.insert_annotations`.

See ``docs/performance.md`` for the batch API contract, the cache
invalidation rules, and how to read the new metrics.
"""

from .batch import AnnotationRequest, RequestLike, coerce_request
from .cache import MISS, AnalysisCache, CacheStats
from .pagecache import LruPageCache

__all__ = [
    "AnalysisCache",
    "AnnotationRequest",
    "CacheStats",
    "LruPageCache",
    "MISS",
    "RequestLike",
    "coerce_request",
]
