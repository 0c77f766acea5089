"""Engine-wide configuration for Nebula.

All tunable parameters from the paper live in :class:`NebulaConfig` so that
experiments can sweep them without touching the pipeline code.  The names
mirror the paper's symbols:

========================  =====================================================
``epsilon``               cutoff threshold for signature-map generation (§5.2.1)
``alpha``                 influence-range radius, in words (§5.2.2)
``beta1/beta2/beta3``     context-match rewards for Type-1/2/3 matches (§5.2.2)
``beta_lower/beta_upper`` verification bands (§7, Figure 8)
``batch_size``            ACG stability batch size ``B`` (Def. 6.1)
``stability_mu``          ACG stability threshold ``mu`` (Def. 6.1)
``spreading_hops``        radius ``K`` of the focal-based spreading search
``target_recall``         desired coverage when the profile auto-selects ``K``
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from .errors import ConfigurationError
from .perf.cache import DEFAULT_MAX_ENTRIES
from .resilience.faults import FaultInjector


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class NebulaConfig:
    """Immutable bag of Nebula's tunable parameters.

    The defaults follow the values the paper found to work well: a cutoff of
    ``epsilon = 0.6`` (zero false negatives, moderate false positives), an
    influence range of three words, Type-1 > Type-2 > Type-3 rewards, and the
    verification bands the BoundsSetting algorithm converged to
    (``beta_lower = 0.32``, ``beta_upper = 0.86``).
    """

    #: Cutoff threshold for admitting a word into a signature map.
    epsilon: float = 0.6
    #: Influence-range radius (words to each side) for context matching.
    alpha: int = 3
    #: Percent reward for a Type-1 match (table + column + value).
    beta1: float = 0.50
    #: Percent reward for a Type-2 match (table + value).
    beta2: float = 0.30
    #: Percent reward for a Type-3 match (column + value).
    beta3: float = 0.15
    #: Lower verification band; below it predictions auto-reject.
    beta_lower: float = 0.32
    #: Upper verification band; above it predictions auto-accept.
    beta_upper: float = 0.86
    #: ACG stability batch size ``B`` (number of annotations per batch).
    batch_size: int = 50
    #: ACG stability threshold ``mu`` (new-edge ratio below which stable).
    stability_mu: float = 0.10
    #: Radius ``K`` of the focal-based spreading search, when fixed.
    spreading_hops: int = 2
    #: Desired candidate coverage when the profile auto-selects ``K``.
    target_recall: float = 0.90
    #: Enable the ACG focal-based confidence adjustment (§6.2).
    focal_adjustment: bool = True
    #: The storage engine :func:`repro.storage.get_backend` opens: the
    #: only one, a WAL database file.  A constant, not a field.
    storage_backend: ClassVar[str] = "sqlite-file"
    #: Size of the storage backend's reader pool: at most this many
    #: read-only connections serve reads at once (the primary is not
    #: pooled).  The backend owns the pool; a constant, not a field.
    pool_size: ClassVar[int] = 4
    #: SQLite journal mode of the engine: WAL lets readers run
    #: concurrently with an open write transaction, the design the
    #: concurrent annotation service depends on.  A constant, not a field.
    journal_mode: ClassVar[str] = "wal"
    #: Seconds a connection waits on a locked database before failing
    #: (``PRAGMA busy_timeout``); applied to every connection the
    #: file backend opens, readers included.  A constant, not a field.
    busy_timeout: ClassVar[float] = 5.0
    #: LRU capacity of the keyword-analysis memo cache; 0 disables it.
    analysis_cache_size: int = DEFAULT_MAX_ENTRIES
    #: Enable the backward concept search special case (§5.2.3, lines 8-12).
    backward_concept_search: bool = True
    #: Enable the context-based weight adjustment (§5.2.2) — ablation knob.
    context_adjustment: bool = True
    #: Seed for any internal randomized tie-breaking (sampling, etc.).
    seed: Optional[int] = field(default=7)
    #: Enable structured tracing of the pipeline (a ring buffer of the
    #: last 64 traces, plus a JSONL exporter when ``trace_path`` is
    #: set).  Off by default: the no-op tracer keeps the hot path
    #: allocation-free.
    tracing: bool = False
    #: When tracing, also append each finished trace to this JSONL file.
    trace_path: Optional[str] = None
    #: Test seam: raise scripted faults at the pipeline's named fault
    #: points (``store.add``, ``spreading.scope``, ``executor.run``,
    #: ``queue.triage``).  None in production.
    fault_injector: Optional[FaultInjector] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _require(0.0 < self.epsilon <= 1.0, "epsilon must be in (0, 1]")
        _require(self.alpha >= 1, "alpha must be >= 1")
        _require(
            self.beta1 > self.beta2 > self.beta3 > 0.0,
            "rewards must satisfy beta1 > beta2 > beta3 > 0",
        )
        _require(
            0.0 <= self.beta_lower <= self.beta_upper <= 1.0,
            "verification bands must satisfy 0 <= beta_lower <= beta_upper <= 1",
        )
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(0.0 < self.stability_mu < 1.0, "stability_mu must be in (0, 1)")
        _require(self.spreading_hops >= 1, "spreading_hops must be >= 1")
        _require(0.0 < self.target_recall <= 1.0, "target_recall must be in (0, 1]")
        _require(self.analysis_cache_size >= 0, "analysis_cache_size must be >= 0")

    def with_updates(self, **changes: object) -> "NebulaConfig":
        """Return a copy of this config with ``changes`` applied.

        >>> NebulaConfig().with_updates(epsilon=0.8).epsilon
        0.8
        """
        return replace(self, **changes)  # type: ignore[arg-type]


#: Configuration used by the paper's "Nebula-0.6" variant.
NEBULA_06 = NebulaConfig(epsilon=0.6)

#: Configuration used by the paper's "Nebula-0.8" variant.
NEBULA_08 = NebulaConfig(epsilon=0.8)
