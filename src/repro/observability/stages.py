"""Canonical registry of pipeline stage (span) names.

Every literal name passed to ``Tracer.span(...)`` anywhere in the
pipeline must appear here — the static analyzer (``repro.analysis``,
rule NBL005) enforces it, so a typo'd stage name fails CI instead of
silently fragmenting the Figure 16 trace taxonomy documented in
``docs/observability.md``.
"""

from __future__ import annotations

from typing import FrozenSet

#: The Figure 16 stage taxonomy: one entry per span name the pipeline emits.
CANONICAL_STAGES: FrozenSet[str] = frozenset(
    {
        # Root span of one annotation's pass through the pipeline.
        "insert_annotation",
        # Engine open: persisted-index stamp validation + lazy adoption.
        "index.load",
        # Engine open: full index rebuild persisted to the backend tables.
        "index.build",
        # Stage 0: persist the annotations + manual attachments
        # (executemany over the rows and the focal edges).
        "stage0.store",
        # The analysis umbrella span (stage 1 + stage 2).
        "analyze",
        # Stage 1 phases (Figure 11a): signature maps, context adjustment,
        # query formation.
        "stage1.maps",
        "stage1.context",
        "stage1.queries",
        # Stage 2 of analyze(): SQL execution of the generated queries.
        "stage2.execute",
        # Stage 3: triage of candidates into auto-accept / verify / reject.
        "stage3.curate",
        # Root span of one batch's pass through the pipeline.
        "insert_annotations",
        # Shared execution of the full-search members' SQL (one pass per
        # ingestion call, across annotations for a batch).
        "stage2.batch_execute",
        # Service layer (repro.service): one request isolated on the
        # per-item fallback path after a poisoned batch.
        "service.request",
        # Service layer: one coalesced batch flushed by the writer loop.
        "service.batch_flush",
        # Service layer: startup crash recovery (rollback, checkpoint,
        # dead-letter replay).
        "service.recover",
        # Service layer: one /metrics render served by the telemetry
        # HTTP endpoint.
        "service.export",
        # Service layer: the durability point of one flush — the commit
        # that makes a batch's ``_nebula_commits`` row(s) visible.
        "service.commit",
    }
)


def is_canonical_stage(name: str) -> bool:
    """Whether ``name`` is a registered pipeline stage name."""
    return name in CANONICAL_STAGES
