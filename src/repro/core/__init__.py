"""Nebula's core: the paper's primary contribution.

The pipeline follows the paper's stages (Figure 16):

* **Stage 0** — :mod:`repro.core.model`: the annotated database as a
  weighted bipartite graph, with the F_N / F_P quality metrics.
* **Stage 1** — :mod:`repro.core.signature_maps`,
  :mod:`repro.core.context_adjust`, :mod:`repro.core.query_generation`:
  from an annotation's text to weighted keyword-search queries.
* **Stage 2** — :mod:`repro.core.execution`, :mod:`repro.core.focal`,
  :mod:`repro.core.shared_execution`, :mod:`repro.core.acg`,
  :mod:`repro.core.spreading`: executing the queries (full search or
  approximate focal-based spreading) and scoring candidate tuples.
* **Stage 3** — :mod:`repro.core.verification`,
  :mod:`repro.core.assessment`, :mod:`repro.core.bounds`: triaging the
  predictions into auto-accept / expert-verify / auto-reject and tuning
  the bounds.

:class:`repro.core.nebula.Nebula` wires everything together.
"""

from .model import AnnotatedDatabaseModel, Edge, false_negative_ratio, false_positive_ratio
from .signature_maps import ContextMap, MapEntry, WeightedMapping, build_context_map
from .context_adjust import adjust_context_weights, MatchType
from .query_generation import QueryGenerationResult, generate_queries
from .acg import (
    AnnotationsConnectivityGraph,
    HopProfile,
    PersistentHopProfile,
    StabilityTracker,
)
from .execution import IdentifiedTuples, identify_related_tuples
from .focal import apply_focal_adjustment, focal_reward_factor
from .spam import SpamGuard, SpamVerdict
from .explain import TaskExplanation, explain_task
from .shared_execution import SharedExecutor
from .spreading import MiniDatabase, spreading_scope
from .verification import Decision, VerificationQueue, VerificationTask
from .assessment import Assessment, assess
from .bounds import BoundsSetting, BoundsChoice
from .nebula import Nebula, DiscoveryReport

__all__ = [
    "AnnotatedDatabaseModel",
    "Edge",
    "false_negative_ratio",
    "false_positive_ratio",
    "ContextMap",
    "MapEntry",
    "WeightedMapping",
    "build_context_map",
    "adjust_context_weights",
    "MatchType",
    "QueryGenerationResult",
    "generate_queries",
    "AnnotationsConnectivityGraph",
    "HopProfile",
    "PersistentHopProfile",
    "StabilityTracker",
    "IdentifiedTuples",
    "identify_related_tuples",
    "apply_focal_adjustment",
    "focal_reward_factor",
    "SpamGuard",
    "SpamVerdict",
    "TaskExplanation",
    "explain_task",
    "SharedExecutor",
    "MiniDatabase",
    "spreading_scope",
    "Decision",
    "VerificationQueue",
    "VerificationTask",
    "Assessment",
    "assess",
    "BoundsSetting",
    "BoundsChoice",
    "Nebula",
    "DiscoveryReport",
]
