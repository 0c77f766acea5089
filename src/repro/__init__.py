"""Nebula: proactive annotation management in relational databases.

A from-scratch reproduction of Ibrahim, Du & Eltabakh, *Proactive
Annotation Management in Relational Databases*, SIGMOD 2015.

Quickstart::

    from repro import (
        BioDatabaseSpec, Nebula, NebulaConfig, generate_bio_database,
    )

    # A temporary WAL database file, deleted when db.backend closes.
    db = generate_bio_database(BioDatabaseSpec(genes=120, proteins=70,
                                               publications=600))
    nebula = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6),
                    aliases=db.aliases)
    gene = db.genes[0]
    report = nebula.insert_annotation(
        f"From the exp, this gene seems correlated to {db.genes[1].gid}.",
        attach_to=[db.resolve("gene", gene.gid)],
    )
    for task in report.tasks:
        print(task.ref, task.confidence, task.decision)

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

from .config import NEBULA_06, NEBULA_08, NebulaConfig
from .errors import (
    CommandError,
    ConfigurationError,
    DeadLetterError,
    DeadlineExceededError,
    MetadataError,
    NebulaError,
    PipelineStageError,
    PoolExhaustedError,
    SearchError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    StorageError,
    TransientStorageError,
    VerificationError,
    WorkloadError,
)
from .storage import (
    ConnectionPool,
    SqliteFileBackend,
    get_backend,
)
from .observability import (
    EventLog,
    JsonlExporter,
    MetricsRegistry,
    NoopTracer,
    NOOP_TRACER,
    PhaseQuantiles,
    RingBufferExporter,
    StreamingQuantiles,
    TelemetryServer,
    Tracer,
    get_metrics,
    parse_exposition,
    render_metrics,
    set_metrics,
    validate_exposition,
)
from .resilience import (
    DeadLetter,
    DeadLetterQueue,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    Savepoint,
    SimulatedCrash,
)
from .service import (
    AnnotationService,
    ChaosHarness,
    ServiceConfig,
    ServiceStats,
    Submission,
    serve,
)
from .perf import AnalysisCache, AnnotationRequest
from .types import CellRef, ScoredTuple, TupleRef
from .annotations import (
    AnnotationManager,
    AnnotationStore,
    AnnotationRule,
    CommandProcessor,
    DataEditor,
    RuleEngine,
    propagate,
    propagate_join,
)
from .meta import (
    ConceptLearner,
    ConceptRef,
    Lexicon,
    NebulaMeta,
    Ontology,
    ValuePattern,
    apply_proposals,
    infer_pattern,
)
from .search import (
    InvertedValueIndex,
    KeywordQuery,
    KeywordSearchEngine,
    NaiveSearch,
    SchemaGraph,
    SearchScope,
)
from .core import (
    AnnotatedDatabaseModel,
    SpamGuard,
    TaskExplanation,
    explain_task,
    AnnotationsConnectivityGraph,
    Assessment,
    BoundsChoice,
    BoundsSetting,
    Decision,
    DiscoveryReport,
    HopProfile,
    MiniDatabase,
    Nebula,
    SharedExecutor,
    StabilityTracker,
    VerificationQueue,
    VerificationTask,
    assess,
    build_context_map,
    false_negative_ratio,
    false_positive_ratio,
    generate_queries,
    identify_related_tuples,
    spreading_scope,
)
from .datagen import (
    AnnotationWorkload,
    DatasetStats,
    collect_stats,
    BioDatabase,
    BioDatabaseSpec,
    WorkloadAnnotation,
    WorkloadSpec,
    generate_bio_database,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "NebulaConfig",
    "NEBULA_06",
    "NEBULA_08",
    # errors
    "NebulaError",
    "ConfigurationError",
    "StorageError",
    "TransientStorageError",
    "MetadataError",
    "SearchError",
    "WorkloadError",
    "VerificationError",
    "CommandError",
    "PipelineStageError",
    "PoolExhaustedError",
    "DeadLetterError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "DeadlineExceededError",
    # storage layer
    "ConnectionPool",
    "SqliteFileBackend",
    "get_backend",
    # observability layer
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "RingBufferExporter",
    "JsonlExporter",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "StreamingQuantiles",
    "PhaseQuantiles",
    "EventLog",
    "TelemetryServer",
    "render_metrics",
    "parse_exposition",
    "validate_exposition",
    # resilience layer
    "RetryPolicy",
    "Savepoint",
    "FaultInjector",
    "InjectedFault",
    "SimulatedCrash",
    "DeadLetter",
    "DeadLetterQueue",
    # service layer
    "AnnotationService",
    "ServiceConfig",
    "ServiceStats",
    "Submission",
    "ChaosHarness",
    "serve",
    # performance layer
    "AnalysisCache",
    "AnnotationRequest",
    # shared types
    "TupleRef",
    "CellRef",
    "ScoredTuple",
    # substrate: passive annotation engine
    "AnnotationManager",
    "AnnotationStore",
    "AnnotationRule",
    "RuleEngine",
    "CommandProcessor",
    "DataEditor",
    "propagate",
    "propagate_join",
    # substrate: NebulaMeta
    "NebulaMeta",
    "ConceptRef",
    "ConceptLearner",
    "apply_proposals",
    "Lexicon",
    "Ontology",
    "ValuePattern",
    "infer_pattern",
    # substrate: keyword search
    "KeywordSearchEngine",
    "KeywordQuery",
    "SearchScope",
    "SchemaGraph",
    "InvertedValueIndex",
    "NaiveSearch",
    # core
    "Nebula",
    "DiscoveryReport",
    "AnnotatedDatabaseModel",
    "AnnotationsConnectivityGraph",
    "HopProfile",
    "StabilityTracker",
    "MiniDatabase",
    "SharedExecutor",
    "VerificationQueue",
    "VerificationTask",
    "Decision",
    "SpamGuard",
    "TaskExplanation",
    "explain_task",
    "Assessment",
    "BoundsSetting",
    "BoundsChoice",
    "assess",
    "build_context_map",
    "generate_queries",
    "identify_related_tuples",
    "spreading_scope",
    "false_negative_ratio",
    "false_positive_ratio",
    # data generation
    "BioDatabase",
    "BioDatabaseSpec",
    "generate_bio_database",
    "AnnotationWorkload",
    "WorkloadAnnotation",
    "WorkloadSpec",
    "generate_workload",
    "DatasetStats",
    "collect_stats",
]
