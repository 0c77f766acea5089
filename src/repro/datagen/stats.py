"""Dataset and annotated-database statistics.

Summaries used by the CLI, the benchmarks' reporting, and exploratory
sessions: table cardinalities, attachment-degree distributions, ACG
topology, and the under-annotation metrics of §3 when an ideal edge set
is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..annotations.engine import AnnotationManager
from ..core.acg import AnnotationsConnectivityGraph
from ..core.model import AnnotatedDatabaseModel, false_negative_ratio, false_positive_ratio
from ..storage.compat import Connection
from ..utils.sql import quote_identifier


@dataclass
class DatasetStats:
    """One snapshot of an annotated database."""

    table_rows: Dict[str, int]
    annotations: int
    true_attachments: int
    predicted_attachments: int
    #: (min, mean, max) row-level attachments per annotation.
    annotation_degree: Tuple[int, float, int]
    #: (min, mean, max) row-level attachments per annotated tuple.
    tuple_degree: Tuple[int, float, int]
    acg_nodes: int
    acg_edges: int
    #: D.F_N / D.F_P against an ideal edge set, when supplied.
    f_n: Optional[float] = None
    f_p: Optional[float] = None

    def lines(self) -> List[str]:
        """Human-readable report lines."""
        out = ["tables:"]
        for table, rows in sorted(self.table_rows.items()):
            out.append(f"  {table}: {rows} rows")
        out.append(f"annotations: {self.annotations}")
        out.append(
            f"attachments: {self.true_attachments} true, "
            f"{self.predicted_attachments} predicted"
        )
        lo, mean, hi = self.annotation_degree
        out.append(f"attachments per annotation: min {lo}, mean {mean:.2f}, max {hi}")
        lo, mean, hi = self.tuple_degree
        out.append(f"attachments per tuple: min {lo}, mean {mean:.2f}, max {hi}")
        out.append(f"ACG: {self.acg_nodes} nodes, {self.acg_edges} edges")
        if self.f_n is not None:
            out.append(f"under-annotation: F_N = {self.f_n:.4f}, F_P = {self.f_p:.4f}")
        return out


def _degree_stats(degrees: Sequence[int]) -> Tuple[int, float, int]:
    if not degrees:
        return (0, 0.0, 0)
    return (min(degrees), sum(degrees) / len(degrees), max(degrees))


def collect_stats(
    connection: Connection,
    ideal_edges: Optional[frozenset] = None,
) -> DatasetStats:
    """Compute :class:`DatasetStats` for the database on ``connection``."""
    manager = AnnotationManager(connection)
    model = AnnotatedDatabaseModel(manager)
    acg = AnnotationsConnectivityGraph.build_from_manager(manager)

    tables = [
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE '_nebula_%' AND name NOT LIKE '_minidb_%' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
    ]
    table_rows = {
        table: int(
            connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(table)}"
            ).fetchone()[0]
        )
        for table in tables
    }

    from ..annotations.store import AttachmentKind

    f_n = f_p = None
    if ideal_edges is not None:
        actual = model.edge_keys()
        f_n = false_negative_ratio(ideal_edges, actual)
        f_p = false_positive_ratio(ideal_edges, actual)

    return DatasetStats(
        table_rows=table_rows,
        annotations=manager.store.count_annotations(),
        true_attachments=manager.store.count_attachments(AttachmentKind.TRUE),
        predicted_attachments=manager.store.count_attachments(AttachmentKind.PREDICTED),
        annotation_degree=_degree_stats(list(model.annotation_degree().values())),
        tuple_degree=_degree_stats(list(model.tuple_degree().values())),
        acg_nodes=acg.node_count,
        acg_edges=acg.edge_count,
        f_n=f_n,
        f_p=f_p,
    )
