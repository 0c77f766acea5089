"""Quickstart: proactive annotation management in five minutes.

Builds a small synthetic curated bio-database, stands up the Nebula
engine, inserts a free-text annotation attached to one gene, and shows
how Nebula proactively discovers the annotation's *other* embedded
references — triaged into auto-accepted, pending, and rejected
attachments.

Run:  python examples/quickstart.py

Set ``NEBULA_TRACE=/path/to/trace.jsonl`` to run the pipeline with
structured tracing on: each pass appends its span tree to that file and
the script prints the trace plus the non-zero pipeline counters (the CI
smoke job validates the file with ``repro trace --validate``).
"""

import os

from repro import (
    BioDatabaseSpec,
    Nebula,
    NebulaConfig,
    generate_bio_database,
)
from repro.observability import format_trace, non_zero_counters


def main() -> None:
    # 1. A synthetic curated database: Gene / Protein / Publication tables
    #    where every publication is an annotation attached to the tuples
    #    it cites (see repro.datagen for the generator's guarantees).
    db = generate_bio_database(
        BioDatabaseSpec(genes=120, proteins=70, publications=600, seed=42)
    )
    print(
        f"database: {len(db.genes)} genes, {len(db.proteins)} proteins, "
        f"{db.manager.store.count_annotations()} publication-annotations"
    )

    # 2. The Nebula engine: ConceptRefs metadata, inverted value index,
    #    ACG built from the existing co-annotations.  NEBULA_TRACE turns
    #    on structured tracing (spans exported to the given JSONL file).
    trace_path = os.environ.get("NEBULA_TRACE")
    nebula = Nebula(
        db.backend,
        db.meta,
        NebulaConfig(
            epsilon=0.6,
            tracing=bool(trace_path),
            trace_path=trace_path or None,
        ),
        aliases=db.aliases,
    )
    print(
        f"ACG: {nebula.acg.node_count} annotated tuples, "
        f"{nebula.acg.edge_count} co-annotation edges"
    )

    # 3. A scientist attaches a comment to one gene... but the comment
    #    also references two other database objects.
    focal_gene = db.genes[10]
    referenced_gene = db.genes[11]
    referenced_protein = db.proteins[5]
    comment = (
        f"From the exp, it seems this gene is correlated to "
        f"{referenced_gene.gid} and interacts with protein "
        f"{referenced_protein.pname}."
    )
    print(f"\ninserting annotation attached to {focal_gene.gid}:")
    print(f"  {comment!r}")

    report = nebula.insert_annotation(
        comment,
        attach_to=[db.resolve("gene", focal_gene.gid)],
        author="alice",
    )

    # 4. Stage 1 produced keyword queries from the text...
    print(f"\ngenerated {report.query_count} keyword queries:")
    for query in report.generation.queries:
        print(f"  {query.keywords}  weight={query.weight:.2f}")

    # 5. ...Stage 2 found candidate tuples, Stage 3 triaged them.
    print("\nverification tasks:")
    for task in report.tasks:
        print(
            f"  {task.ref}  confidence={task.confidence:.2f}  "
            f"-> {task.decision.value}   evidence={task.evidence[:1]}"
        )

    # 6. Pending tasks await the expert; resolve via the SQL command.
    for task in nebula.pending_tasks(report.annotation_id):
        print(f"\nexpert verifying pending task {task.task_id} ({task.ref})")
        result = nebula.execute_command(f"VERIFY ATTACHMENT {task.task_id}")
        print(f"  {result.message}")

    # 7. The annotation is now attached to everything it references.
    final = nebula.manager.focal_of(report.annotation_id)
    print(f"\nfinal attachment set of the annotation: {[str(r) for r in final]}")
    expected = {
        db.resolve("gene", focal_gene.gid),
        db.resolve("gene", referenced_gene.gid),
        db.resolve("protein", referenced_protein.pid),
    }
    discovered = set(final) & expected
    print(f"discovered {len(discovered)}/{len(expected)} expected attachments")

    # 8. With NEBULA_TRACE set, show what the observability layer saw.
    if trace_path and report.trace is not None:
        print(f"\npipeline trace (appended to {trace_path}):")
        for line in format_trace(report.trace, indent=1):
            print(line)
        print("\nnon-zero pipeline counters:")
        for key in non_zero_counters(report.metrics):
            print(f"  {key} = {report.metrics['counters'][key]:g}")


if __name__ == "__main__":
    main()
