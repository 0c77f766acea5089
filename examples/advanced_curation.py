"""Advanced curation features beyond the core pipeline.

Demonstrates the three extension mechanisms around Nebula's core:

1. **Predicate rules** (the structured automation of [18, 25]): an
   annotation attached by SQL predicate, automatically re-applied to
   newly inserted tuples;
2. **ConceptRefs learning** (paper footnote 2): mining the referencing
   columns from existing annotations instead of asking an expert;
3. **Spam guard** (paper footnote 1): quarantining an annotation whose
   predicted attachments would flood the database.

Run:  python examples/advanced_curation.py
"""

from repro import (
    BioDatabaseSpec,
    ConceptLearner,
    Nebula,
    NebulaConfig,
    NebulaMeta,
    RuleEngine,
    TupleRef,
    apply_proposals,
    generate_bio_database,
)
from repro.core.spam import SpamGuard


def main() -> None:
    db = generate_bio_database(
        BioDatabaseSpec(genes=150, proteins=90, publications=700, seed=17)
    )
    nebula = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6),
                    aliases=db.aliases)

    # ------------------------------------------------------------------
    # 1. Predicate-based rules.
    # ------------------------------------------------------------------
    print("== predicate rules ==")
    rules = RuleEngine(nebula.manager)
    note = nebula.manager.add_annotation(
        "Curator note: long F1-family genes need re-sequencing.",
        author="curator",
    )
    rule, attached = rules.create_rule(
        note.annotation_id, "Gene", "Family = 'F1' AND Length > 1500"
    )
    print(f"  rule {rule.rule_id} attached the note to {attached} existing genes")

    cursor = db.connection.execute(
        "INSERT INTO Gene VALUES ('JW9001', 'newQ', 2200, 'ACGT', 'F1')"
    )
    fired = rules.process_new_tuple(TupleRef("Gene", cursor.lastrowid))
    print(f"  a newly inserted matching gene fired {len(fired)} rule(s)")

    # ------------------------------------------------------------------
    # 2. Learning ConceptRefs from the existing annotations.
    # ------------------------------------------------------------------
    print("\n== learning ConceptRefs from annotations ==")
    learner = ConceptLearner(nebula.manager, min_support=0.15,
                             min_attachments=20, max_annotations=400)
    proposals = learner.learn()
    for proposal in proposals:
        columns = ", ".join(
            f"{e.column} ({e.support:.0%})" for e in proposal.columns
        )
        print(f"  learned concept {proposal.table!r}: referenced by {columns}")

    fresh_meta = NebulaMeta()
    added = apply_proposals(fresh_meta, proposals, connection=db.connection)
    print(f"  {added} concept(s) registered into a fresh NebulaMeta")

    # ------------------------------------------------------------------
    # 3. The spam guard.
    # ------------------------------------------------------------------
    print("\n== spam guard ==")
    nebula.spam_guard = SpamGuard(max_candidates=3)
    genes = db.genes
    spammy = (
        f"We examined genes {genes[0].gid}, and later {genes[1].gid} and "
        f"later {genes[2].gid} and later {genes[3].gid} and later "
        f"{genes[4].gid} and later {genes[5].gid}."
    )
    report = nebula.insert_annotation(spammy, attach_to=[])
    verdict = report.spam_verdict
    if verdict is not None:
        print(
            f"  annotation quarantined: reason={verdict.reason} "
            f"candidates={verdict.candidate_count} "
            f"coverage={verdict.coverage:.1%}"
        )
        print(f"  verification tasks created: {len(report.tasks)}")
    else:
        print("  annotation passed the screen")


if __name__ == "__main__":
    main()
