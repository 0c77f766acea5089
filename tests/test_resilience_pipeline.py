"""Fault-boundary tests for the ingestion pipeline: savepoint rollback,
graceful degradation, and the dead-letter queue (ISSUE PR 1)."""

import sqlite3

import pytest

from repro import Nebula, NebulaConfig, generate_bio_database
from repro.datagen.biodb import BioDatabaseSpec
from repro.errors import DeadLetterError, PipelineStageError, TransientStorageError
from repro.observability import MetricsRegistry, set_metrics
from repro.perf import AnnotationRequest
from repro.resilience import (
    CONTEXT_FALLBACK,
    EXECUTOR_FALLBACK,
    MINI_DROP_LEAK,
    SPREADING_FALLBACK,
    DeadLetterQueue,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
)
from repro.types import TupleRef


@pytest.fixture()
def db():
    return generate_bio_database(
        BioDatabaseSpec(genes=30, proteins=18, publications=100, seed=11)
    )


@pytest.fixture()
def faults():
    return FaultInjector()


@pytest.fixture()
def metrics():
    """Isolated default registry: the resilience layer's module-level
    counters land here instead of polluting (or reading) global state."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


@pytest.fixture()
def nebula(db, faults, metrics):
    config = NebulaConfig(epsilon=0.6, fault_injector=faults)
    return Nebula(db.backend, db.meta, config, aliases=db.aliases)


def snapshot(nebula):
    """Every count a failed ingestion must leave untouched."""
    return {
        "annotations": nebula.manager.store.count_annotations(),
        "attachments": nebula.manager.store.count_attachments(),
        "acg_nodes": nebula.acg.node_count,
        "acg_edges": nebula.acg.edge_count,
        "tasks": nebula.connection.execute(
            "SELECT COUNT(*) FROM _nebula_verification_tasks"
        ).fetchone()[0],
    }


def sample_insert(db, nebula, **kwargs):
    genes, _ = db.community_members(0)
    return nebula.insert_annotation(
        f"We looked into gene {genes[1].gid} during the assay.",
        attach_to=[db.resolve("gene", genes[0].gid)],
        author="alice",
        **kwargs,
    )


class TestRollback:
    @pytest.mark.parametrize("point", ["store.add", "queue.triage"])
    def test_fault_rolls_back_stage0_completely(self, db, nebula, faults, point):
        before = snapshot(nebula)
        faults.arm(point)
        with pytest.raises(PipelineStageError) as exc_info:
            sample_insert(db, nebula)
        assert exc_info.value.stage == point
        assert isinstance(exc_info.value.original, InjectedFault)
        assert snapshot(nebula) == before

    def test_rollback_restores_hop_profile(self, db, nebula, faults):
        nebula.profile.record(2)
        nebula.profile.record(-1)  # unreachable
        buckets_before = dict(nebula.profile.buckets)
        unreachable_before = nebula.profile.unreachable
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        assert nebula.profile.buckets == buckets_before
        assert nebula.profile.unreachable == unreachable_before

    def test_rollback_leaves_stability_tracker_untouched(self, db, nebula, faults):
        history_before = list(nebula.stability.history)
        batch_before = nebula.stability._batch_annotations
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        assert nebula.stability.history == history_before
        assert nebula.stability._batch_annotations == batch_before

    def test_pipeline_recovers_after_transient_fault(self, db, nebula, faults):
        faults.arm("store.add")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        # The fault auto-cleared (times=1): the same insert now succeeds.
        report = sample_insert(db, nebula, capture_dead_letter=False)
        assert report.annotation_id is not None
        annotation = nebula.manager.annotation(report.annotation_id)
        assert "gene" in annotation.content


class TestDegradation:
    def test_spreading_fault_falls_back_to_full_search(self, db, nebula, faults):
        faults.arm("spreading.scope")
        report = sample_insert(db, nebula, use_spreading=True, radius=2)
        assert SPREADING_FALLBACK in report.degradations
        assert report.mode == "full"
        assert report.radius is None
        assert report.annotation_id is not None  # ingestion still succeeded

    def test_executor_fault_falls_back_to_sequential(self, db, nebula, faults):
        genes, _ = db.community_members(1)
        text = f"We examined gene {genes[0].gid} and gene {genes[1].gid}."
        clean = nebula.analyze(text, shared=True)
        assert clean.degradations == []
        faults.arm("executor.run")
        degraded = nebula.analyze(text, shared=True)
        assert degraded.degradations == [EXECUTOR_FALLBACK]
        # The fallback is an equivalence: same identified tuples.
        assert degraded.identified.refs == clean.identified.refs

    def test_context_adjust_fault_uses_unadjusted_weights(
        self, db, nebula, monkeypatch
    ):
        def broken(context_map, config):
            raise RuntimeError("adjustment exploded")

        monkeypatch.setattr(
            "repro.core.query_generation.adjust_context_weights", broken
        )
        report = nebula.analyze(f"gene {db.genes[3].gid} mentioned.")
        assert CONTEXT_FALLBACK in report.degradations
        assert report.generation.queries  # still searched something
        # The fallback runs inside the context phase: all three phases
        # are still timed.
        assert set(report.generation.phase_times) == {
            "map_generation", "context_adjustment", "query_formation",
        }
        assert all(t >= 0.0 for t in report.generation.phase_times.values())

    def test_mini_drop_fault_leaks_but_does_not_mask(self, db, nebula, monkeypatch):
        genes, _ = db.community_members(0)
        monkeypatch.setattr(
            "repro.core.spreading.MiniDatabase.drop",
            lambda self: (_ for _ in ()).throw(RuntimeError("drop failed")),
        )
        report = nebula.analyze(
            f"gene {genes[1].gid}.",
            focal=[db.resolve("gene", genes[0].gid)],
            use_spreading=True,
            radius=2,
        )
        assert report.mode == "spreading"
        assert MINI_DROP_LEAK in report.degradations

    def test_clean_run_has_no_degradations(self, db, nebula):
        report = sample_insert(db, nebula)
        assert report.degradations == []


class TestDeadLetters:
    def test_fault_captures_dead_letter(self, db, nebula, faults):
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError) as exc_info:
            sample_insert(db, nebula)
        letter_id = exc_info.value.dead_letter_id
        assert letter_id is not None
        letter = nebula.dead_letters.get(letter_id)
        assert letter.is_pending
        assert letter.stage == "queue.triage"
        assert letter.author == "alice"
        assert "gene" in letter.content
        assert letter.focal == (db.resolve("gene", db.community_members(0)[0][0].gid),)
        assert "InjectedFault" in letter.error

    def test_reprocess_replays_and_resolves(self, db, nebula, faults):
        before = snapshot(nebula)
        faults.arm("store.add")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        assert snapshot(nebula) == before
        assert nebula.dead_letters.count("pending") == 1

        reports = nebula.reprocess_dead_letters()
        assert len(reports) == 1
        assert reports[0].annotation_id is not None
        assert nebula.dead_letters.count("pending") == 0
        assert nebula.dead_letters.count("resolved") == 1
        # The replay really persisted the annotation with its focal.
        annotation = nebula.manager.annotation(reports[0].annotation_id)
        assert "gene" in annotation.content
        assert nebula.manager.store.count_annotations() == before["annotations"] + 1

    def test_failed_reprocess_bumps_attempts_without_new_letter(
        self, db, nebula, faults
    ):
        faults.arm("queue.triage", times=2)
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        assert nebula.dead_letters.count() == 1

        reports = nebula.reprocess_dead_letters()  # second arming fires here
        assert reports == []
        assert nebula.dead_letters.count() == 1  # no letter about the letter
        (letter,) = nebula.dead_letters.pending()
        assert letter.attempts == 2

    def test_capture_can_be_disabled(self, db, faults):
        fresh = generate_bio_database(
            BioDatabaseSpec(genes=20, proteins=12, publications=60, seed=3)
        )
        config = NebulaConfig(epsilon=0.6, fault_injector=faults)
        nebula = Nebula(fresh.backend, fresh.meta, config, aliases=fresh.aliases)
        faults.arm("store.add")
        with pytest.raises(PipelineStageError) as exc_info:
            sample_insert(fresh, nebula, capture_dead_letter=False)
        assert exc_info.value.dead_letter_id is None
        assert nebula.dead_letters.count() == 0

    def test_queue_unit_behaviour(self, db):
        queue = DeadLetterQueue(db.connection)
        letter = queue.capture(
            "text", (TupleRef("Gene", 1),), None, "store.add", "boom"
        )
        assert queue.get(letter.letter_id).focal == (TupleRef("Gene", 1),)
        queue.record_attempt(letter.letter_id, "boom again")
        assert queue.get(letter.letter_id).attempts == 2
        assert queue.get(letter.letter_id).error == "boom again"
        queue.mark_resolved(letter.letter_id)
        with pytest.raises(DeadLetterError):
            queue.mark_resolved(letter.letter_id)  # already resolved
        with pytest.raises(DeadLetterError):
            queue.record_attempt(letter.letter_id, "late")
        with pytest.raises(DeadLetterError):
            queue.get(9999)

    def test_claim_is_an_atomic_compare_and_set(self, db):
        queue = DeadLetterQueue(db.connection)
        letter = queue.capture(
            "text", (TupleRef("Gene", 1),), None, "store.add", "boom"
        )
        assert queue.claim(letter.letter_id) is True
        assert queue.claim(letter.letter_id) is False  # already claimed
        assert queue.pending(include_claimed=False) == []
        assert len(queue.pending()) == 1  # still pending, just claimed
        assert queue.release_claims() == 1
        assert queue.claim(letter.letter_id) is True
        queue.mark_resolved(letter.letter_id)
        assert queue.claim(letter.letter_id) is False  # resolved: unclaimable

    def test_record_attempt_releases_the_claim(self, db):
        queue = DeadLetterQueue(db.connection)
        letter = queue.capture(
            "text", (TupleRef("Gene", 1),), None, "store.add", "boom"
        )
        assert queue.claim(letter.letter_id)
        queue.record_attempt(letter.letter_id, "failed again")
        # A failed replay leaves the letter claimable by the next pass.
        assert queue.claim(letter.letter_id)

    def test_reprocess_is_idempotent_under_repeated_invocation(
        self, db, nebula, faults, metrics
    ):
        """Regression: a replayed letter must be ingested exactly once,
        even when reprocess_dead_letters runs again (or concurrently)."""
        before = snapshot(nebula)
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        assert nebula.dead_letters.count("pending") == 1

        first = nebula.reprocess_dead_letters()
        second = nebula.reprocess_dead_letters()
        assert len(first) == 1
        assert second == []
        assert (
            nebula.manager.store.count_annotations() == before["annotations"] + 1
        )
        assert (
            metrics.counter("nebula_dead_letter_replayed_total").value == 1
        )

    def test_reprocess_skips_letters_claimed_by_another_replayer(
        self, db, nebula, faults
    ):
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        (letter,) = nebula.dead_letters.pending()
        # Another replayer (another process, a service recovery) holds it.
        assert nebula.dead_letters.claim(letter.letter_id)
        assert nebula.reprocess_dead_letters() == []
        assert nebula.dead_letters.count("pending") == 1
        # Once the claim is released the letter replays normally.
        nebula.dead_letters.release_claims()
        assert len(nebula.reprocess_dead_letters()) == 1

    def test_claim_column_migrates_onto_old_tables(self, tmp_path):
        """A database created before the claim protocol (no ``claimed``
        column) upgrades in place on open."""
        import sqlite3

        path = tmp_path / "old.db"
        old = sqlite3.connect(path)
        old.execute(
            """
            CREATE TABLE _nebula_dead_letters (
                letter_id   INTEGER PRIMARY KEY,
                content     TEXT NOT NULL,
                author      TEXT,
                focal_json  TEXT NOT NULL,
                stage       TEXT NOT NULL,
                error       TEXT NOT NULL,
                attempts    INTEGER NOT NULL DEFAULT 1,
                status      TEXT NOT NULL DEFAULT 'pending'
                    CHECK (status IN ('pending', 'resolved'))
            )
            """
        )
        old.execute(
            "INSERT INTO _nebula_dead_letters "
            "(content, focal_json, stage, error) "
            "VALUES ('legacy', '[]', 'store.add', 'boom')"
        )
        old.commit()
        old.close()

        reopened = sqlite3.connect(path)
        queue = DeadLetterQueue(reopened)
        (letter,) = queue.pending(include_claimed=False)
        assert letter.content == "legacy"
        assert queue.claim(letter.letter_id)
        assert queue.pending(include_claimed=False) == []
        reopened.close()

    def test_capture_survives_process_exit(self, tmp_path):
        """A letter captured by a crashing process must already be durable:
        closing the connection without commit() must not lose it."""
        import sqlite3

        path = tmp_path / "curated.db"
        connection = sqlite3.connect(path)
        queue = DeadLetterQueue(connection)
        queue.capture("text", (TupleRef("Gene", 1),), "alice", "store.add", "boom")
        connection.close()  # no commit — simulates the failing process dying

        reopened = sqlite3.connect(path)
        letters = DeadLetterQueue(reopened).pending()
        assert len(letters) == 1
        assert letters[0].stage == "store.add"


class TestResilienceMetrics:
    """Every fault point publishes its events to the metrics registry."""

    def counter(self, metrics, key):
        return metrics.snapshot()["counters"].get(key, 0.0)

    def test_retry_attempts_are_counted(self, metrics):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        policy = RetryPolicy(max_attempts=3, sleep=lambda _: None)
        assert policy.run(flaky) == "ok"
        assert self.counter(metrics, "nebula_retry_attempts_total") == 2
        assert self.counter(metrics, "nebula_transient_errors_total") == 0

    def test_exhausted_retries_count_a_transient_error(self, metrics):
        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        policy = RetryPolicy(max_attempts=2, sleep=lambda _: None)
        with pytest.raises(TransientStorageError):
            policy.run(always_locked)
        assert self.counter(metrics, "nebula_retry_attempts_total") == 1
        assert self.counter(metrics, "nebula_transient_errors_total") == 1

    def test_degradation_events_counted_per_label(self, db, nebula, faults, metrics):
        faults.arm("spreading.scope")
        report = sample_insert(db, nebula, use_spreading=True, radius=2)
        assert SPREADING_FALLBACK in report.degradations
        key = f'nebula_degradation_events_total{{fallback="{SPREADING_FALLBACK}"}}'
        assert self.counter(metrics, key) == 1

    def test_dead_letter_counter_and_pending_gauge(self, db, nebula, faults, metrics):
        faults.arm("queue.triage")
        with pytest.raises(PipelineStageError):
            sample_insert(db, nebula)
        key = 'nebula_dead_letters_total{stage="queue.triage"}'
        assert self.counter(metrics, key) == 1
        assert metrics.snapshot()["gauges"]["nebula_dead_letters_pending"] == 1
        stage_key = 'nebula_stage_failures_total{stage="queue.triage"}'
        assert self.counter(metrics, stage_key) == 1

        # Resolving the letter (fault auto-cleared) moves the gauge back.
        reports = nebula.reprocess_dead_letters()
        assert len(reports) == 1
        assert metrics.snapshot()["gauges"]["nebula_dead_letters_pending"] == 0
        assert self.counter(metrics, key) == 1  # capture count is monotonic

    @pytest.mark.parametrize(
        "target", ["generate_queries", "identify_related_tuples"]
    )
    def test_batch_stage1_2_failure_is_labelled_analyze(
        self, db, nebula, metrics, monkeypatch, target
    ):
        def broken(*args, **kwargs):
            raise RuntimeError(f"{target} exploded")

        monkeypatch.setattr(f"repro.core.nebula.{target}", broken)
        genes, _ = db.community_members(0)
        requests = [
            AnnotationRequest.build(f"gene {genes[1].gid} here.", author="alice"),
            AnnotationRequest.build(f"gene {genes[2].gid} too."),
        ]
        with pytest.raises(PipelineStageError) as exc_info:
            nebula.insert_annotations(requests)
        assert exc_info.value.stage == "pipeline.analyze"
        letters = nebula.dead_letters.pending()
        assert [letter.stage for letter in letters] == ["pipeline.analyze"] * 2
        stage_key = 'nebula_stage_failures_total{stage="pipeline.analyze"}'
        assert self.counter(metrics, stage_key) == 1


class TestStabilityInputs:
    def test_tracker_sees_focal_plus_accepted_and_edge_delta(self, db):
        """Regression for the edge-delta simplification: the tracker must
        receive M = |focal| + auto-accepted and N = the ACG edge delta
        across the whole pipeline (satellite 2)."""
        config = NebulaConfig(epsilon=0.6, batch_size=1)
        nebula = Nebula(db.backend, db.meta, config, aliases=db.aliases)
        genes, _ = db.community_members(2)
        focal = [
            db.resolve("gene", genes[0].gid),
            db.resolve("gene", genes[1].gid),
        ]
        edges_before = nebula.acg.edge_count
        report = nebula.insert_annotation(
            f"Findings about gene {genes[2].gid} in this community.",
            attach_to=focal,
        )
        accepted = sum(1 for t in report.tasks if t.decision.is_accepted)
        assert nebula.stability.history, "batch_size=1 must close a batch"
        attachments, new_edges, _ = nebula.stability.history[-1]
        assert attachments == len(focal) + accepted
        assert new_edges == nebula.acg.edge_count - edges_before
