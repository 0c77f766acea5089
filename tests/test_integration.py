"""Integration tests: the experiment pipelines end to end (small scale).

These mirror the benchmark flows on a small database: workload generation,
distortion, discovery, oracle assessment, naive-baseline comparison, and
the approximate spreading search — asserting the *shape* properties the
paper reports rather than absolute numbers.
"""

import pytest

from repro import (
    BoundsSetting,
    Nebula,
    NebulaConfig,
    NaiveSearch,
    generate_bio_database,
    generate_workload,
)
from repro.core.assessment import assess, average_assessments
from repro.core.bounds import TrainingSample
from repro.datagen.biodb import BioDatabaseSpec
from repro.datagen.workload import WorkloadSpec


@pytest.fixture(scope="module")
def db():
    return generate_bio_database(
        BioDatabaseSpec(genes=80, proteins=48, publications=400, seed=17)
    )


@pytest.fixture(scope="module")
def workload(db):
    return generate_workload(db, WorkloadSpec(seed=29))


@pytest.fixture(scope="module")
def nebula(db):
    return Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases)


def _discover(nebula, annotation, delta=1, **kwargs):
    focal = annotation.focal(delta)
    report = nebula.analyze(annotation.text, focal=focal, **kwargs)
    return focal, report


class TestDiscoveryQuality:
    def test_most_missing_links_recovered(self, db, workload, nebula):
        """Nebula-0.6 must find the bulk of the dropped attachments."""
        recovered = total = 0
        for annotation in workload.group(100):
            focal, report = _discover(nebula, annotation, delta=1)
            missing = set(annotation.missing(focal))
            found = set(report.identified.refs)
            recovered += len(missing & found)
            total += len(missing)
        assert total > 0
        assert recovered / total >= 0.8

    def test_queries_track_reference_counts(self, workload, nebula):
        """More embedded references -> more generated queries (on average)."""
        def avg_queries(band):
            annotations = [
                a for a in workload.group(500) if a.band == band
            ]
            counts = [
                len(nebula.analyze(a.text).generation.queries) for a in annotations
            ]
            return sum(counts) / len(counts)

        assert avg_queries((7, 10)) > avg_queries((1, 3))

    def test_epsilon_08_generates_fewer_queries(self, db, workload):
        loose = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.6),
                       aliases=db.aliases)
        tight = Nebula(db.backend, db.meta, NebulaConfig(epsilon=0.8),
                       aliases=db.aliases)
        loose_total = tight_total = 0
        for annotation in workload.group(1000):
            loose_total += len(loose.analyze(annotation.text).generation.queries)
            tight_total += len(tight.analyze(annotation.text).generation.queries)
        assert tight_total <= loose_total

    def test_oracle_assessment_reasonable(self, workload, nebula):
        assessments = []
        for annotation in workload.group(100):
            focal, report = _discover(nebula, annotation, delta=1)
            assessments.append(
                assess(report.candidates, set(annotation.ideal_refs), focal,
                       0.32, 0.86)
            )
        averaged = average_assessments(assessments)
        assert averaged.f_n <= 0.35
        assert averaged.f_p <= 0.15


class TestNaiveComparison:
    def test_naive_returns_far_more_tuples(self, db, workload, nebula):
        annotation = workload.group(100)[0]
        naive = NaiveSearch(db.connection)
        naive_result = naive.search(annotation.text)
        report = nebula.analyze(annotation.text)
        assert len(naive_result.tuples) > 5 * max(1, len(report.candidates))

    def test_naive_is_slower(self, db, workload, nebula):
        annotation = workload.group(500)[0]
        naive = NaiveSearch(db.connection)
        naive_elapsed = naive.search(annotation.text).elapsed
        report = nebula.analyze(annotation.text)
        assert naive_elapsed > report.identified.elapsed


class TestSpreadingSearch:
    def test_spreading_shrinks_candidates_and_keeps_most_refs(
        self, db, workload, nebula
    ):
        kept = missing_total = 0
        full_candidates = spread_candidates = 0
        for annotation in workload.group(100):
            if len(annotation.ideal_refs) < 2:
                continue
            focal = annotation.focal(2)
            full = nebula.analyze(annotation.text, focal=focal, use_spreading=False)
            spread = nebula.analyze(
                annotation.text, focal=focal, use_spreading=True, radius=3
            )
            full_candidates += len(full.candidates)
            spread_candidates += len(spread.candidates)
            missing = set(annotation.missing(focal))
            kept += len(missing & set(spread.identified.refs))
            missing_total += len(missing)
        assert spread_candidates <= full_candidates
        if missing_total:
            assert kept / missing_total >= 0.6

    def test_radius_widens_scope(self, db, workload, nebula):
        annotation = next(
            a for a in workload.group(500) if len(a.ideal_refs) >= 3
        )
        focal = annotation.focal(2)
        narrow = nebula.analyze(
            annotation.text, focal=focal, use_spreading=True, radius=1
        )
        wide = nebula.analyze(
            annotation.text, focal=focal, use_spreading=True, radius=4
        )
        assert narrow.scope_size <= wide.scope_size


class TestBoundsTuningFlow:
    def test_tuned_bounds_form_a_band(self, db, workload, nebula):
        samples = []
        for annotation in workload.group(100) + workload.group(500):
            focal, report = _discover(nebula, annotation, delta=1)
            samples.append(
                TrainingSample(
                    candidates=tuple(report.candidates),
                    ideal=frozenset(annotation.ideal_refs),
                    focal=focal,
                )
            )
        choice = BoundsSetting(fn_limit=0.3, fp_limit=0.1).tune(samples)
        assert 0.0 <= choice.beta_lower <= choice.beta_upper <= 1.0
        assert choice.assessment.f_p <= 0.1


class TestQueryQualityOracle:
    def test_cutoff_06_has_no_false_negative_queries(self, workload, nebula):
        """Paper Fig. 11(c): epsilon <= 0.6 misses no embedded reference."""
        from repro.utils.tokenize import normalize_word

        missed = 0
        total = 0
        for annotation in workload.group(100):
            report = nebula.analyze(annotation.text)
            covered = {
                normalize_word(k)
                for q in report.generation.queries
                for k in q.keywords
            }
            for keyword in annotation.ideal_keywords:
                total += 1
                if keyword not in covered:
                    missed += 1
        assert total > 0
        assert missed / total <= 0.05
