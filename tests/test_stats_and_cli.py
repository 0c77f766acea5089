"""Tests for dataset statistics, workload serialization, and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.datagen.stats import collect_stats
from repro.datagen.workload import AnnotationWorkload, WorkloadSpec, generate_workload
from repro.annotations.engine import AnnotationManager
from repro.types import CellRef

from conftest import build_figure1_connection


class TestCollectStats:
    def test_counts(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        a = manager.add_annotation("x", attach_to=[CellRef("Gene", 1), CellRef("Gene", 2)])
        manager.add_annotation("y", attach_to=[CellRef("Gene", 2)])
        manager.attach_predicted(a.annotation_id, CellRef("Gene", 3), 0.6)
        stats = collect_stats(connection)
        assert stats.table_rows["Gene"] == 7
        assert stats.annotations == 2
        assert stats.true_attachments == 3
        assert stats.predicted_attachments == 1
        assert stats.acg_nodes == 2  # Gene#1 and Gene#2 (true edges only)
        assert stats.acg_edges == 1

    def test_degree_stats(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        manager.add_annotation("x", attach_to=[CellRef("Gene", 1), CellRef("Gene", 2)])
        manager.add_annotation("y", attach_to=[CellRef("Gene", 2)])
        stats = collect_stats(connection)
        lo, mean, hi = stats.annotation_degree
        assert (lo, hi) == (1, 2)
        assert mean == pytest.approx(1.5)

    def test_quality_metrics_with_ideal(self):
        connection = build_figure1_connection()
        manager = AnnotationManager(connection)
        a = manager.add_annotation("x", attach_to=[CellRef("Gene", 1)])
        from repro.types import TupleRef

        ideal = frozenset(
            {(a.annotation_id, TupleRef("Gene", 1)),
             (a.annotation_id, TupleRef("Gene", 2))}
        )
        stats = collect_stats(connection, ideal_edges=ideal)
        assert stats.f_n == pytest.approx(0.5)
        assert stats.f_p == 0.0

    def test_lines_render(self):
        connection = build_figure1_connection()
        AnnotationManager(connection)
        lines = collect_stats(connection).lines()
        assert any("Gene: 7 rows" in line for line in lines)
        assert any(line.startswith("ACG:") for line in lines)


class TestWorkloadSerialization:
    def test_round_trip(self, bio_db):
        workload = generate_workload(bio_db, WorkloadSpec(seed=31))
        payload = workload.to_dict()
        restored = AnnotationWorkload.from_dict(json.loads(json.dumps(payload)))
        assert len(restored) == len(workload)
        for original, loaded in zip(workload.annotations, restored.annotations):
            assert original.label == loaded.label
            assert original.text == loaded.text
            assert original.band == loaded.band
            assert original.ideal_refs == loaded.ideal_refs
            assert original.ideal_keywords == loaded.ideal_keywords
            assert original.references == loaded.references

    def test_distortion_identical_after_round_trip(self, bio_db):
        workload = generate_workload(bio_db, WorkloadSpec(seed=31))
        restored = AnnotationWorkload.from_dict(workload.to_dict())
        for original, loaded in zip(workload.annotations, restored.annotations):
            assert original.focal(2, seed=3) == loaded.focal(2, seed=3)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--db", "x.db"])
        assert args.command == "generate"
        args = parser.parse_args(["verify", "--db", "x.db", "--task", "3"])
        assert args.task == 3

    def test_generate_stats_annotate_flow(self, tmp_path, capsys):
        db_path = str(tmp_path / "cli.db")
        workload_path = str(tmp_path / "wl.json")
        assert main([
            "generate", "--db", db_path, "--genes", "60", "--proteins", "36",
            "--publications", "200", "--workload", workload_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "60 genes" in out

        assert main(["stats", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "Gene: 60 rows" in out

        assert main([
            "annotate", "--db", db_path,
            "--text", "We examined genes JW0001 in depth.",
            "--attach", "Gene:1", "--author", "cli",
        ]) == 0
        out = capsys.readouterr().out
        assert "inserted" in out

        payload = json.loads(open(workload_path).read())
        assert len(payload["annotations"]) == 60

    def test_pending_and_verify_flow(self, tmp_path, capsys):
        db_path = str(tmp_path / "cli2.db")
        main([
            "generate", "--db", db_path, "--genes", "60", "--proteins", "36",
            "--publications", "200",
        ])
        capsys.readouterr()
        # Two references: the second normalizes below 1.0 -> pending when
        # bounds are the defaults? Default upper is 0.86; craft a weaker
        # backward reference to land between the bounds.
        main([
            "annotate", "--db", db_path,
            "--text", "We examined genes JW0001, and later saw JW0002 too.",
            "--attach", "Gene:5",
        ])
        capsys.readouterr()
        assert main(["pending", "--db", db_path]) == 0
        out = capsys.readouterr().out
        if "task" in out:
            task_id = out.split("task ")[1].split(":")[0]
            assert main(["verify", "--db", db_path, "--task", task_id]) == 0
            assert "verified" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--seed", "3"]) == 0
        assert "inserting" in capsys.readouterr().out

    def test_annotate_trace_flow(self, tmp_path, capsys):
        """annotate --trace persists a trace + metrics; trace and stats
        surface them (the observability PR's CLI acceptance path)."""
        db_path = str(tmp_path / "cli4.db")
        main([
            "generate", "--db", db_path, "--genes", "60", "--proteins", "36",
            "--publications", "200",
        ])
        capsys.readouterr()
        assert main([
            "annotate", "--db", db_path,
            "--text", "We examined genes JW0001 in depth.",
            "--attach", "Gene:1", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "insert_annotation" in out
        assert "stage0.store" in out

        # The trace subcommand reads the persisted JSONL back.
        assert main(["trace", "--db", db_path, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "insert_annotation" in out
        assert "stage1.maps" in out
        assert "stage2.batch_execute" in out

        # --validate accepts the well-formed file...
        assert main(["trace", "--db", db_path, "--validate"]) == 0
        capsys.readouterr()
        # ...and rejects a malformed one.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "--path", str(bad), "--validate"]) == 1
        capsys.readouterr()

        # A second traced run accumulates the persisted metrics.
        assert main([
            "annotate", "--db", db_path,
            "--text", "Another look at JW0002 here.",
            "--attach", "Gene:2", "--trace",
        ]) == 0
        capsys.readouterr()
        snapshot = json.load(open(f"{db_path}.metrics.json"))
        assert snapshot["counters"]["nebula_annotations_ingested_total"] == 2

        # stats folds the persisted metrics into its report.
        assert main(["stats", "--db", db_path]) == 0
        out = capsys.readouterr().out
        assert "pipeline metrics" in out
        assert "nebula_annotations_ingested_total = 2" in out

    def test_trace_without_db_or_path_errors(self, capsys):
        assert main(["trace", "--last", "1"]) == 2
        assert "one of --db or --path" in capsys.readouterr().err

    def test_trace_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "none.db")
        assert main(["trace", "--db", missing]) == 1
        assert "no trace file" in capsys.readouterr().out
        assert main(["trace", "--db", missing, "--validate"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_annotate_bad_ref_format(self, tmp_path):
        db_path = str(tmp_path / "cli3.db")
        main(["generate", "--db", db_path, "--genes", "40", "--proteins", "24",
              "--publications", "100"])
        with pytest.raises(SystemExit):
            main(["annotate", "--db", db_path, "--text", "x", "--attach", "Gene"])

    def test_lint_forwards_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert all(line.startswith("NBL") for line in lines)

    def test_lint_forwards_paths_and_flags(self, tmp_path, capsys):
        planted = tmp_path / "planted.py"
        planted.write_text(
            "def fetch(conn, user):\n"
            "    return conn.execute(f\"SELECT * FROM t WHERE n = '{user}'\")\n"
        )
        assert main(["lint", str(planted), "--format", "json"]) == 1
        (finding,) = json.loads(capsys.readouterr().out)
        assert finding["rule_id"] == "NBL001"
        assert finding["line"] == 2

    def test_unknown_arguments_still_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--db", "x.db", "--bogus"])
        assert excinfo.value.code == 2


class TestVersioningCli:
    """``repro history`` / ``repro migrate`` / ``annotate --as-of``."""

    @pytest.fixture
    def seeded_db(self, tmp_path):
        db_path = str(tmp_path / "versioned.db")
        main(["generate", "--db", db_path, "--genes", "60", "--proteins", "36",
              "--publications", "200"])
        main(["annotate", "--db", db_path,
              "--text", "We examined genes JW0001 in depth.",
              "--attach", "Gene:1", "--author", "cli"])
        return db_path

    def test_parser_accepts_new_commands(self):
        parser = build_parser()
        args = parser.parse_args(["history", "--db", "x.db", "7"])
        assert args.command == "history" and args.annotation_id == 7
        args = parser.parse_args(["migrate", "down", "--db", "x.db"])
        assert args.action == "down"
        args = parser.parse_args(
            ["annotate", "--db", "x.db", "--text", "t", "--as-of", "3"])
        assert args.as_of == 3

    def test_history_lists_commits_and_versions(self, seeded_db, capsys):
        capsys.readouterr()
        assert main(["history", "--db", seeded_db]) == 0
        out = capsys.readouterr().out
        assert "newest commits (head=" in out
        assert "ingest" in out
        assert "author=cli" in out

        assert main(["history", "--db", seeded_db, "1"]) == 0
        out = capsys.readouterr().out
        assert "annotation 1:" in out
        assert "insert" in out

    def test_history_unknown_annotation(self, seeded_db, capsys):
        capsys.readouterr()
        assert main(["history", "--db", seeded_db, "999"]) == 1
        assert "no logged versions" in capsys.readouterr().err

    def test_migrate_roundtrip(self, seeded_db, capsys):
        capsys.readouterr()
        assert main(["migrate", "status", "--db", seeded_db]) == 0
        out = capsys.readouterr().out
        assert "current revision: 0005" in out

        assert main(["migrate", "down", "--db", seeded_db]) == 0
        assert "reverted 0005, 0004, 0003, 0002" in capsys.readouterr().out

        # status now reports pending work via the exit code.
        assert main(["migrate", "status", "--db", seeded_db]) == 1
        out = capsys.readouterr().out
        assert all(f"pending {r}" in out for r in ("0002", "0003", "0004", "0005"))

        assert main(["migrate", "up", "--db", seeded_db]) == 0
        assert "now at 0005" in capsys.readouterr().out

        # The annotation survived the roundtrip, history rebuilt from head.
        assert main(["history", "--db", seeded_db, "1"]) == 0
        out = capsys.readouterr().out
        assert "backfill" in out or "insert" in out

    @staticmethod
    def _head(db_path, capsys):
        assert main(["history", "--db", db_path]) == 0
        out = capsys.readouterr().out
        return int(out.split("head=")[1].split(")")[0])

    def test_annotate_as_of_dry_run(self, seeded_db, capsys):
        capsys.readouterr()
        head = self._head(seeded_db, capsys)
        assert main(["annotate", "--db", seeded_db,
                     "--text", "Genes JW0002 and JW0001 interact.",
                     "--as-of", str(head)]) == 0
        out = capsys.readouterr().out
        assert f"historical analysis at commit {head}" in out
        assert "nothing persisted" in out
        # The dry run added no commit.
        assert self._head(seeded_db, capsys) == head

    def test_annotate_as_of_unknown_commit(self, seeded_db, capsys):
        capsys.readouterr()
        assert main(["annotate", "--db", seeded_db,
                     "--text", "x", "--as-of", "999999"]) == 2
        assert "unknown commit 999999" in capsys.readouterr().err
