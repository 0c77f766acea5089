"""Tests for verification-task explanations."""

import pytest

from repro import Nebula, NebulaConfig
from repro.core.explain import decode_evidence, explain_task, _context_window
from repro.core.verification import Decision

from conftest import build_figure1_backend, build_figure1_meta


@pytest.fixture
def world():
    nebula = Nebula(
        build_figure1_backend(),
        build_figure1_meta(),
        NebulaConfig(epsilon=0.6, beta_lower=0.01, beta_upper=0.999),
    )
    return nebula.connection, nebula


class TestDecodeEvidence:
    def test_type2_label(self):
        text = "the gene JW0014 was strong"
        line = decode_evidence("q@2:type2:gene+JW0014", text)
        assert line is not None
        assert line.keywords == ("gene", "JW0014")
        assert "table + value" in line.description
        assert "JW0014" in line.context

    def test_backward_label(self):
        text = "genes JW0014 and later grpC too"
        line = decode_evidence("q@4:backward-type2:genes+grpC", text)
        assert line is not None
        assert "earlier table mention" in line.description

    def test_foreign_format_returns_none(self):
        assert decode_evidence("naive", "text") is None

    def test_unknown_kind_falls_back_to_raw_name(self):
        line = decode_evidence("q@0:newkind:a+b", "a b c")
        assert line is not None
        assert line.description == "newkind"


class TestContextWindow:
    def test_window_bounded(self):
        text = " ".join(f"w{i}" for i in range(40))
        window = _context_window(text, position=20, radius=3)
        assert window == "w17 w18 w19 w20 w21 w22 w23"

    def test_window_at_edges(self):
        text = "alpha beta gamma"
        assert _context_window(text, 0, radius=5) == "alpha beta gamma"
        assert _context_window(text, 2, radius=5) == "alpha beta gamma"

    def test_empty_text(self):
        assert _context_window("", 3) == ""


class TestExplainTask:
    def test_end_to_end_explanation(self, world):
        connection, nebula = world
        report = nebula.insert_annotation(
            "We examined genes JW0014, and later saw yaaB in the assay.",
            attach_to=[],
        )
        pending = [t for t in report.tasks if t.decision is Decision.PENDING]
        tasks = pending or report.tasks
        explanation = explain_task(nebula.manager, tasks[0])
        lines = explanation.lines()
        assert any("attach annotation" in line for line in lines)
        assert explanation.tuple_values  # row values present
        assert explanation.evidence
        assert all(e.keywords for e in explanation.evidence)

    def test_excerpt_truncated(self, world):
        connection, nebula = world
        long_text = "gene JW0014 " + "filler " * 200
        report = nebula.insert_annotation(long_text, attach_to=[])
        explanation = explain_task(nebula.manager, report.tasks[0], excerpt_length=50)
        assert len(explanation.annotation_excerpt) == 50
        assert explanation.annotation_excerpt.endswith("...")

    def test_tuple_values_match_database(self, world):
        connection, nebula = world
        report = nebula.insert_annotation("gene JW0014 here", attach_to=[])
        task = report.tasks[0]
        explanation = explain_task(nebula.manager, task)
        assert explanation.tuple_values["GID"] == "JW0014"
        assert explanation.tuple_values["Name"] == "groP"
