"""Tests for repro.reporting and repro.viz."""

from __future__ import annotations

import pytest

from repro.core import TSO, SettlingProcess, program_from_types
from repro.reporting import (
    EXPERIMENTS,
    ascii_bars,
    ascii_plot,
    format_cell,
    get_experiment,
    render_markdown_table,
    render_table,
)
from repro.stats import RandomSource
from repro.viz import (
    describe_settling,
    render_settling_trace,
    render_shift_diagram,
    shift_outcome_probability,
)


class TestTables:
    def test_render_basic(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "22" in lines[3]

    def test_float_precision(self):
        text = render_table([{"v": 1 / 3}], precision=3)
        assert "0.333" in text

    def test_boolean_rendering(self):
        assert "yes" in render_table([{"ok": True}])
        assert "no" in render_table([{"ok": False}])

    def test_title(self):
        assert render_table([{"a": 1}], title="Table 1").startswith("Table 1")

    def test_column_selection_and_missing(self):
        text = render_table([{"a": 1}], columns=["a", "b"])
        assert "b" in text

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table([])

    def test_markdown_shape(self):
        text = render_markdown_table([{"a": 1, "b": 2}])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"

    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.5, precision=2) == "0.50"
        assert format_cell("text") == "text"


class TestFigures:
    def test_plot_contains_legend_and_axes(self):
        text = ascii_plot([1, 2, 3], {"series": [1.0, 2.0, 3.0]})
        assert "o=series" in text
        assert "x in [1, 3]" in text

    def test_plot_multiple_series_glyphs(self):
        text = ascii_plot([0, 1], {"a": [0, 1], "b": [1, 0]})
        assert "o=a" in text and "x=b" in text

    def test_plot_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_plot([1, 2], {"a": [1]})

    def test_plot_empty(self):
        with pytest.raises(ValueError):
            ascii_plot([], {})

    def test_plot_constant_series(self):
        text = ascii_plot([0, 1], {"flat": [2.0, 2.0]})
        assert "flat" in text

    def test_bars(self):
        text = ascii_bars(["SC", "WO"], [0.83, 0.87])
        assert "SC" in text and "#" in text

    def test_bars_validation(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bars([], [])


class TestExperimentRegistry:
    def test_twenty_four_experiments(self):
        assert len(EXPERIMENTS) == 24

    def test_ids_sequential(self):
        assert [experiment.id for experiment in EXPERIMENTS] == [
            f"E{i}" for i in range(1, 25)
        ]

    def test_lookup(self):
        assert get_experiment("e8").paper_artifact == "Theorem 6.2"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_every_bench_path_exists(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        for experiment in EXPERIMENTS:
            assert (root / experiment.bench).exists(), experiment.bench

    def test_every_named_module_imports(self):
        import importlib

        for experiment in EXPERIMENTS:
            for module in experiment.modules:
                importlib.import_module(module)


class TestSettlingTrace:
    def _traced_result(self):
        program = program_from_types("SLSSS")
        return SettlingProcess(TSO).settle(program, RandomSource(11), record_trace=True)

    def test_requires_trace(self):
        program = program_from_types("SL")
        result = SettlingProcess(TSO).settle(program, RandomSource(0))
        with pytest.raises(ValueError):
            render_settling_trace(result)

    def test_one_column_per_round(self):
        result = self._traced_result()
        text = render_settling_trace(result)
        assert "r1" in text and "r7" in text
        assert "critical window" in text

    def test_max_rounds_keeps_tail(self):
        result = self._traced_result()
        text = render_settling_trace(result, max_rounds=2)
        assert "r1" not in text.splitlines()[0]
        assert "r7" in text.splitlines()[0]

    def test_describe_brackets_window(self):
        result = self._traced_result()
        text = describe_settling(result)
        assert "<LD*>" in text and "<ST*>" in text


class TestShiftDiagram:
    def test_figure_2_probability(self):
        """The caption's 2^{-13} for shifts (8, 0, 2)."""
        assert shift_outcome_probability([8, 0, 2]) == pytest.approx(2.0**-13)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            shift_outcome_probability([-1])
        with pytest.raises(ValueError):
            shift_outcome_probability([1], beta=1.0)

    def test_diagram_shape(self):
        text = render_shift_diagram([8, 0, 2], [3, 2, 5])
        assert "g1" in text and "g3" in text
        assert "beta^13" in text
        assert "half-open" in text

    def test_diagram_validation(self):
        with pytest.raises(ValueError):
            render_shift_diagram([1], [1, 2])
        with pytest.raises(ValueError):
            render_shift_diagram([], [])
        with pytest.raises(ValueError):
            render_shift_diagram([0], [-1])

    def test_disjoint_instance_reports_yes(self):
        text = render_shift_diagram([0, 5], [2, 1])
        assert "yes (closed/theorem" in text
