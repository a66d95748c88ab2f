"""Tests for the benchmark harness: the method registry and table rendering."""

from repro.bench import BENCH_PROFILES, DEFAULT_METHODS, format_table
from repro.bench.runner import METHOD_BUILDERS, ONLINE_METHODS
from repro.datasets import DATASET_PROFILES


class TestRegistry:
    def test_every_default_method_has_builder(self):
        for method in DEFAULT_METHODS:
            assert method in METHOD_BUILDERS

    def test_profiles_cover_all_datasets(self):
        assert set(BENCH_PROFILES) == set(DATASET_PROFILES)

    def test_online_methods_follow_paper(self):
        # The paper reports CEN under the online setting and RETIA always
        # trains online during evaluation.
        assert ONLINE_METHODS == {"CEN", "RETIA"}

    def test_retia_last_in_table_order(self):
        assert DEFAULT_METHODS[-1] == "RETIA"

    def test_rgcrn_available_for_table7(self):
        assert "RGCRN" in METHOD_BUILDERS


class TestFormatTable:
    ROWS = [
        {"Method": "A", "MRR": 10.0, "Hits@1": 5.0},
        {"Method": "B", "MRR": 20.0, "Hits@1": 2.5},
    ]

    def test_contains_all_cells(self):
        text = format_table(self.ROWS, ["Method", "MRR", "Hits@1"])
        assert "10.00" in text
        assert "20.00" in text
        assert "Method" in text

    def test_highlight_best_marks_max(self):
        text = format_table(self.ROWS, ["Method", "MRR"], highlight_best=["MRR"])
        assert "20.00*" in text
        assert "10.00*" not in text

    def test_missing_column_renders_dash(self):
        rows = [{"Method": "A"}]
        text = format_table(rows, ["Method", "MRR"])
        assert "-" in text

    def test_alignment_consistent(self):
        text = format_table(self.ROWS, ["Method", "MRR"])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line and not set(line) == {"-"}}) <= 2

    def test_custom_float_format(self):
        text = format_table(self.ROWS, ["MRR"], float_format="{:.1f}")
        assert "10.0" in text
        assert "10.00" not in text

    def test_empty_rows(self):
        text = format_table([], ["Method"])
        assert "Method" in text
