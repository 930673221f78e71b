"""Unit tests for benchmark report formatting."""

from repro.bench.reporting import format_table


class TestFormatTable:
    def test_header_and_rule(self):
        text = format_table(["x", "y"], [[1, 2.0], [10, None]])
        lines = text.splitlines()
        assert lines[0].startswith("x")
        assert set(lines[1]) <= {"-", " "}
        assert "2.000" in lines[2]
        assert "-" in lines[3]

    def test_column_widths_accommodate_long_values(self):
        text = format_table(["m"], [["a-very-long-cell-value"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("a-very-long-cell-value")
