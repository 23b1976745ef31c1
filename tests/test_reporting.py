"""Unit tests for the plain-text table renderer."""

from repro.api.results import _fmt, format_table


# --------------------------------------------------------------------------- #
# Float formatting tiers
# --------------------------------------------------------------------------- #
def test_fmt_large_floats_have_no_decimals():
    assert _fmt(123.456) == "123"
    assert _fmt(-250.7) == "-251"
    assert _fmt(100.0) == "100"


def test_fmt_mid_floats_have_two_decimals():
    assert _fmt(12.345) == "12.35"
    assert _fmt(1.0) == "1.00"
    assert _fmt(-99.999) == "-100.00"


def test_fmt_small_floats_have_three_decimals():
    assert _fmt(0.1234) == "0.123"
    assert _fmt(0.0) == "0.000"
    assert _fmt(-0.5) == "-0.500"


def test_fmt_non_floats_pass_through():
    assert _fmt(42) == "42"
    assert _fmt("text") == "text"
    assert _fmt(None) == "None"
    assert _fmt(True) == "True"


# --------------------------------------------------------------------------- #
# Table shape
# --------------------------------------------------------------------------- #
def test_format_table_basic_alignment_and_title():
    text = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].split() == ["a", "bb"]
    assert set(lines[2]) <= {"-", " "}
    # All table lines share one width.
    assert len({len(line) for line in lines[1:]}) == 1


def test_format_table_pads_short_rows():
    text = format_table(["a", "b", "c"], [[1], [1, 2, 3]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(line) for line in lines}) == 1  # aligned despite the gap


def test_format_table_extends_for_long_rows():
    text = format_table(["a"], [[1, 2, 3]])
    lines = text.splitlines()
    assert lines[-1].split() == ["1", "2", "3"]


def test_format_table_empty_rows_and_headers():
    assert format_table([], []) == "\n"
    text = format_table(["x"], [])
    assert text.splitlines()[0] == "x"
