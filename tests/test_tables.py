import math
from fractions import Fraction

import pytest

from wreathperm import (
    build_table,
    check_recurrences,
    derangement_number,
    egf_coefficient,
    g_closed_form,
    tables,
)

# frozen low-order triangles for one and two colors
G_TABLE_1 = [
    [1],
    [0, 1],
    [1, 1, 2],
    [2, 3, 4, 6],
    [9, 11, 14, 18, 24],
    [44, 53, 64, 78, 96, 120],
]
G_TABLE_2 = [
    [1],
    [1, 2],
    [5, 6, 8],
    [29, 34, 40, 48],
    [233, 262, 296, 336, 384],
    [2329, 2562, 2824, 3120, 3456, 3840],
]
D_TABLE_1 = [
    [1],
    [0, 1],
    [1, 1, 1],
    [2, 3, 2, 1],
    [9, 11, 7, 3, 1],
    [44, 53, 32, 13, 4, 1],
]
D_TABLE_2 = [
    [1],
    [1, 1],
    [5, 3, 1],
    [29, 17, 5, 1],
    [233, 131, 37, 7, 1],
    [2329, 1281, 353, 65, 9, 1],
]


class TestBuildTable:
    @pytest.mark.parametrize(
        "ell,flavor,expected",
        [
            (1, "g", G_TABLE_1),
            (2, "g", G_TABLE_2),
            (1, "d", D_TABLE_1),
            (2, "d", D_TABLE_2),
        ],
    )
    def test_frozen_triangles(self, ell, flavor, expected):
        table = build_table(ell, 5, flavor)
        assert [list(row) for row in table.rows] == expected

    def test_spot_values(self):
        assert build_table(2, 5, "g").rows[3] == (29, 34, 40, 48)
        assert build_table(2, 5, "d").rows[5] == (2329, 1281, 353, 65, 9, 1)
        assert build_table(1, 5, "g").entry(5, 0) == 44

    def test_single_entry(self):
        assert build_table(1, 0, "g").rows == ((1,),)

    def test_errors(self):
        with pytest.raises(ValueError):
            build_table(0, 3, "g")
        with pytest.raises(ValueError):
            build_table(2, 3, "x")
        with pytest.raises(ValueError):
            build_table(2, 3, "g").entry(2, 3)


class TestClosedForm:
    def test_examples(self):
        assert g_closed_form(2, 2, 1) == 6
        assert g_closed_form(2, 5, 0) == 2329
        for ell in (1, 2, 3):
            for n in range(6):
                assert g_closed_form(ell, n, n) == ell**n * math.factorial(n)

    def test_matches_table(self):
        for ell in range(1, 6):
            table = build_table(ell, 25, "g")
            for n in range(26):
                for m in range(n + 1):
                    assert g_closed_form(ell, n, m) == table.entry(n, m)

    def test_invalid(self):
        with pytest.raises(ValueError):
            g_closed_form(2, 2, 3)


class TestDerangements:
    def test_examples(self):
        assert derangement_number(2, 2) == 5
        assert derangement_number(1, 1) == 0
        assert derangement_number(7, 0) == 1
        assert derangement_number(3, 4) == build_table(3, 4, "g").entry(4, 0)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            derangement_number(1, -1)

    def test_matches_column(self):
        for ell in (1, 2, 3, 5):
            table = build_table(ell, 25, "g")
            for n in range(26):
                assert derangement_number(ell, n) == table.entry(n, 0)


def _egf_double_sum(ell, m, n):
    """Independent oracle: expand the closed product of both series directly."""
    total = 0
    for a in range(n + 1):
        b = n - a
        total += (
            (-1) ** a
            * (math.factorial(n) // math.factorial(a))
            * (math.factorial(m + b) // math.factorial(b))
            * ell ** (m + b)
        )
    return total


def _egf_bivariate(ell, m, n):
    """Second oracle from the two-variable generating function."""
    total = Fraction(0)
    for c in range(n + 1):
        total += (
            Fraction((-1) ** c, math.factorial(c))
            * ell ** (m + n - c)
            * math.comb(m + n - c, m)
        )
    value = total * math.factorial(m) * math.factorial(n)
    assert value.denominator == 1
    return int(value)


class TestEgf:
    def test_examples(self):
        assert egf_coefficient(2, 1, 1) == 6
        assert egf_coefficient(2, 0, 5) == 2329
        for ell in (1, 2, 3):
            for m in range(5):
                assert egf_coefficient(ell, m, 0) == ell**m * math.factorial(m)

    def test_negative_sizes(self):
        with pytest.raises(ValueError, match="^need m, n >= 0, got m=-1, n=0$"):
            egf_coefficient(1, -1, 0)

    def test_three_routes_agree(self):
        # every n + m <= 40 at ell <= 3 (perfbench's closed-form range), and
        # n + m <= 12 at ell = 4
        for ell, top in ((1, 40), (2, 40), (3, 40), (4, 12)):
            table = build_table(ell, top, "g")
            for m in range(top + 1):
                for n in range(top + 1 - m):
                    value = egf_coefficient(ell, m, n)
                    assert value == table.entry(n + m, m)
                    assert value == _egf_double_sum(ell, m, n)
                    assert value == _egf_bivariate(ell, m, n)


class _NoWrap(tuple):
    """A tuple that raises IndexError on a negative index."""

    def __getitem__(self, index):
        if index < 0:
            raise IndexError(f"negative index {index}")
        return super().__getitem__(index)


class TestRecurrences:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_all_pass(self, ell):
        results = check_recurrences(ell, 30)
        assert results, "no checks ran"
        for r in results:
            assert r.passed, f"{r.check}: {r.counterexample}"

    def test_one_color_column(self):
        # the single-color d table ends in the classic difference triangle row
        assert build_table(1, 5, "d").rows[5] == (44, 53, 32, 13, 4, 1)

    def test_divisibility_direct(self):
        for ell in (2, 3):
            g = build_table(ell, 20, "g")
            d = build_table(ell, 20, "d")
            for n in range(21):
                for m in range(n + 1):
                    assert g.entry(n, m) == ell**m * math.factorial(m) * d.entry(n, m)

    def test_reads_no_negative_index(self, monkeypatch):
        """Rows are read directly, so a negative index would wrap around to
        the far end of a row instead of failing; rows that refuse one give
        the same results."""
        expected = {
            (ell, n): check_recurrences(ell, n) for ell in (1, 2, 3) for n in range(2, 9)
        }
        real = tables.build_table

        def strict(*args):
            table = real(*args)
            rows = _NoWrap(_NoWrap(row) for row in table.rows)
            return table._replace(rows=rows)

        monkeypatch.setattr(tables, "build_table", strict)
        for (ell, n), results in expected.items():
            assert check_recurrences(ell, n) == results

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            check_recurrences(2, 1)
