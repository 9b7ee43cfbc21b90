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
from wreathperm.reporting import first_mismatch

from conftest import row_bytes, traced_peak

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
        with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
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
    """A tuple that raises IndexError on a negative index or slice bound."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            bounds = (index.start, index.stop, index.step)
        else:
            bounds = (index,)
        if any(b is not None and b < 0 for b in bounds):
            raise IndexError(f"negative index {index}")
        return super().__getitem__(index)


def _per_point(ell, g, d):
    """The nine identities of ``check_recurrences`` evaluated one index point
    at a time, in its order and with its names: each counterexample, or None."""
    max_n = len(g) - 1

    def term(coef, t, n, m):  # a zero coefficient reads no entry
        return coef * t[n][m] if coef else 0

    two_prev = [(n, m) for n in range(2, max_n + 1) for m in range(n)]
    diag = [(n, m) for n in range(1, max_n + 1) for m in range(1, n + 1)]
    inner = [(n, m) for n in range(2, max_n + 1) for m in range(1, n)]
    everywhere = [(n, m) for n in range(max_n + 1) for m in range(n + 1)]
    boundary = {
        ("g", 0, 0): 1, ("g", 1, 0): ell - 1, ("g", 1, 1): ell,
        ("d", 0, 0): 1, ("d", 1, 0): ell - 1, ("d", 1, 1): 1,
    }
    by_flavor = {"g": g, "d": d}
    nm = ("n", "m", "lhs", "rhs")
    identities = [
        (nm, two_prev, lambda n, m: (
            g[n][m], (ell * n - 1) * g[n - 1][m] + term(ell * (n - m - 1), g, n - 2, m))),
        (nm, two_prev, lambda n, m: (
            d[n][m], (ell * n - 1) * d[n - 1][m] + term(ell * (n - m - 1), d, n - 2, m))),
        (nm, diag, lambda n, m: (
            g[n][m], term(ell * (n - m), g, n - 1, m) + ell * m * g[n - 1][m - 1])),
        (nm, diag, lambda n, m: (
            d[n][m], term(ell * (n - m), d, n - 1, m) + d[n - 1][m - 1])),
        (nm, inner, lambda n, m: (
            g[n][m], ell * n * g[n - 1][m] - ell * m * g[n - 2][m - 1])),
        (nm, inner, lambda n, m: (d[n][m] + d[n - 2][m - 1], ell * n * d[n - 1][m])),
        (nm, [(n, 0) for n in range(1, max_n + 1)], lambda n, m: (
            d[n][0], ell * n * d[n - 1][0] + (-1) ** n)),
        (("flavor", *nm), boundary, lambda flavor, n, m: (
            by_flavor[flavor][n][m], boundary[flavor, n, m])),
        (nm, everywhere, lambda n, m: (
            g[n][m], ell**m * math.factorial(m) * d[n][m])),
    ]
    found = []
    for names, points, sides in identities:
        pairs = ((point, sides(*point)) for point in points)
        found.append(next(
            (dict(zip(names, (*p, str(a), str(b)))) for p, (a, b) in pairs if a != b), None))
    return found


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
        real, calls = tables.table_rows, []

        def strict(*args):
            calls.append(args)
            return map(_NoWrap, real(*args))

        monkeypatch.setattr(tables, "table_rows", strict)
        for (ell, n), results in expected.items():
            assert check_recurrences(ell, n) == results
        assert len(calls) == 2 * len(expected)

    def test_holds_three_rows_per_flavor(self):
        """At 300 letters the two triangles hold about two hundred times the
        last ``g`` row; the check holds a window of three rows of each."""
        one_row = row_bytes(build_table(1, 300, "g").rows[-1])
        assert traced_peak(lambda: check_recurrences(1, 300)) < 10 * one_row

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            check_recurrences(2, 1)

    @staticmethod
    def _bumped_agree(monkeypatch, ell, max_n, flavor, cells):
        """With the entries at ``cells`` of one flavor raised by one, the
        row-wise check reports what the per-point statement finds."""
        rows = {f: build_table(ell, max_n, f).rows for f in ("g", "d")}
        changed = [list(row) for row in rows[flavor]]
        for n, m in cells:
            changed[n][m] += 1
        rows[flavor] = tuple(map(tuple, changed))
        read = []
        monkeypatch.setattr(
            tables, "table_rows", lambda e, top, f: read.append(f) or iter(rows[f])
        )
        found = [r.counterexample for r in check_recurrences(ell, max_n)]
        assert sorted(read) == ["d", "g"]
        assert found == _per_point(ell, rows["g"], rows["d"])
        assert any(found)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("flavor", ["g", "d"])
    def test_rows_match_per_point_at_every_cell(self, monkeypatch, ell, flavor):
        """Every cell up to 8 letters, and every two neighbours in a row, so
        that a row differs in two entries and the first must be named."""
        for n in range(9):
            for m in range(n + 1):
                self._bumped_agree(monkeypatch, ell, 8, flavor, [(n, m)])
                if m < n:
                    self._bumped_agree(monkeypatch, ell, 8, flavor, [(n, m), (n, m + 1)])

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("flavor", ["g", "d"])
    def test_rows_match_per_point_deep(self, monkeypatch, ell, flavor):
        """The first and last columns, the diagonal and an interior cell of
        rows across a 60-letter triangle."""
        for n in (2, 3, 31, 59, 60):
            for m in sorted({0, n - 1, n, n // 2}):
                self._bumped_agree(monkeypatch, ell, 60, flavor, [(n, m)])

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_boundary_reads_g_rows_before_d_rows(self, monkeypatch, ell):
        """With ``d[0][0]`` and ``g[1][1]`` both off by one, the one pass over
        ``n`` still names the ``g`` row as the boundary counterexample."""
        rows = {f: [list(r) for r in build_table(ell, 6, f).rows] for f in ("g", "d")}
        rows["d"][0][0] += 1
        rows["g"][1][1] += 1
        rows = {f: tuple(map(tuple, t)) for f, t in rows.items()}
        monkeypatch.setattr(tables, "table_rows", lambda e, top, f: iter(rows[f]))
        found = [r.counterexample for r in check_recurrences(ell, 6)]
        assert found == _per_point(ell, rows["g"], rows["d"])
        assert found[7] == {"flavor": "g", "n": 1, "m": 1, "lhs": str(ell + 1), "rhs": str(ell)}

    def test_unchanged_tables_agree_with_per_point(self):
        for ell in (1, 2, 3, 4):
            g, d = (build_table(ell, 40, f).rows for f in ("g", "d"))
            assert _per_point(ell, g, d) == [None] * 9
            assert all(r.passed for r in check_recurrences(ell, 40))


_NAMES = ("k", "m", "lhs", "rhs")


class TestFirstMismatch:
    def test_first_point_in_row_order(self):
        rows = [
            ((0,), 0, (1, 2, 3), (1, 2, 3)),
            ((1,), 2, (1, 5, 6), (1, 4, 7)),  # entries 1 and 2 differ; 1 is first
            ((2,), 0, (0,), (9,)),
        ]
        assert first_mismatch(_NAMES, rows) == {"k": 1, "m": 3, "lhs": "5", "rhs": "4"}

    def test_prefix_and_start_name_the_point(self):
        rows = [(("d", 1), 0, (1, 2), (1, 3))]
        assert first_mismatch(("flavor", "n", "m", "lhs", "rhs"), rows) == {
            "flavor": "d", "n": 1, "m": 1, "lhs": "2", "rhs": "3",
        }

    def test_agreeing_rows(self):
        assert first_mismatch(_NAMES, []) is None
        assert first_mismatch(_NAMES, [((0,), 0, (), ()), ((1,), 4, (7, 8), (7, 8))]) is None

    def test_stops_at_the_first_differing_row(self):
        def rows():
            yield (0,), 0, (1,), (2,)
            raise AssertionError("read past the first differing row")

        assert first_mismatch(_NAMES, rows()) == {"k": 0, "m": 0, "lhs": "1", "rhs": "2"}

    @pytest.mark.parametrize(
        "lhs,rhs,message",
        [
            ((1, 2), (1, 2, 3), "zip\\(\\) argument 2 is longer"),
            ((1, 2, 3), (1, 2), "zip\\(\\) argument 2 is shorter"),
            ((), (0,), "zip\\(\\) argument 2 is longer"),
            ((1, 2), [1, 2], "^row \\(0,\\): a tuple and a list differ in no entry$"),
        ],
    )
    def test_row_that_differs_in_no_entry_is_refused(self, lhs, rhs, message):
        """Sides that compare unequal with no differing entry are a fault in
        the caller, never a pass."""
        with pytest.raises(ValueError, match=message):
            first_mismatch(_NAMES, [((0,), 0, (1,), (1,)), ((0,), 0, lhs, rhs)])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: build_table(2.0, 3, "g"), "ell: 2.0"),
        (lambda: build_table(True, 3, "d"), "ell: True"),
        (lambda: build_table(2, 3.0, "g"), "max_n: 3.0"),
        (lambda: g_closed_form(2.0, 3, 1), "ell: 2.0"),
        (lambda: g_closed_form(2, True, 1), "n: True"),
        (lambda: g_closed_form(2, 3, 1.0), "m: 1.0"),
        (lambda: derangement_number(2.0, 3), "ell: 2.0"),
        (lambda: derangement_number(2, 3.0), "n: 3.0"),
        (lambda: egf_coefficient(2.0, 1, 2), "ell: 2.0"),
        (lambda: egf_coefficient(2, False, 2), "m: False"),
        (lambda: egf_coefficient(2, 1, 2.0), "n: 2.0"),
        (lambda: check_recurrences(2.0, 4), "ell: 2.0"),
        (lambda: check_recurrences(2, 1.0), "max_n: 1.0"),
        (lambda: build_table(2, 3, "g").entry(True, 1), "n: True"),
        (lambda: build_table(2, 3, "g").entry(2, 1.0), "m: 1.0"),
    ],
)
def test_non_int_sizes_refused(call, message):
    """Past 2**53 a float entry is no longer exact, so the table layer takes
    only ints, bools refused too."""
    with pytest.raises(TypeError, match=f"^{message} is not an int$"):
        call()


@pytest.mark.parametrize("ell", [0, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda ell: g_closed_form(ell, 2, 1),
        lambda ell: derangement_number(ell, 3),
        lambda ell: egf_coefficient(ell, 1, 1),
    ],
    ids=["g_closed_form", "derangement_number", "egf_coefficient"],
)
def test_closed_forms_refuse_fewer_than_one_color(call, ell):
    """The closed forms refuse ``ell < 1`` as the table rows do, though their
    sums are defined there."""
    with pytest.raises(ValueError, match=f"^number of colors must be >= 1, got {ell}$"):
        call(ell)
