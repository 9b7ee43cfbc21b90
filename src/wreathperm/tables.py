"""Exact difference tables, closed forms, EGF coefficients, recurrence checks.

Two triangular integer arrays are attached to the colored permutation groups
with ``ell`` colors:

* the ``g`` table: ``g[n][n] = ell^n * n!`` and
  ``g[n][m] = g[n][m+1] - g[n-1][m]``; its column ``m = 0`` counts the
  derangements of the group on ``n`` letters,
* the ``d`` table: ``d[n][n] = 1`` and
  ``d[n][m] = ell*(m+1)*d[n][m+1] - d[n-1][m]``; it satisfies
  ``g[n][m] = ell^m * m! * d[n][m]`` entrywise.

Both are built by their own defining recurrence (the ``d`` table is never
derived from ``g`` by division, so that divisibility stays a genuine check).
All arithmetic is exact arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, repeat
from operator import add, mul
from typing import NamedTuple

from .core import _group, _ints, _within
from .reporting import CheckResult, first_mismatch

FLAVOR_G = "g"
FLAVOR_D = "d"
FLAVORS = (FLAVOR_G, FLAVOR_D)


class DifferenceTable(NamedTuple):
    """Triangular array ``rows[n][m]`` for ``0 <= m <= n <= max_n``."""

    ell: int
    flavor: str
    rows: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, m: int) -> int:
        _within("n", n, 0, self.max_n)
        _within("m", m, 0, n)
        return self.rows[n][m]


def table_rows(ell: int, max_n: int, flavor: str) -> Iterator[tuple[int, ...]]:
    """The rows ``0..max_n`` of a triangle, each built by the defining
    recurrence from the one before it, so only two rows are held at a time.
    The arguments are checked when this is called, before any row is built."""
    _group(ell, max_n=max_n)
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")

    def rows():
        # leftwards from the diagonal: t[n][m] = c(m)*t[n][m+1] - t[n-1][m], with
        # c = 1 for g (diagonal ell^n * n!) and c = ell*(m+1) for d (diagonal 1)
        row, top, g = (), 1, flavor == FLAVOR_G
        for n in range(max_n + 1):
            x = top if g else 1
            new = [x] * (n + 1)
            for m in range(n - 1, -1, -1):
                x = new[m] = (x if g else ell * (m + 1) * x) - row[m]
            row, top = tuple(new), top * ell * (n + 1)
            yield row

    return rows()


def build_table(ell: int, max_n: int, flavor: str) -> DifferenceTable:
    """Build a full triangle by the defining recurrence."""
    return DifferenceTable(ell, flavor, tuple(table_rows(ell, max_n, flavor)))


def g_closed_form(ell: int, n: int, m: int) -> int:
    """Alternating-sum closed form for the ``g`` entry at ``(n, m)``."""
    _group(ell, n=n)
    _within("m", m, 0, n)
    r = n - m
    return sum(
        (-1) ** (r - i) * math.comb(r, i) * ell ** (m + i) * math.factorial(m + i)
        for i in range(r + 1)
    )


def derangement_number(ell: int, n: int) -> int:
    """Number of derangements of the group on ``n`` letters with ``ell`` colors.

    The closed form at ``m = 0``, ``sum_i (-1)^i * ell^(n-i) * n!/i!``: the
    same alternating sum read from its other end (substitute ``i -> n - i``).
    """
    return g_closed_form(ell, n, 0)


def egf_coefficient(ell: int, m: int, n: int) -> int:
    """``n! * [u^n]`` of ``ell^m m! exp(-u) / (1 - ell*u)^(m+1)``.

    Evaluated by exact integer series arithmetic: each of the ``m + 1``
    factors ``1/(1 - ell*u)`` is the prefix recurrence
    ``power[c] += ell * power[c-1]``, and ``n! * [u^n]`` of the product with
    ``exp(-u)`` is ``sum_a (-1)^a * n!/a! * power[n-a]``, integral term by
    term.  Equals the ``g`` entry at ``(n + m, m)``.
    """
    _group(ell, m=m, n=n)
    power = [1] + [0] * n
    for _ in range(m + 1):
        for c in range(1, n + 1):
            power[c] += ell * power[c - 1]
    fact_n = math.factorial(n)
    coeff = sum(
        (-1) ** a * (fact_n // math.factorial(a)) * power[n - a] for a in range(n + 1)
    )
    return coeff * ell**m * math.factorial(m)


# -- recurrence suite ---------------------------------------------------------


def check_recurrences(ell: int, max_n: int) -> list[CheckResult]:
    """Validate every recurrence, boundary, and divisibility identity.

    Returns one pass/fail result per identity; a failure carries the first
    counterexample.  One pass reads the ``g`` and ``d`` rows in lockstep and
    holds only rows ``n - 2 .. n`` of each.  At each ``n``, every identity
    that has not yet failed compares its row there, and the first row that
    differs names its counterexample.  An entry outside the triangle enters
    a row only as a padded 0 times a zero coefficient, so no such entry is
    read.
    """
    _ints(ell=ell, max_n=max_n)
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    streams = zip(table_rows(ell, max_n, FLAVOR_G), table_rows(ell, max_n, FLAVOR_D))
    # scale[m] = ell^m * m!, one multiplication per m
    scale = list(accumulate(range(1, max_n + 1), lambda s, m: s * ell * m, initial=1))

    # Each identity's rows at n, read from the windows g and d: t = (t[n], t[n-1], t[n-2]).
    def two_prev_rows(n, t):
        # t[n][m] = (ell*n - 1)*t[n-1][m] + ell*(n-m-1)*t[n-2][m] for m < n; at m = n-1
        # the 0 padding row n-2 meets a zero coefficient
        (row, prev, prev2), k = t, ell * n - 1
        terms = zip(range(ell * (n - 1), -1, -ell), prev, prev2 + (0,))
        yield (n,), 0, row[:n], tuple([k * a + c * b for c, a, b in terms])

    def prev_row_diag(n, t, diag):
        # t[n][m] = ell*(n-m)*t[n-1][m] + diag[m-1] for 0 < m <= n; at m = n
        # the 0 padding row n-1 meets a zero coefficient
        row, prev = t[:2]
        terms = zip(range(ell * (n - 1), -1, -ell), prev[1:] + (0,), diag)
        yield (n,), 1, row[1:], tuple([c * a + b for c, a, b in terms])

    def g_diag(n, prev):  # ell*m*g[n-1][m-1] for m = 1..n; d's diagonal term is d[n-1][m-1]
        return map(mul, range(ell, ell * n + 1, ell), prev)

    def g_three_term(n, g, d):  # g[n][m] = ell*n*g[n-1][m] - ell*m*g[n-2][m-1] for 0 < m < n
        (row, prev, prev2), k = g, ell * n
        terms = zip(range(ell, ell * n, ell), prev[1:], prev2)
        yield (n,), 1, row[1:n], tuple([k * a - c * b for c, a, b in terms])

    def d_three_term(n, g, d):  # d[n][m] + d[n-2][m-1] = ell*n*d[n-1][m] for 0 < m < n
        row, prev, prev2 = d
        lhs = tuple(map(add, row[1:n], prev2))
        yield (n,), 1, lhs, tuple(map(mul, repeat(ell * n), prev[1:]))

    def parity(n, g, d):  # d[n][0] = ell*n*d[n-1][0] + (-1)^n, one entry per row
        yield (n,), 0, d[0][:1], (ell * n * d[1][0] + (-1) ** n,)

    def boundary(n, g, d):  # rows 0 and 1 of each flavor, g's before d's
        for flavor, (row1, row0), top in ((FLAVOR_G, g[:2], ell), (FLAVOR_D, d[:2], 1)):
            yield (flavor, 0), 0, row0, (1,)
            yield (flavor, 1), 0, row1, (ell - 1, top)

    def scaled(n, g, d):
        yield (n,), 0, g[0], tuple(map(mul, scale, d[0]))

    nm = ("n", "m", "lhs", "rhs")
    from0, from1, from2 = (range(first, max_n + 1) for first in (0, 1, 2))
    # (check, names, the n at which it compares a row, its rows at n)
    identities = [
        ("g_rec_two_prev_rows", nm, from2, lambda n, g, d: two_prev_rows(n, g)),
        ("d_rec_two_prev_rows", nm, from2, lambda n, g, d: two_prev_rows(n, d)),
        ("g_rec_prev_row_diag", nm, from1, lambda n, g, d: prev_row_diag(n, g, g_diag(n, g[1]))),
        ("d_rec_prev_row_diag", nm, from1, lambda n, g, d: prev_row_diag(n, d, d[1])),
        ("g_rec_three_term", nm, from2, g_three_term),
        ("d_rec_three_term", nm, from2, d_three_term),
        ("d_rec_column0_parity", nm, from1, parity),
        ("boundary_values", ("flavor", *nm), range(1, 2), boundary),
        ("g_equals_scaled_d", nm, from0, scaled),
    ]
    found = dict.fromkeys(check for check, *_ in identities)  # check -> counterexample
    pending, g, d = identities, ((), ()), ((), ())
    for n, (g_row, d_row) in enumerate(streams):
        g, d = (g_row, *g[:2]), (d_row, *d[:2])
        for check, names, at, rows in pending:
            if n in at:
                found[check] = first_mismatch(names, rows(n, g, d))
        pending = [i for i in pending if found[i[0]] is None]
    params = {"max_n": max_n}
    return [CheckResult(check, ell, None, params, found[check]) for check in found]
