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
from dataclasses import dataclass
from itertools import accumulate

from .reporting import CheckResult, check_result, first_mismatch

FLAVOR_G = "g"
FLAVOR_D = "d"
FLAVORS = (FLAVOR_G, FLAVOR_D)


@dataclass(frozen=True)
class DifferenceTable:
    """Triangular array ``rows[n][m]`` for ``0 <= m <= n <= max_n``."""

    ell: int
    flavor: str
    rows: tuple[tuple[int, ...], ...]

    @property
    def max_n(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, m: int) -> int:
        if not 0 <= m <= n <= self.max_n:
            raise ValueError(f"entry ({n}, {m}) outside triangle of size {self.max_n}")
        return self.rows[n][m]


def build_table(ell: int, max_n: int, flavor: str) -> DifferenceTable:
    """Build a full triangle by the defining recurrence."""
    if ell < 1:
        raise ValueError(f"number of colors must be >= 1, got {ell}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    rows: list[tuple[int, ...]] = []
    for n in range(max_n + 1):
        row = [0] * (n + 1)
        if flavor == FLAVOR_G:
            row[n] = ell**n * math.factorial(n)
            for m in range(n - 1, -1, -1):
                row[m] = row[m + 1] - rows[n - 1][m]
        else:
            row[n] = 1
            for m in range(n - 1, -1, -1):
                row[m] = ell * (m + 1) * row[m + 1] - rows[n - 1][m]
        rows.append(tuple(row))
    return DifferenceTable(ell, flavor, tuple(rows))


def g_closed_form(ell: int, n: int, m: int) -> int:
    """Alternating-sum closed form for the ``g`` entry at ``(n, m)``."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    r = n - m
    return sum(
        (-1) ** (r - i) * math.comb(r, i) * ell ** (m + i) * math.factorial(m + i)
        for i in range(r + 1)
    )


def derangement_number(ell: int, n: int) -> int:
    """Number of derangements of the group on ``n`` letters with ``ell`` colors.

    Computed as ``sum_i (-1)^i * ell^(n-i) * n!/i!``; every term is an
    integer, so the sum is exact.
    """
    if n < 0:
        raise ValueError(f"size must be >= 0, got {n}")
    fact_n = math.factorial(n)
    return sum(
        (-1) ** i * ell ** (n - i) * (fact_n // math.factorial(i))
        for i in range(n + 1)
    )


def egf_coefficient(ell: int, m: int, n: int) -> int:
    """``n! * [u^n]`` of ``ell^m m! exp(-u) / (1 - ell*u)^(m+1)``.

    Evaluated by exact integer series arithmetic: each of the ``m + 1``
    factors ``1/(1 - ell*u)`` is the prefix recurrence
    ``power[c] += ell * power[c-1]``, and ``n! * [u^n]`` of the product with
    ``exp(-u)`` is ``sum_a (-1)^a * n!/a! * power[n-a]``, integral term by
    term.  Equals the ``g`` entry at ``(n + m, m)``.
    """
    if m < 0 or n < 0:
        raise ValueError(f"need m, n >= 0, got m={m}, n={n}")
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
    counterexample.  Identities are only evaluated at index points where all
    referenced entries exist (terms with a zero coefficient are dropped
    before their entry is fetched).
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    g = build_table(ell, max_n, FLAVOR_G).rows
    d = build_table(ell, max_n, FLAVOR_D).rows
    # scale[m] = ell^m * m!, one multiplication per m
    scale = list(accumulate(range(1, max_n + 1), lambda s, m: s * ell * m, initial=1))

    def term(coef, rows, n, m):
        return coef * rows[n][m] if coef else 0

    def two_prev_rows(t):
        return lambda n, m: (
            t[n][m],
            (ell * n - 1) * t[n - 1][m] + term(ell * (n - m - 1), t, n - 2, m),
        )

    two_prev = [(n, m) for n in range(2, max_n + 1) for m in range(n)]
    diag = [(n, m) for n in range(1, max_n + 1) for m in range(1, n + 1)]
    inner = [(n, m) for n in range(2, max_n + 1) for m in range(1, n)]
    boundary = {
        (FLAVOR_G, 0, 0): 1,
        (FLAVOR_G, 1, 0): ell - 1,
        (FLAVOR_G, 1, 1): ell,
        (FLAVOR_D, 0, 0): 1,
        (FLAVOR_D, 1, 0): ell - 1,
        (FLAVOR_D, 1, 1): 1,
    }
    by_flavor = {FLAVOR_G: g, FLAVOR_D: d}
    nm = ("n", "m", "lhs", "rhs")
    identities = [
        ("g_rec_two_prev_rows", nm, two_prev, two_prev_rows(g)),
        ("d_rec_two_prev_rows", nm, two_prev, two_prev_rows(d)),
        (
            "g_rec_prev_row_diag",
            nm,
            diag,
            lambda n, m: (
                g[n][m],
                term(ell * (n - m), g, n - 1, m) + ell * m * g[n - 1][m - 1],
            ),
        ),
        (
            "d_rec_prev_row_diag",
            nm,
            diag,
            lambda n, m: (d[n][m], term(ell * (n - m), d, n - 1, m) + d[n - 1][m - 1]),
        ),
        (
            "g_rec_three_term",
            nm,
            inner,
            lambda n, m: (g[n][m], ell * n * g[n - 1][m] - ell * m * g[n - 2][m - 1]),
        ),
        (
            "d_rec_three_term",
            nm,
            inner,
            lambda n, m: (d[n][m] + d[n - 2][m - 1], ell * n * d[n - 1][m]),
        ),
        (
            "d_rec_column0_parity",
            nm,
            [(n, 0) for n in range(1, max_n + 1)],
            lambda n, m: (d[n][0], ell * n * d[n - 1][0] + (-1) ** n),
        ),
        (
            "boundary_values",
            ("flavor", *nm),
            boundary,
            lambda flavor, n, m: (by_flavor[flavor][n][m], boundary[flavor, n, m]),
        ),
        (
            "g_equals_scaled_d",
            nm,
            [(n, m) for n in range(max_n + 1) for m in range(n + 1)],
            lambda n, m: (g[n][m], scale[m] * d[n][m]),
        ),
    ]
    params = {"max_n": max_n}
    return [
        check_result(check, ell, None, params, first_mismatch(names, points, sides))
        for check, names, points, sides in identities
    ]
