"""Exhaustive iteration over the colored groups and brute-force verification.

Elements are enumerated in a fixed order: underlying permutations
lexicographically, and for each permutation the color-by-value vector as a
base-``ell`` counter (leftmost digit most significant).  The stream can be
cut into contiguous index ranges, so counting reductions parallelize with an
exact integer merge and identical results at any worker count.

A budget guard refuses group sizes above ``DEFAULT_BUDGET`` elements unless a
larger budget is passed explicitly.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice, product, repeat, starmap
from typing import Iterator

from .core import ColoredPermutation, rotate_right, sigma_cycles
from .reporting import CheckResult, check_result, first_mismatch
from .statistics import (
    CIRCULAR,
    LINEAR,
    SKEW_LINEAR,
    circular_pairs,
    linear_pairs,
    skew_linear_pairs,
)
from .tables import FLAVOR_D, FLAVOR_G, build_table, check_recurrences

DEFAULT_BUDGET = 100_000_000

# Below this many elements a parallel run is pure overhead; counts merge
# exactly either way, so results do not depend on the threshold.
_PARALLEL_THRESHOLD = 10_000

SUITES = ("t2", "t3", "c7", "l45", "t9", "t11", "e22", "e43", "rec")


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the configured element budget."""


def group_size(ell: int, n: int) -> int:
    """Number of elements: ``ell^n * n!``."""
    if ell < 1 or n < 0:
        raise ValueError(f"need ell >= 1 and n >= 0, got ell={ell}, n={n}")
    return ell**n * math.factorial(n)


def _check_budget(ell: int, n: int, budget: int | None) -> int:
    if ell < 1 or n < 0:  # the sizes given, not the first one the loop would size
        raise ValueError(f"need ell >= 1 and n >= 0, got ell={ell}, n={n}")
    limit = DEFAULT_BUDGET if budget is None else budget
    fits = -1  # grows no further than n, so a huge n is never sized
    while fits < n and group_size(ell, fits + 1) <= limit:
        fits += 1
    if fits < n:
        hint = f"the largest n that fits with ell={ell} is {fits}" if fits >= 0 else "no n fits"
        raise BudgetError(
            f"the group with ell={ell}, n={n} exceeds the budget of {limit} elements; {hint}"
        )
    return group_size(ell, n)


def _unrank_sigma(n: int, rank: int) -> list[int]:
    available = list(range(1, n + 1))
    out = []
    for radix in range(n, 0, -1):
        f = math.factorial(radix - 1)
        out.append(available.pop(rank // f))
        rank %= f
    return out


def element_at(ell: int, n: int, index: int) -> ColoredPermutation:
    """The ``index``-th element (0-based) in enumeration order."""
    size = group_size(ell, n)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for group of size {size}")
    rank, offset = divmod(index, ell**n)
    colors = tuple(offset // ell**j % ell for j in reversed(range(n)))
    return ColoredPermutation(ell, tuple(_unrank_sigma(n, rank)), colors)


def _next_sigma(sigma: list[int]) -> bool:
    """Advance to the lexicographic successor in place; False after the last."""
    n = len(sigma)
    i = n - 2
    while i >= 0 and sigma[i] >= sigma[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while sigma[j] <= sigma[i]:
        j -= 1
    sigma[i], sigma[j] = sigma[j], sigma[i]
    sigma[i + 1 :] = reversed(sigma[i + 1 :])
    return True


def _iter_blocks(
    ell: int, n: int, start: int, stop: int
) -> Iterator[tuple[tuple[int, ...], Iterator[tuple[int, ...]]]]:
    """Yield ``(sigma, colorings)`` for each run of the index range
    [start, stop) that shares one underlying permutation; the first and last
    run may be part of a block."""
    if stop <= start:
        return
    radix = ell**n
    rank, offset = divmod(start, radix)
    sigma = _unrank_sigma(n, rank)
    left = stop - start
    while True:
        take = min(radix - offset, left)
        yield tuple(sigma), islice(product(range(ell), repeat=n), offset, offset + take)
        left -= take
        offset = 0
        if not left or not _next_sigma(sigma):
            return


def _iter_raw(
    ell: int, n: int, start: int, stop: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield ``(sigma, colors)`` for the contiguous index range [start, stop)."""
    for sigma, colorings in _iter_blocks(ell, n, start, stop):
        yield from zip(repeat(sigma), colorings)


def enumerate_group(
    ell: int, n: int, *, budget: int | None = None
) -> Iterator[ColoredPermutation]:
    """Every element exactly once, in the fixed enumeration order."""
    size = _check_budget(ell, n, budget)
    for sigma, colors in _iter_raw(ell, n, 0, size):
        yield ColoredPermutation(ell, sigma, colors)


def enumerate_range(
    ell: int, n: int, start: int, stop: int, *, budget: int | None = None
) -> Iterator[ColoredPermutation]:
    """The sub-stream with enumeration indices in ``[start, stop)``."""
    size = _check_budget(ell, n, budget)
    if not 0 <= start <= stop <= size:
        raise IndexError(f"range [{start}, {stop}) out of bounds for size {size}")
    for sigma, colors in _iter_raw(ell, n, start, stop):
        yield ColoredPermutation(ell, sigma, colors)


def partition_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, balanced ranges."""
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    cuts = [total * j // parts for j in range(parts + 1)]
    return [(cuts[j], cuts[j + 1]) for j in range(parts)]


# -- counting reductions --------------------------------------------------------


@dataclass(frozen=True)
class CountDistribution:
    """Exact counts of elements by statistic value: ``counts[m]`` elements
    carry exactly ``m`` successions of the given kind."""

    ell: int
    n: int
    k: int
    kind: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if sum(self.counts) != group_size(self.ell, self.n):
            raise ValueError("distribution does not cover the whole group")


# A kernel reads one underlying permutation ``sigma`` once and returns the key
# function of its colorings: everything that depends on ``sigma`` alone is
# worked out per block, and the returned function reads the colors of every
# element.  A partition is folded into a Counter of keys, and each public
# function expands the merged keys into its histogram.  Succession keys hold
# one code ``k * (n + 1) + v`` per k-succession with value ``v``, so a single
# key serves every k at once.  ``statistics.py`` is the readable spec of each.


def _circular_kernel(sigma):
    """An uncolored value ``v`` at position ``i`` with ``v >= i`` is a
    ``(v - i)``-circular succession."""
    w = len(sigma) + 1
    candidates = [(v - 1, (v - i) * w + v) for i, v in enumerate(sigma, 1) if v >= i]
    return lambda colors: tuple([code for j, code in candidates if not colors[j]])


def _linear_kernel(sigma):
    """An adjacent equal-colored pair ``a, b`` with ``b > a`` is a
    ``(b - a)``-linear succession."""
    w = len(sigma) + 1
    rises = [(a - 1, b - 1, (b - a) * w + b) for a, b in zip(sigma, sigma[1:]) if b > a]
    return lambda colors: tuple([code for a, b, code in rises if colors[a] == colors[b]])


def _skew_linear_kernel(sigma):
    """Linear successions, plus the first value ``v`` as a ``v``-succession
    when it is uncolored."""
    linear = _linear_kernel(sigma)
    if not sigma:
        return linear
    v = sigma[0]
    first = (v * (len(sigma) + 1) + v,)
    return lambda colors: linear(colors) if colors[v - 1] else linear(colors) + first


def _family_kernel(sigma, chain):
    """The ``m`` making an element a member of a family form the interval
    ``[max fixed point, h]``, ``h`` the number of leading uncolored values in
    ``chain``, a sequence of value indices that depends on ``sigma`` alone."""
    fixed = [v - 1 for v in range(len(sigma), 0, -1) if sigma[v - 1] == v]

    def key(colors):
        h = 0
        for j in chain:
            if colors[j]:
                break
            h += 1
        return next((j + 1 for j in fixed if not colors[j]), 0), h

    return key


def _increasing_kernel(sigma):
    """``h`` is the length of the uncolored increasing prefix."""
    rise = next((i for i in range(1, len(sigma)) if sigma[i] < sigma[i - 1]), len(sigma))
    return _family_kernel(sigma, [v - 1 for v in sigma[:rise]])


def _isolated_kernel(sigma):
    """``h`` is the number of leading uncolored values, capped below the
    smallest second-smallest value of any cycle."""
    seconds = [sorted(c)[1] for c in sigma_cycles(sigma) if len(c) > 1]
    return _family_kernel(sigma, range(min(seconds, default=len(sigma) + 1) - 1))


_SUCCESSION_KERNELS = {
    CIRCULAR: _circular_kernel,
    LINEAR: _linear_kernel,
    SKEW_LINEAR: _skew_linear_kernel,
}
_FAMILY_KERNELS = {"increasing": _increasing_kernel, "isolated": _isolated_kernel}


def _tally(kernel, ell, n, start, stop) -> Counter:
    """Count the elements of one index range by ``kernel(sigma)(colors)``."""
    counts = Counter()
    for sigma, colorings in _iter_blocks(ell, n, start, stop):
        counts.update(map(kernel(sigma), colorings))
    return counts


def _first_failure(check, ell, n, start, stop) -> dict | None:
    """The counterexample of the lowest-index element that ``check`` rejects."""
    for index, found in enumerate(starmap(check, _iter_raw(ell, n, start, stop)), start):
        if found is not None:
            return {"index": index, **found}
    return None


def _pool_size(jobs: int, cpus: int, partitions: int) -> int:
    """Workers for one map-reduce: no more than requested, than CPUs, or than
    the partitions the work can be cut into."""
    return max(1, min(jobs, cpus, partitions))


def _run_task(args):
    """Fold a kernel over one contiguous index range."""
    fold, ell, n, kernel, start, stop = args
    return fold(kernel, ell, n, start, stop)


def _map_reduce(fold, ell: int, n: int, kernel, jobs: int, budget: int | None) -> list:
    """Partition the whole group, fold ``kernel`` over each partition (in a
    process pool when it pays), and return the results in index order."""
    size = _check_budget(ell, n, budget)
    workers = _pool_size(jobs, os.cpu_count() or 1, size)
    if workers == 1 or size < _PARALLEL_THRESHOLD:
        return [_run_task((fold, ell, n, kernel, 0, size))]
    tasks = [
        (fold, ell, n, kernel, start, stop)
        for start, stop in partition_bounds(size, workers)
    ]
    # Imported here, so a process that never starts a pool never loads
    # concurrent.futures or multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks))


def _count_keys(kernel, ell, n, jobs, budget) -> Counter:
    return sum(_map_reduce(_tally, ell, n, kernel, jobs, budget), Counter())


def _find_failure(check, ell, n, jobs, budget) -> dict | None:
    parts = _map_reduce(_first_failure, ell, n, check, jobs, budget)
    return next((found for found in parts if found is not None), None)


def distribution(
    ell: int,
    n: int,
    k: int,
    kind: str,
    *,
    jobs: int = 1,
    budget: int | None = None,
) -> CountDistribution:
    """Exact distribution of one succession statistic over the whole group."""
    if kind not in _SUCCESSION_KERNELS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    if kind == CIRCULAR and k < 0:
        raise ValueError(f"circular statistic needs k >= 0, got {k}")
    if kind != CIRCULAR and k < 1:
        raise ValueError(f"{kind} statistic needs k >= 1, got {k}")
    if k > n:  # no k-successions at all
        counts = (_check_budget(ell, n, budget),) + (0,) * n
    else:
        counts = distribution_matrix(ell, n, kind, jobs=jobs, budget=budget)[k]
    return CountDistribution(ell, n, k, kind, counts)


def distribution_matrix(
    ell: int, n: int, kind: str, *, jobs: int = 1, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Distributions for every ``k`` at once: ``matrix[k][m]`` exact counts.

    Row ``k = 0`` of a linear/skew matrix is all zeros (undefined there).
    """
    if kind not in _SUCCESSION_KERNELS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    keys = _count_keys(_SUCCESSION_KERNELS[kind], ell, n, jobs, budget)
    width = n + 1
    matrix = [[0] * width for _ in range(width)]
    for key, count in keys.items():
        per_k = [0] * width
        for code in key:
            per_k[code // width] += 1
        for k, m in enumerate(per_k):
            matrix[k][m] += count
    if kind != CIRCULAR:
        matrix[0] = [0] * width
    return [tuple(row) for row in matrix]


def bounded_matrix(
    ell: int, n: int, *, jobs: int = 1, budget: int | None = None
) -> list[tuple[int, ...]]:
    """``matrix[k][v]``: elements whose largest k-circular succession is ``v``
    (``v = 0`` meaning none)."""
    keys = _count_keys(_circular_kernel, ell, n, jobs, budget)
    width = n + 1
    matrix = [[0] * width for _ in range(width)]
    for key, count in keys.items():
        largest = [0] * width
        for code in key:
            k, v = divmod(code, width)
            largest[k] = max(largest[k], v)
        for k, v in enumerate(largest):
            matrix[k][v] += count
    return [tuple(row) for row in matrix]


def family_counts(
    ell: int, n: int, family: str, *, jobs: int = 1, budget: int | None = None
) -> tuple[int, ...]:
    """Counts of m-increasing-fixed or m-isolated-fixed elements per ``m``."""
    if family not in _FAMILY_KERNELS:
        raise ValueError(f"unknown family {family!r}")
    keys = _count_keys(_FAMILY_KERNELS[family], ell, n, jobs, budget)
    counts = [0] * (n + 1)
    for (low, high), count in keys.items():
        for m in range(low, high + 1):
            counts[m] += count
    return tuple(counts)


# -- verification suites -----------------------------------------------------------


def _suite_t2(ell, n, jobs, budget):
    """Elements with k-successions bounded by m are counted by g[n][m], all k <= m."""
    g = build_table(ell, n, FLAVOR_G)
    matrix = bounded_matrix(ell, n, jobs=jobs, budget=budget)
    at_most = [list(accumulate(row)) for row in matrix]
    return first_mismatch(
        ("k", "m", "count", "expected"),
        ((k, m) for k in range(n + 1) for m in range(k, n + 1)),
        lambda k, m: (at_most[k][m], g.entry(n, m)),
    )


def _suite_three_term(kind):
    """``kind`` counts obey the circular three-term relation
    lhs[n+1][k+1][m] = c[n+1][k][m] + c[n][k][m] - c[n][k][m-1]."""

    def run(ell, n, jobs, budget):
        lhs = distribution_matrix(ell, n + 1, kind, jobs=jobs, budget=budget)
        cur = (
            lhs
            if kind == CIRCULAR
            else distribution_matrix(ell, n + 1, CIRCULAR, jobs=jobs, budget=budget)
        )
        prev = distribution_matrix(ell, n, CIRCULAR, jobs=jobs, budget=budget)
        prev = [row + (0,) for row in prev]  # pad m = n+1 with zero
        return first_mismatch(
            ("k", "m", "lhs", "rhs"),
            product(range(n + 1), range(n + 2)),
            lambda k, m: (
                lhs[k + 1][m],
                cur[k][m] + prev[k][m] - (prev[k][m - 1] if m else 0),
            ),
        )

    return run


def _suite_l45(ell, n, jobs, budget):
    """c[k][m] = C(n-k, m) * g[n-m][k] for k <= n - m."""
    g = build_table(ell, n, FLAVOR_G)
    matrix = distribution_matrix(ell, n, CIRCULAR, jobs=jobs, budget=budget)
    return first_mismatch(
        ("k", "m", "count", "expected"),
        ((k, m) for m in range(n + 1) for k in range(n - m + 1)),
        lambda k, m: (matrix[k][m], math.comb(n - k, m) * g.entry(n - m, k)),
    )


def _suite_family(family):
    """m-members of ``family`` are counted by d[n][m]."""

    def run(ell, n, jobs, budget):
        d = build_table(ell, n, FLAVOR_D)
        counts = family_counts(ell, n, family, jobs=jobs, budget=budget)
        return first_mismatch(
            ("m", "count", "expected"),
            ((m,) for m in range(n + 1)),
            lambda m: (counts[m], d.entry(n, m)),
        )

    return run


def _e22_check(ell, sigma, colors) -> dict | None:
    p = ColoredPermutation(ell, sigma, colors)
    expected = linear_pairs(p)
    if p.sigma and p.colors[p.sigma[0] - 1] == 0:
        expected |= {(p.sigma[0], p.sigma[0])}
    got = skew_linear_pairs(p)
    if got != expected:  # report the smallest k where the sets differ
        return {"perm": str(p), "k": min(k for k, _ in got ^ expected)}
    return None


def _suite_e22(ell, n, jobs, budget):
    """Skew linear pairs equal linear pairs, plus ``(v, v)`` for an uncolored
    first value ``v``."""
    return _find_failure(partial(_e22_check, ell), ell, n, jobs, budget)


def _e43_check(ell, sigma, colors) -> dict | None:
    if not sigma:
        return None
    p = ColoredPermutation(ell, sigma, colors)
    expected = {(k + 1, v) for k, v in circular_pairs(rotate_right(p))}
    last = p.sigma[-1]
    if p.colors[last - 1] == 0:
        expected.discard((last, last))
    got = {(k, v) for k, v in circular_pairs(p) if k}
    if got != expected:  # report the smallest unshifted k where the sets differ
        return {"perm": str(p), "k": min(k for k, _ in got ^ expected) - 1}
    return None


def _suite_e43(ell, n, jobs, budget):
    """Raising k by one matches rotating the word right, up to the value k+1
    of an uncolored last letter."""
    return _find_failure(partial(_e43_check, ell), ell, n, jobs, budget)


# name -> (check, first n, how far below max_n the last n stops).  The
# three-term suites compare sizes n and n+1, so they run for 1 <= n <= max_n - 1.
_ENUM_SUITES = {
    "t2": (_suite_t2, 0, 0),
    "t3": (_suite_three_term(CIRCULAR), 1, 1),
    "c7": (_suite_three_term(LINEAR), 1, 1),
    "l45": (_suite_l45, 0, 0),
    "t9": (_suite_family("increasing"), 0, 0),
    "t11": (_suite_family("isolated"), 0, 0),
    "e22": (_suite_e22, 0, 0),
    "e43": (_suite_e43, 0, 0),
}


def verify_suite(
    suite: str,
    max_ell: int,
    max_n: int,
    *,
    jobs: int = 1,
    budget: int | None = None,
) -> list[CheckResult]:
    """Run one named check suite (or ``all``) over ``ell <= max_ell``,
    enumerating groups of size up to ``max_n`` letters.

    Returns one result per (check, ell, n) instance, in a fixed order that
    does not depend on ``jobs``.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    results: list[CheckResult] = []
    for name in names:
        if name == "rec":
            if max_n >= 2:  # the identities reach back two rows
                for ell in range(1, max_ell + 1):
                    results.extend(check_recurrences(ell, max_n))
            continue
        run, first, shrink = _ENUM_SUITES[name]
        for ell in range(1, max_ell + 1):
            for n in range(first, max_n + 1 - shrink):
                params = {"max_ell": max_ell, "max_n": max_n}
                results.append(check_result(name, ell, n, params, run(ell, n, jobs, budget)))
    return results
