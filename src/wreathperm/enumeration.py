"""Exhaustive iteration over the colored groups and brute-force verification.

Elements are enumerated in a fixed order: underlying permutations
lexicographically, and for each permutation the color-by-value vector as a
base-``ell`` counter (leftmost digit most significant).  The stream can be
cut into contiguous index ranges, so counting reductions parallelize with an
exact integer merge and identical results at any worker count.

A budget guard refuses group sizes above ``DEFAULT_BUDGET`` elements unless a
larger budget is passed explicitly, and ``check_table_size`` refuses a
difference table above ``TABLE_BIT_LIMIT`` bits.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from functools import partial
from itertools import accumulate, count, islice, product
from typing import Iterator

from .core import ColoredPermutation, sigma_cycles
from .reporting import CheckResult, check_result, first_mismatch
from .statistics import CIRCULAR, LINEAR, SKEW_LINEAR
from .tables import FLAVOR_D, FLAVOR_G, build_table, check_recurrences

DEFAULT_BUDGET = 100_000_000
TABLE_BIT_LIMIT = 2**33

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


def _refuse_past(what: str, ell: int, name: str, n: int, fits_at, limit: str) -> None:
    """Raise ``BudgetError`` unless ``fits_at(n)``, naming the largest ``name``
    that fits; ``fits_at`` holds up to some size and fails from there on."""
    fits = -1  # grows no further than n, so a huge n is never sized
    while fits < n and fits_at(fits + 1):
        fits += 1
    if fits < n:
        largest = f"the largest {name} that fits with ell={ell} is {fits}"
        hint = largest if fits >= 0 else f"no {name} fits"
        raise BudgetError(f"the {what} with ell={ell}, {name}={n} exceeds the {limit}; {hint}")


def _check_budget(ell: int, n: int, budget: int | None) -> int:
    if ell < 1 or n < 0:  # the sizes given, not the first one the loop would size
        raise ValueError(f"need ell >= 1 and n >= 0, got ell={ell}, n={n}")
    limit = DEFAULT_BUDGET if budget is None else budget
    text = f"budget of {limit} elements"
    _refuse_past("group", ell, "n", n, lambda m: group_size(ell, m) <= limit, text)
    return group_size(ell, n)


def check_table_size(ell: int, max_n: int) -> None:
    """Refuse, before anything is built, a difference table whose entries
    times the bit length of ``ell^max_n * max_n!`` (a bound on every entry of
    both flavors) exceed ``TABLE_BIT_LIMIT``."""

    def fits_at(m):
        return (m + 1) * (m + 2) // 2 * group_size(ell, m).bit_length() <= TABLE_BIT_LIMIT

    limit = f"limit of {TABLE_BIT_LIMIT} bits (entries x bit length of ell^max_n * max_n!)"
    _refuse_past("table", ell, "max_n", max_n, fits_at, limit)


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


def enumerate_group(
    ell: int, n: int, *, budget: int | None = None
) -> Iterator[ColoredPermutation]:
    """Every element exactly once, in the fixed enumeration order."""
    size = _check_budget(ell, n, budget)
    for sigma, colorings in _iter_blocks(ell, n, 0, size):
        yield from map(partial(ColoredPermutation, ell, sigma), colorings)


def enumerate_range(
    ell: int, n: int, start: int, stop: int, *, budget: int | None = None
) -> Iterator[ColoredPermutation]:
    """The sub-stream with enumeration indices in ``[start, stop)``."""
    size = _check_budget(ell, n, budget)
    if not 0 <= start <= stop <= size:
        raise IndexError(f"range [{start}, {stop}) out of bounds for size {size}")
    for sigma, colorings in _iter_blocks(ell, n, start, stop):
        yield from map(partial(ColoredPermutation, ell, sigma), colorings)


def partition_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, balanced ranges."""
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    cuts = [total * j // parts for j in range(parts + 1)]
    return [(cuts[j], cuts[j + 1]) for j in range(parts)]


# -- counting reductions --------------------------------------------------------


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
    """The counterexample of the lowest-index element that
    ``check(sigma)(colors)`` rejects."""
    indices = count(start)
    for sigma, colorings in _iter_blocks(ell, n, start, stop):
        for found, index in zip(map(check(sigma), colorings), indices):
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
    """Merge the keys of every partition; they must count the whole group."""
    keys = sum(_map_reduce(_tally, ell, n, kernel, jobs, budget), Counter())
    if keys.total() != group_size(ell, n):
        raise ValueError("distribution does not cover the whole group")
    return keys


def distribution(
    ell: int,
    n: int,
    k: int,
    kind: str,
    *,
    jobs: int = 1,
    budget: int | None = None,
) -> tuple[int, ...]:
    """Exact distribution of one succession statistic over the whole group:
    ``counts[m]`` elements carry exactly ``m`` k-successions of ``kind``."""
    if kind not in _SUCCESSION_KERNELS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    if kind == CIRCULAR and k < 0:
        raise ValueError(f"circular statistic needs k >= 0, got {k}")
    if kind != CIRCULAR and k < 1:
        raise ValueError(f"{kind} statistic needs k >= 1, got {k}")
    if k > n:  # no k-successions at all
        return (_check_budget(ell, n, budget),) + (0,) * n
    return distribution_matrix(ell, n, kind, jobs=jobs, budget=budget)[k]


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
    g = build_table(ell, n, FLAVOR_G).rows
    matrix = bounded_matrix(ell, n, jobs=jobs, budget=budget)
    at_most = [list(accumulate(row)) for row in matrix]
    return first_mismatch(
        ("k", "m", "count", "expected"),
        ((k, m) for k in range(n + 1) for m in range(k, n + 1)),
        lambda k, m: (at_most[k][m], g[n][m]),
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
    g = build_table(ell, n, FLAVOR_G).rows
    matrix = distribution_matrix(ell, n, CIRCULAR, jobs=jobs, budget=budget)
    return first_mismatch(
        ("k", "m", "count", "expected"),
        ((k, m) for m in range(n + 1) for k in range(n - m + 1)),
        lambda k, m: (matrix[k][m], math.comb(n - k, m) * g[n - m][k]),
    )


def _suite_family(family):
    """m-members of ``family`` are counted by d[n][m]."""

    def run(ell, n, jobs, budget):
        d = build_table(ell, n, FLAVOR_D).rows
        counts = family_counts(ell, n, family, jobs=jobs, budget=budget)
        return first_mismatch(
            ("m", "count", "expected"),
            ((m,) for m in range(n + 1)),
            lambda m: (counts[m], d[n][m]),
        )

    return run


def _equal_colored(candidates):
    """The pairs of the ``(a, b, pair)`` candidates whose value indices ``a``
    and ``b`` carry one color; the colors end with an uncolored slot at ``-1``."""
    return lambda colors: [pair for a, b, pair in candidates if colors[a] == colors[b]]


def _skew_side(sigma):
    """Linear pairs of the word with an uncolored ``0`` in front."""
    word = (0,) + sigma
    return _equal_colored([(a - 1, b - 1, (b - a, b)) for a, b in zip(word, word[1:]) if b > a])


def _linear_side(sigma):
    """``(v, v)`` for an uncolored first value ``v``, then the linear pairs."""
    first = [(-1, v - 1, (v, v)) for v in sigma[:1]]
    rises = [(a - 1, b - 1, (b - a, b)) for a, b in zip(sigma, sigma[1:]) if b > a]
    return _equal_colored(first + rises)


def _circular_side(sigma):
    """Circular pairs with ``k >= 1``."""
    return _equal_colored([(-1, v - 1, (v - i, v)) for i, v in enumerate(sigma, 1) if v > i])


def _rotated_side(sigma):
    """Circular pairs of the word rotated right, ``k`` raised by one, less
    ``(L, L)`` for the last letter ``L``, which the rotation puts in front."""
    rotated = sigma[-1:] + sigma[:-1]
    shifted = [(-1, v - 1, (v - i + 1, v)) for i, v in enumerate(rotated, 1) if v >= i]
    return _equal_colored([c for c in shifted if c[2] != rotated[:1] * 2])


def _sides_check(ell, sigma, got, expected, shift):
    """Compare two sides of an identity on each coloring of ``sigma``.  Each
    side is built per block by its own definition (``statistics.py`` is the
    spec), never from the other's candidates.  A failure reports the smallest
    ``k`` (less ``shift``) where their pair sets differ."""

    def found(colors):
        padded = colors + (0,)
        a, b = got(padded), expected(padded)
        diff = a != b and set(a) ^ set(b)  # sides list their pairs in one order
        if not diff:
            return None
        k = min(k for k, _ in diff) - shift
        return {"perm": str(ColoredPermutation(ell, sigma, colors)), "k": k}

    return found


def _e22_check(ell, sigma):
    """Skew linear pairs equal linear pairs, plus ``(v, v)`` for an uncolored
    first value ``v``."""
    return _sides_check(ell, sigma, _skew_side(sigma), _linear_side(sigma), 0)


def _e43_check(ell, sigma):
    """Raising k by one matches rotating the word right, up to the value k+1
    of an uncolored last letter; a failure reports the unshifted k."""
    return _sides_check(ell, sigma, _circular_side(sigma), _rotated_side(sigma), 1)


def _suite_every_element(check):
    """``check(ell, sigma)(colors)`` finds no counterexample in the group."""

    def run(ell, n, jobs, budget):
        parts = _map_reduce(_first_failure, ell, n, partial(check, ell), jobs, budget)
        return next(filter(None, parts), None)

    return run


# name -> (check, first n, how far below max_n the last n stops).  The
# three-term suites compare sizes n and n+1, so they run for 1 <= n <= max_n - 1.
_ENUM_SUITES = {
    "t2": (_suite_t2, 0, 0),
    "t3": (_suite_three_term(CIRCULAR), 1, 1),
    "c7": (_suite_three_term(LINEAR), 1, 1),
    "l45": (_suite_l45, 0, 0),
    "t9": (_suite_family("increasing"), 0, 0),
    "t11": (_suite_family("isolated"), 0, 0),
    "e22": (_suite_every_element(_e22_check), 0, 0),
    "e43": (_suite_every_element(_e43_check), 0, 0),
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
    enumerated = [_ENUM_SUITES[name] for name in names if name != "rec"]
    # group_size grows with ell and n, so sizing the largest group first
    # refuses an over-budget range before anything is enumerated.
    if max_ell >= 1 and any(first <= max_n - shrink for _, first, shrink in enumerated):
        _check_budget(max_ell, max_n, budget)
    results: list[CheckResult] = []
    for name in names:
        if name == "rec":
            if max_n >= 2 and max_ell >= 1:  # the identities reach back two rows
                check_table_size(max_ell, max_n)
                for ell in range(1, max_ell + 1):
                    results.extend(check_recurrences(ell, max_n))
            continue
        run, first, shrink = _ENUM_SUITES[name]
        for ell in range(1, max_ell + 1):
            for n in range(first, max_n + 1 - shrink):
                params = {"max_ell": max_ell, "max_n": max_n}
                results.append(check_result(name, ell, n, params, run(ell, n, jobs, budget)))
    return results
