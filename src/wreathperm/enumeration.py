"""Exhaustive iteration over the colored groups and brute-force verification.

Elements are enumerated in a fixed order: underlying permutations in the
lexicographic order ``itertools.permutations`` gives sorted input, and for
each the color-by-value vector as a base-``ell`` counter (leftmost digit most
significant).  The stream can be cut into contiguous index ranges, so counting
reductions parallelize with an exact integer merge and identical results at
any worker count; a range starting at permutation rank ``r`` skips ``r``
permutations in C (``BudgetError`` past ``sys.maxsize``).  ``element_at``
unranks an index on its own.

The tallies are bit-sliced: bit ``o`` of an int stands for the coloring at
offset ``o`` of every block of ``ell^n`` elements sharing one underlying
permutation, and each succession test (do two values share a color?) is one
AND with a precomputed int.  Every element is still tested, as one bit, so
the cost stays linear in the group size, divided by the machine word.

Each count is a tally of keys, an element's key being the codes of the ``(test, code)``
candidates it passes, then their expansion, which reads the keys from
``source(kernel, ell, n)``: ``_map_reduce`` for a public count.  Within one ``verify_suite``
call every suite reads one cache of it, so each ``(kernel, ell, n)`` is tallied once per call;
the cache is dropped when the call returns.  The element-wise identities ``e22`` and ``e43``
compare two candidate lists fixed by the underlying permutation, so one tally at ell = 1
decides each permutation for every ell; only one whose lists differ has its colorings read.

A budget guard refuses a group, or a scan of those colorings, of more than ``budget``
elements (``DEFAULT_BUDGET`` by default); ``check_table_size`` refuses a difference
table above ``TABLE_BIT_LIMIT`` bits or Python's int-to-str digit limit.  ``verify_suite``
sizes its range cheapest first: at most ``ROW_LIMIT`` (check, ell, n) rows, then in each unit
its rows' costs charge (group elements, then table bits) the largest item, then the items' sum.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from functools import cache, partial
from itertools import accumulate, combinations, islice, permutations, product
from operator import add, sub
from typing import Iterator

from .core import ColoredPermutation, _group, _ints, canonical_cycles
from .reporting import CheckResult, first_mismatch
from .statistics import CIRCULAR, LINEAR, SKEW_LINEAR
from .tables import FLAVOR_D, FLAVOR_G, build_table, check_recurrences

DEFAULT_BUDGET = 100_000_000
TABLE_BIT_LIMIT = 2**33
ROW_LIMIT = 10_000
_TABLE_LIMIT = f"limit of {TABLE_BIT_LIMIT} bits (entries x bit length of ell^max_n * max_n!)"

# Below this many blocks (n!) a pool costs more than it saves: on a 2-vCPU
# host two workers lost 35-55 ms at n = 6, broke even at n = 7 and won from
# n = 8.  Counts merge exactly either way, so results do not depend on it.
_PARALLEL_THRESHOLD = 40_320


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the element budget or the ranks the stream can skip."""


def group_size(ell: int, n: int) -> int:
    """Number of elements: ``ell^n * n!``."""
    _group(ell, n=n)
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


def _check_budget(ell: int, n: int, budget: int = DEFAULT_BUDGET) -> int:
    _ints(ell=ell, n=n, budget=budget)  # group_size, below, refuses a bad ell or n
    text = f"budget of {budget} elements"
    _refuse_past("group", ell, "n", n, lambda m: group_size(ell, m) <= budget, text)
    return group_size(ell, n)


def _table_bits(ell: int, max_n: int) -> int:
    """Entries times the bit length of ``ell^max_n * max_n!``, a bound on
    every entry of both flavors."""
    return (max_n + 1) * (max_n + 2) // 2 * group_size(ell, max_n).bit_length()


def check_table_size(ell: int, max_n: int) -> None:
    """Refuse, before anything is built, a difference table whose
    ``_table_bits`` exceed ``TABLE_BIT_LIMIT``, or whose entry bound
    ``ell^max_n * max_n!`` has more digits than Python converts an int to."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    over = 10**digits if digits else math.inf
    fits_at = lambda m: _table_bits(ell, m) <= TABLE_BIT_LIMIT and group_size(ell, m) < over
    printable = f" or of {digits} digits (Python's int-to-str limit)" if digits else ""
    _refuse_past("table", ell, "max_n", max_n, fits_at, _TABLE_LIMIT + printable)


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
    _ints(index=index)
    size = group_size(ell, n)
    if not 0 <= index < size:
        raise IndexError(f"index {index} out of range for group of size {size}")
    rank, offset = divmod(index, ell**n)
    colors = tuple(offset // ell**j % ell for j in reversed(range(n)))
    return ColoredPermutation(ell, tuple(_unrank_sigma(n, rank)), colors)


def _iter_blocks(
    ell: int, n: int, start: int, stop: int
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Yield ``(sigma, offset, take)`` for each run of the index range
    [start, stop) that shares one underlying permutation: ``take`` colorings
    from ``offset`` on.  The first and last run may be part of a block."""
    if stop <= start:
        return
    radix = ell**n
    first = start // radix
    if first > sys.maxsize:  # the most items islice can skip
        raise BudgetError(f"the range starts at permutation rank {first}, past {sys.maxsize}")
    # the range bounds the ranks: islice refuses a stop past sys.maxsize
    sigmas = islice(permutations(range(1, n + 1)), first, None)
    for rank, sigma in zip(range(first, -(-stop // radix)), sigmas):
        offset = max(start - rank * radix, 0)
        yield sigma, offset, min(stop - rank * radix, radix) - offset


def _elements(ell: int, n: int, start: int, stop: int) -> Iterator[ColoredPermutation]:
    for sigma, offset, take in _iter_blocks(ell, n, start, stop):
        colorings = islice(product(range(ell), repeat=n), offset, offset + take)
        yield from (ColoredPermutation(ell, sigma, colors) for colors in colorings)


def enumerate_group(
    ell: int, n: int, *, budget: int = DEFAULT_BUDGET
) -> Iterator[ColoredPermutation]:
    """Every element exactly once, in the fixed enumeration order."""
    yield from _elements(ell, n, 0, _check_budget(ell, n, budget))


def enumerate_range(
    ell: int, n: int, start: int, stop: int, *, budget: int = DEFAULT_BUDGET
) -> Iterator[ColoredPermutation]:
    """The sub-stream with enumeration indices in ``[start, stop)``."""
    size = _check_budget(ell, n, budget)
    _ints(start=start, stop=stop)
    if not 0 <= start <= stop <= size:
        raise IndexError(f"range [{start}, {stop}) out of bounds for size {size}")
    yield from _elements(ell, n, start, stop)


def partition_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous, balanced ranges."""
    _ints(total=total, parts=parts)
    if parts < 1:
        raise ValueError(f"need at least one part, got {parts}")
    cuts = [total * j // parts for j in range(parts + 1)]
    return [(cuts[j], cuts[j + 1]) for j in range(parts)]


# -- counting reductions --------------------------------------------------------


# A kernel reads one underlying permutation ``sigma`` once and lists its candidates
# ``(test, code)``: ``test`` is a pair of values ``(a, b)``, ``a < b``, asking whether ``a``
# and ``b`` share a color (``(0, v)``: is ``v`` uncolored).  An element's key is the tuple
# of the codes whose tests it passes, in list order.  A partition is tallied into a Counter
# of keys, and each public function expands the merged keys into its histogram.  A
# succession code is ``k * (n + 1) + v`` for a k-succession of value ``v``, so one key
# serves every k; ``_family_range`` reads a family's.  ``statistics.py`` is the readable
# spec of each.


def _circular(word):
    """``((0, v), code)`` for each value ``v`` at a position ``i <= v``: a
    ``(v - i)``-circular succession when ``v`` is uncolored."""
    w = len(word) + 1
    return [((0, v), (v - i) * w + v) for i, v in enumerate(word, 1) if v >= i]


def _rises(word, w):
    """``((a, b), code)`` for each adjacent ``a, b`` with ``b > a``: a
    ``(b - a)``-linear succession of value ``b`` when ``a`` and ``b`` share a
    color; ``w`` is the code's radix, ``n + 1`` also for a longer word."""
    return [((a, b), (b - a) * w + b) for a, b in zip(word, word[1:]) if b > a]


def _linear(sigma):
    return _rises(sigma, len(sigma) + 1)


def _skew_rises(sigma):
    """Linear successions of the word with an uncolored ``0`` in front."""
    return _rises((0,) + sigma, len(sigma) + 1)


def _family_kernel(sigma, chain):
    """Code ``-j`` for the ``j``-th value of ``chain``, a sequence fixed by ``sigma``, then
    code ``v`` for each fixed point ``v``, largest first: each when the value is uncolored."""
    fixed = [v for v in range(len(sigma), 0, -1) if sigma[v - 1] == v]
    return [((0, v), -j) for j, v in enumerate(chain, 1)] + [((0, v), v) for v in fixed]


def _family_range(codes):
    """The ``m`` making an element a member of a family form ``[max fixed point, h]``,
    ``h`` the number of leading uncolored chain values: the run ``-1, -2, ...`` of ``codes``."""
    h = next((j for j, code in enumerate(codes) if code != -j - 1), len(codes))
    return max((0, *codes)), h


def _increasing_kernel(sigma):
    """``h`` is the length of the uncolored increasing prefix."""
    rise = next((i for i in range(1, len(sigma)) if sigma[i] < sigma[i - 1]), len(sigma))
    return _family_kernel(sigma, sigma[:rise])


def _isolated_kernel(sigma):
    """``h`` is the number of leading uncolored values, capped below the
    smallest second-smallest value of any cycle."""
    seconds = [sorted(c)[1] for c in canonical_cycles(sigma) if len(c) > 1]
    return _family_kernel(sigma, range(1, min(seconds, default=len(sigma) + 1)))


_SUCCESSION_KERNELS = {
    CIRCULAR: _circular,
    LINEAR: _linear,
    SKEW_LINEAR: _skew_rises,
}
_FAMILY_KERNELS = {"increasing": _increasing_kernel, "isolated": _isolated_kernel}


def _repeat(x, step, times):
    """``times`` copies of ``x``, ``step`` bits apart, ORed by doubling."""
    out = copies = 0
    for digit in bin(times)[2:]:
        out, copies = out | out << copies * step, 2 * copies
        if digit == "1":
            out, copies = out << step | x, copies + 1
    return out


def _same_color_bits(ell, n):
    """``bits[a, b]``, ``0 <= a < b <= n``: bit ``o`` is set when the coloring
    at offset ``o`` of a block gives ``a`` and ``b`` one color.  The color of
    ``v`` is the base-``ell`` digit of weight ``w[v]``, and value 0 is
    uncolored.  Each int is built in three repeats: ``b`` of color 0 and the
    other values after ``a`` of any color; then ``a`` and ``b`` of one color,
    each color in turn; then the values before ``a`` of any color.  The table takes at most
    ``n (n + 1) / 2 * ell^n / 8`` bytes, under 20 MB within the default budget."""
    w = [ell ** (n - v) for v in range(n + 1)]
    bits = {}
    for a, b in combinations(range(n + 1), 2):
        same = _repeat((1 << w[b]) - 1, ell * w[b], ell ** (b - a - 1))
        same = _repeat(same, w[a] + w[b], ell if a else 1)
        bits[a, b] = _repeat(same, ell * w[a], ell ** (a - 1) if a else 1)
    return bits


def _tally(kernel, ell, n, start, stop) -> Counter:
    """Count the elements of one index range by their keys, the codes of the candidates
    ``kernel`` lists whose tests they pass: each run's bits are split by each candidate in
    turn into non-empty ``(codes, colorings)`` cells, those passing its test gaining its code."""
    bits = _same_color_bits(ell, n)
    counts = Counter()
    for sigma, offset, take in _iter_blocks(ell, n, start, stop):
        cells = [((), ((1 << take) - 1) << offset)]
        for test, code in kernel(sigma):
            same = bits[test]
            split = []
            for codes, colorings in cells:
                inside = colorings & same
                if inside:
                    split.append((codes + (code,), inside))
                if inside != colorings:
                    split.append((codes, colorings ^ inside))
            cells = split
        for codes, cell in cells:
            counts[codes] += cell.bit_count()
    return counts


def _pool_size(jobs: int, cpus: int) -> int:
    """Workers for one map-reduce: no more than requested or than CPUs, and at least 1."""
    return max(1, min(jobs, cpus))


def _run_task(args):
    """Tally ``(kernel, ell, n, start, stop)``: one contiguous index range."""
    return _tally(*args)


def _map_reduce(kernel, ell: int, n: int, jobs: int, budget: int = DEFAULT_BUDGET):
    """Partition the whole group, tally ``kernel`` over each part (in a process
    pool when it pays) and merge the parts into keys that count every element."""
    size = _check_budget(ell, n, budget)
    _ints(jobs=jobs)
    workers = _pool_size(jobs, os.cpu_count() or 1)
    if workers == 1 or math.factorial(n) < _PARALLEL_THRESHOLD:
        parts = [_run_task((kernel, ell, n, 0, size))]
    else:
        tasks = [(kernel, ell, n, *bounds) for bounds in partition_bounds(size, workers)]
        # Imported here, so a process that never starts a pool never loads
        # concurrent.futures or multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_task, tasks))
    keys = sum(parts, Counter())
    if keys.total() != size:
        raise ValueError("distribution does not cover the whole group")
    return keys


def _succession_matrix(ell, n, kind, source, combine=lambda m, _: m + 1):
    """``matrix[k][x]`` counts the elements whose k-succession values of
    ``kind`` combine to ``x``: ``x`` starts at 0 and becomes ``combine(x, v)``
    for each value ``v``, by default their number."""
    keys = source(_SUCCESSION_KERNELS[kind], ell, n)
    width = n + 1
    matrix = [[0] * width for _ in range(width)]
    for key, count in keys.items():
        per_k = [0] * width
        for code in key:
            k, v = divmod(code, width)
            per_k[k] = combine(per_k[k], v)
        for k, x in enumerate(per_k):
            matrix[k][x] += count
    matrix = [tuple(row) for row in matrix]
    return matrix if kind == CIRCULAR else [(0,) * width] + matrix[1:]


def _family_counts(ell, n, family, source):
    keys = source(_FAMILY_KERNELS[family], ell, n)
    counts = [0] * (n + 1)
    for codes, count in keys.items():
        low, high = _family_range(codes)
        for m in range(low, high + 1):
            counts[m] += count
    return tuple(counts)


def distribution(
    ell: int,
    n: int,
    k: int,
    kind: str,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Exact distribution of one succession statistic over the whole group:
    ``counts[m]`` elements carry exactly ``m`` k-successions of ``kind``."""
    if kind not in _SUCCESSION_KERNELS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    _ints(k=k, jobs=jobs)  # k > n returns before the count reads jobs
    low = 0 if kind == CIRCULAR else 1
    if k < low:
        raise ValueError(f"{kind} statistic needs k >= {low}, got {k}")
    if k > n:  # no k-successions at all
        return (_check_budget(ell, n, budget),) + (0,) * n
    return distribution_matrix(ell, n, kind, jobs=jobs, budget=budget)[k]


def distribution_matrix(
    ell: int, n: int, kind: str, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """Distributions for every ``k`` at once: ``matrix[k][m]`` exact counts.

    Row ``k = 0`` of a linear/skew matrix is all zeros (undefined there).
    """
    if kind not in _SUCCESSION_KERNELS:
        raise ValueError(f"unknown statistic kind {kind!r}")
    return _succession_matrix(ell, n, kind, partial(_map_reduce, jobs=jobs, budget=budget))


def bounded_matrix(
    ell: int, n: int, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """``matrix[k][v]``: elements whose largest k-circular succession is ``v``
    (``v = 0`` meaning none)."""
    source = partial(_map_reduce, jobs=jobs, budget=budget)
    return _succession_matrix(ell, n, CIRCULAR, source, max)


def family_counts(
    ell: int, n: int, family: str, *, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...]:
    """Counts of m-increasing-fixed or m-isolated-fixed elements per ``m``."""
    if family not in _FAMILY_KERNELS:
        raise ValueError(f"unknown family {family!r}")
    return _family_counts(ell, n, family, partial(_map_reduce, jobs=jobs, budget=budget))


# -- verification suites -----------------------------------------------------------


def _suite_t2(ell, n, source, budget):
    """Elements with k-successions bounded by m are counted by g[n][m], all k <= m."""
    g = build_table(ell, n, FLAVOR_G).rows
    at_most = [tuple(accumulate(row)) for row in _succession_matrix(ell, n, CIRCULAR, source, max)]
    return first_mismatch(
        ("k", "m", "count", "expected"),
        (((k,), k, at_most[k][k:], g[n][k:]) for k in range(n + 1)),
    )


def _suite_three_term(kind, ell, n, source, budget):
    """``kind`` counts obey the circular three-term relation
    lhs[n+1][k+1][m] = c[n+1][k][m] + c[n][k][m] - c[n][k][m-1]."""
    lhs = _succession_matrix(ell, n + 1, kind, source)
    cur = _succession_matrix(ell, n + 1, CIRCULAR, source)
    prev = [row + (0,) for row in _succession_matrix(ell, n, CIRCULAR, source)]  # m = n+1 is 0
    rows = (  # (0,) + prev[k][:-1] is prev[k][m - 1], 0 at m = 0
        ((k,), 0, lhs[k + 1], tuple(map(sub, map(add, cur[k], prev[k]), (0,) + prev[k][:-1])))
        for k in range(n + 1)
    )
    return first_mismatch(("k", "m", "lhs", "rhs"), rows)


def _suite_l45(ell, n, source, budget):
    """c[k][m] = C(n-k, m) * g[n-m][k] for k <= n - m."""
    g = build_table(ell, n, FLAVOR_G).rows
    matrix = _succession_matrix(ell, n, CIRCULAR, source)
    rows = (  # k = 0..n-m, as long as row n-m of g
        ((m,), 0, tuple(row[m] for row in matrix[: n - m + 1]),
         tuple(math.comb(n - k, m) * entry for k, entry in enumerate(g[n - m])))
        for m in range(n + 1)
    )
    return first_mismatch(("m", "k", "count", "expected"), rows)


def _suite_family(family, ell, n, source, budget):
    """m-members of ``family`` are counted by d[n][m]."""
    d = build_table(ell, n, FLAVOR_D).rows
    counts = _family_counts(ell, n, family, source)
    return first_mismatch(("m", "count", "expected"), [((), 0, counts, d[n])])


def _linear_side(sigma):
    """The first value ``v`` as a ``v``-succession when uncolored, then the
    linear successions."""
    w = len(sigma) + 1
    return [((0, v), v * w + v) for v in sigma[:1]] + _rises(sigma, w)


def _circular_side(sigma):
    """Each (k+1)-circular succession, ``k >= 0``, coded as a k-succession."""
    w = len(sigma) + 1
    return [(test, code - w) for test, code in _circular(sigma) if code >= w]


def _rotated_side(sigma):
    """Circular successions of the word rotated right, less the first
    candidate: ``(L, L)`` for the last letter ``L``, which the rotation puts
    in front."""
    return _circular(sigma[-1:] + sigma[:-1])[1:]


def _e22_sides(sigma):
    """Skew linear successions equal linear ones, plus the first value ``v``
    as a ``v``-succession when it is uncolored."""
    return _skew_rises(sigma), _linear_side(sigma)


def _e43_sides(sigma):
    """The (k+1)-circular successions match the k-circular successions of the
    word rotated right, up to the value k+1 of an uncolored last letter."""
    return _circular_side(sigma), _rotated_side(sigma)


def _sides_differ(sides, sigma):
    """One candidate of code ``sigma`` when its two candidate lists differ, else none: equal
    lists ask the same tests and keep the same codes.  It is tallied at ell = 1, where every
    test passes, and ``(0, 1)`` exists whenever lists can differ: n = 0 gives two empty ones."""
    got, expected = sides(sigma)
    return [] if got == expected else [((0, 1), sigma)]


def _suite_sides(differ, ell, n, source, budget):
    """No element keeps different codes on the two sides of an identity.
    ``differ`` (``partial(_sides_differ, sides)``) decides each ``sigma`` once
    per n, for every ell.  Only a ``sigma`` whose lists differ has its colorings
    read, in index order once they all fit ``budget``, each side asking its own
    tests; the first whose codes differ is reported at their smallest ``k``."""
    unequal = {sigma for key in source(differ, 1, n) for sigma in key}
    if (scan := len(unequal) * ell**n) > budget:
        what = f"scan of {scan} colorings with ell={ell}, n={n}"
        raise BudgetError(f"the {what} exceeds the budget of {budget} elements")
    for rank, sigma in enumerate(permutations(range(1, n + 1)) if unequal else ()):
        if sigma in unequal:
            sides = differ.args[0](sigma)  # the two lists again
            for offset, colors in enumerate(product(range(ell), repeat=n)):
                c = (0, *colors)  # colors by value; value 0 is uncolored
                a, b = ({code for (x, y), code in side if c[x] == c[y]} for side in sides)
                if a != b:
                    k = min(a ^ b) // (n + 1)
                    perm = str(ColoredPermutation(ell, sigma, colors))
                    return {"index": rank * ell**n + offset, "perm": perm, "k": k}
    return None


def _each_n(check):
    """A run whose row at each n is ``check``'s counterexample at ``(ell, n)``."""
    return lambda name, ell, ns, params, *rest: [
        CheckResult(name, ell, n, dict(params), check(ell, n, *rest)) for n in ns]


# name -> (run, first n, how far below max_n the last n stops, cost) over the n-range ns:
# run(name, ell, ns, params, source, budget) is one ell's rows, and cost(ell, ns) is their
# count and the (unit, ell, n) items they charge: unit 0 a tallied group's elements, unit 1
# a built triangle's table bits.
_OWN = lambda ell, ns: (ns.stop - ns.start, ((0, ell, n) for n in ns))
_AND_NEXT = lambda ell, ns: (ns.stop - ns.start, ((0, ell, m) for n in ns for m in (n, n + 1)))
_AT_ONE = lambda ell, ns: _OWN(1, ns)
_SUITES = {
    "t2": (_each_n(_suite_t2), 0, 0, _OWN),
    "t3": (_each_n(partial(_suite_three_term, CIRCULAR)), 1, 1, _AND_NEXT),
    "c7": (_each_n(partial(_suite_three_term, LINEAR)), 1, 1, _AND_NEXT),
    "l45": (_each_n(_suite_l45), 0, 0, _OWN),
    "t9": (_each_n(partial(_suite_family, "increasing")), 0, 0, _OWN),
    "t11": (_each_n(partial(_suite_family, "isolated")), 0, 0, _OWN),
    "e22": (_each_n(partial(_suite_sides, partial(_sides_differ, _e22_sides))), 0, 0, _AT_ONE),
    "e43": (_each_n(partial(_suite_sides, partial(_sides_differ, _e43_sides))), 0, 0, _AT_ONE),
    # nine identities reaching back two rows, one call at max_n; check_recurrences read per call
    "rec": (lambda name, ell, ns, *_: check_recurrences(ell, ns[-1]), 2, 0,
            lambda ell, ns: (9, [(1, ell, ns[-1])])),
}
SUITES = tuple(_SUITES)


def verify_suite(
    suite: str,
    max_ell: int,
    max_n: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckResult]:
    """Run one named check suite (or ``all``) over ``ell <= max_ell``,
    enumerating groups of size up to ``max_n`` letters.

    Returns one result per (check, ell, n) instance, in a fixed order that
    does not depend on ``jobs``.
    """
    _ints(max_ell=max_ell, max_n=max_n, jobs=jobs, budget=budget)
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    plan = {s: (run, ns, cost) for s in (SUITES if suite == "all" else (suite,))
            for run, first, shrink, cost in [_SUITES[s]]
            if (ns := range(first, max_n + 1 - shrink))}  # each suite with an n in range
    rows = max_ell * sum(cost(1, ns)[0] for _, ns, cost in plan.values())
    # The whole range is sized before the first check, cheapest first: its rows, which bound
    # max_ell; then in each unit its largest item, naming the largest n that fits, then the sum.
    if rows > ROW_LIMIT:
        what = f"(check, ell, n) rows of suite {suite} with ell <= {max_ell}, n <= {max_n}"
        raise BudgetError(f"the {rows} {what} exceed the limit of {ROW_LIMIT}")
    ells = range(1, max_ell + 1)
    items = {item for _, ns, cost in plan.values() for ell in ells for item in cost(ell, ns)[1]}
    units = (  # (refusal of one item, its size, limit, the limit's text, what the items are)
        (partial(_check_budget, budget=budget), group_size, budget,
         f"budget of {budget} elements", "groups with ell <= {0}, {1} <= n <= {2}"),
        (check_table_size, _table_bits, TABLE_BIT_LIMIT, _TABLE_LIMIT,
         "rec tables with ell <= {0}, max_n={2}"),
    )
    for unit, (refuse, size, limit, text, what) in enumerate(units):
        if charged := {(ell, n) for u, ell, n in items if u == unit}:
            top = max(charged)  # every row reads up to max_n letters, so the largest item
            refuse(*top)
            if sum(size(*item) for item in charged) > limit:
                what = what.format(top[0], min(n for _, n in charged), top[1])
                raise BudgetError(f"the {what} sum to more than the {text}")
    source = cache(partial(_map_reduce, jobs=jobs, budget=budget))  # one per (kernel, ell, n)
    params = {"max_ell": max_ell, "max_n": max_n}
    return [result for name, (run, ns, _) in plan.items() for ell in ells
            for result in run(name, ell, ns, params, source, budget)]
