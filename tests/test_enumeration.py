import math
import os
import random
import re
import sys
import time
from collections import Counter
from collections.abc import Iterator
from functools import partial
from itertools import groupby, permutations, product
from operator import attrgetter

import pytest

from wreathperm import (
    BudgetError,
    CheckResult,
    ColoredPermutation,
    DifferenceTable,
    bounded_matrix,
    build_table,
    circular_successions,
    distribution,
    distribution_matrix,
    element_at,
    enumerate_group,
    enumerate_range,
    family_counts,
    group_size,
    is_increasing_fixed,
    is_isolated_fixed,
    partition_bounds,
    report_json,
    rotate_left,
    rotate_right,
    verify_suite,
)
from wreathperm import circular_pairs, enumeration, linear_pairs, skew_linear_pairs
from wreathperm import tables

from conftest import at_k, group


class TestStream:
    def test_sizes(self):
        for ell in range(1, 5):
            for n in range(6):
                count = sum(1 for _ in enumerate_group(ell, n))
                assert count == group_size(ell, n) == ell**n * math.factorial(n)

    def test_distinct_and_deterministic(self):
        elems = list(enumerate_group(3, 3))
        assert len(set(elems)) == 162
        assert elems == list(enumerate_group(3, 3))

    def test_empty_group(self):
        elems = list(enumerate_group(1, 0))
        assert len(elems) == 1 and elems[0].n == 0

    def test_order_is_lexicographic(self):
        elems = list(enumerate_group(2, 2))
        keys = [(p.sigma, p.colors) for p in elems]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("ell,n", list(product(range(1, 4), range(6))))
    def test_element_at(self, ell, n):
        """The streamed ranges, whole, cut inside a block, empty at the end or
        inside the last block, match unranking each index on its own."""
        size = group_size(ell, n)
        unranked = [element_at(ell, n, i) for i in range(size)]
        assert list(enumerate_group(ell, n)) == unranked
        last = size - ell**n  # offset 0 of the last block
        ranges = _cut_ranges(ell, n, random.Random(ell * 10 + n), 8)
        for start, stop in [*ranges, (size, size), (last + ell**n // 3, size - ell**n // 4)]:
            streamed = list(enumerate_range(ell, n, start, stop))
            assert streamed == unranked[start:stop], (start, stop)
        with pytest.raises(IndexError):
            element_at(ell, n, size)
        past_end = rf"^range \[0, {size + 1}\) out of bounds for size {size}$"
        with pytest.raises(IndexError, match=past_end):
            list(enumerate_range(ell, n, 0, size + 1))

    def test_partitions_cover_stream(self):
        full = list(enumerate_group(2, 4))
        for parts in (1, 2, 3, 7):
            bounds = partition_bounds(len(full), parts)
            assert bounds[0][0] == 0 and bounds[-1][1] == len(full)
            merged = []
            for start, stop in bounds:
                merged.extend(enumerate_range(2, 4, start, stop))
            assert merged == full
        with pytest.raises(ValueError, match="^need at least one part, got 0$"):
            partition_bounds(5, 0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_group(2, 4, budget=10))
        assert sum(1 for _ in enumerate_group(2, 4, budget=1000)) == 384
        with pytest.raises(BudgetError):
            distribution(5, 12, 0, "circular")


    def test_start_past_skippable_ranks(self):
        """The stream skips to a range's first permutation, and refuses a rank
        past ``sys.maxsize`` with the module's own error."""
        start = sys.maxsize + 1
        with pytest.raises(BudgetError, match=f"rank {start}, past"):
            next(enumerate_range(1, 21, start, start + 1, budget=math.factorial(21)))

    def test_budget_error_names_largest_fitting_n(self):
        with pytest.raises(BudgetError, match="largest n that fits with ell=2 is 4"):
            distribution(2, 6, 0, "circular", budget=1000)
        with pytest.raises(BudgetError, match="largest n that fits with ell=1 is 6"):
            list(enumerate_group(1, 7, budget=5039))
        with pytest.raises(BudgetError, match="no n fits"):
            distribution(2, 1, 0, "circular", budget=0)

    @pytest.mark.parametrize("ell,n", [(0, 3), (-1, 0), (2, -1)])
    def test_bad_sizes_named_as_given(self, ell, n):
        calls = [
            lambda: distribution(ell, n, 0, "circular"),
            lambda: distribution_matrix(ell, n, "circular"),
            lambda: bounded_matrix(ell, n),
            lambda: family_counts(ell, n, "isolated"),
            lambda: list(enumerate_group(ell, n)),
            lambda: group_size(ell, n),
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == (
                f"number of colors must be >= 1, got {ell}" if ell < 1
                else f"size must be >= 0, got {n}"
            )

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: group_size(2.0, 3), "ell: 2.0"),
            (lambda: group_size(2, True), "n: True"),
            (lambda: distribution(True, 3, 1, "circular"), "ell: True"),
            (lambda: distribution(2.0, 3, 1, "circular"), "ell: 2.0"),
            (lambda: distribution(2, 3, 1.0, "circular"), "k: 1.0"),
            (lambda: distribution(2, 3, 1, "linear", jobs=2.0), "jobs: 2.0"),
            (lambda: distribution(2, 3, 5, "linear", jobs=True), "jobs: True"),  # k > n
            (lambda: distribution_matrix(2, 3, "linear", budget=1e9), "budget: 1000000000.0"),
            (lambda: bounded_matrix(2, 3.0), "n: 3.0"),
            (lambda: family_counts(2, 3, "isolated", jobs=True), "jobs: True"),
            (lambda: list(enumerate_group(True, 2)), "ell: True"),
            (lambda: list(enumerate_range(2, 2, 0, 1, budget=8.0)), "budget: 8.0"),
            (lambda: list(enumerate_range(2, 2, 0.0, 2)), "start: 0.0"),
            (lambda: list(enumerate_range(2, 2, 0, True)), "stop: True"),
            (lambda: element_at(2, 3, 1.0), "index: 1.0"),
            (lambda: element_at(2.0, 3, 1), "ell: 2.0"),
            (lambda: verify_suite("t2", 2.0, 3), "max_ell: 2.0"),
            (lambda: verify_suite("t3", 2, 1.0), "max_n: 1.0"),  # a range that checks nothing
            (lambda: verify_suite("e22", 2, 3, jobs=True), "jobs: True"),
            (lambda: verify_suite("rec", 2, 3, budget=10.0**9), "budget: 1000000000.0"),
        ],
    )
    def test_sizes_must_be_ints(self, call, message):
        """A float or bool size, count, index, ``jobs`` or ``budget`` is
        refused by name: a float is inexact past 2**53, and a bool is no size."""
        with pytest.raises(TypeError, match=f"^{re.escape(message)} is not an int$"):
            call()

    @pytest.mark.parametrize("n", [3000, 10**20])
    def test_budget_checked_before_sizing_huge_groups(self, n):
        """A group far over the budget is refused without computing its size
        or allocating a row per letter."""
        calls = [
            lambda: distribution(2, n, 1, "linear", budget=10),
            lambda: distribution_matrix(2, n, "circular", budget=10),
            lambda: bounded_matrix(2, n, budget=10),
            lambda: family_counts(2, n, "isolated", budget=10),
        ]
        for call in calls:
            with pytest.raises(BudgetError, match=f"n={n} exceeds .* ell=2 is 2"):
                call()

    @pytest.mark.parametrize("ell,largest", [(1, 1246), (2, 1204), (3, 1182)])
    def test_table_size_limit(self, ell, largest):
        """The largest table that fits is the last whose entries times the
        bit length of ell^max_n * max_n! stay within the limit."""

        def bits(m):
            return (m + 1) * (m + 2) // 2 * group_size(ell, m).bit_length()

        assert bits(largest) <= enumeration.TABLE_BIT_LIMIT < bits(largest + 1)
        enumeration.check_table_size(ell, largest)
        for max_n in (largest + 1, 5000, 10**20):
            match = f"max_n={max_n} exceeds .* ell={ell} is {largest}$"
            with pytest.raises(BudgetError, match=match):
                enumeration.check_table_size(ell, max_n)

    @pytest.mark.parametrize(
        "jobs,cpus,workers",
        [(1, 8, 1), (3, 2, 2), (8, 16, 8), (100_000, 2, 2), (0, 4, 1)],
    )
    def test_pool_size(self, jobs, cpus, workers):
        """Never more workers than requested or than CPUs, and at least 1."""
        assert enumeration._pool_size(jobs, cpus) == workers


def _spec_histograms(ell, n):
    """Every counting histogram, built by calling the spec in ``statistics``
    on each element."""
    width = n + 1
    matrices = {kind: [[0] * width for _ in range(width)]
                for kind in ("circular", "linear", "skewLinear")}
    bounded = [[0] * width for _ in range(width)]
    families = {"increasing": [0] * width, "isolated": [0] * width}
    for p in group(ell, n):
        for k in range(width):
            circ = circular_successions(p, k)
            matrices["circular"][k][len(circ)] += 1
            bounded[k][max(circ, default=0)] += 1
            if k:
                matrices["linear"][k][len(at_k(linear_pairs(p), k))] += 1
                matrices["skewLinear"][k][len(at_k(skew_linear_pairs(p), k))] += 1
        for m in range(width):
            families["increasing"][m] += is_increasing_fixed(p, m)
            families["isolated"][m] += is_isolated_fixed(p, m)
    return matrices, bounded, families


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_kernels_match_spec(ell, n):
    matrices, bounded, families = _spec_histograms(ell, n)
    for kind, matrix in matrices.items():
        assert distribution_matrix(ell, n, kind) == [tuple(row) for row in matrix]
    assert bounded_matrix(ell, n) == [tuple(row) for row in bounded]
    for family, counts in families.items():
        assert family_counts(ell, n, family) == tuple(counts)


_KERNELS = {**enumeration._SUCCESSION_KERNELS, **enumeration._FAMILY_KERNELS}
_PAIRS = {"circular": circular_pairs, "linear": linear_pairs, "skewLinear": skew_linear_pairs}
_FAMILIES = {"increasing": is_increasing_fixed, "isolated": is_isolated_fixed}


def _codes(side, colors):
    """The codes of the candidates ``(test, code)`` of ``side`` whose test
    passes, in order: ``colors`` is indexed by value, with value 0 uncolored."""
    return [code for (a, b), code in side if colors[a] == colors[b]]


def _decoded(name, key, n):
    """A kernel's key as ``statistics.py`` states it: the ``(k, value)``
    pairs, or whether the element is a member for each m."""
    if name in _PAIRS:
        decoded = [divmod(code, n + 1) for code in key]
        assert len(set(decoded)) == len(decoded), (name, key)
        return frozenset(decoded)
    low, high = enumeration._family_range(key)
    return tuple(low <= m <= high for m in range(n + 1))


def _spec(name, p):
    if name in _PAIRS:
        return _PAIRS[name](p)
    return tuple(_FAMILIES[name](p, m) for m in range(p.n + 1))


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_kernel_keys_match_spec_per_element(ell, n):
    """Every element's own key, decoded, is its pair set or its family interval."""
    for sigma, block in groupby(group(ell, n), attrgetter("sigma")):
        kernels = {name: kernel(sigma) for name, kernel in _KERNELS.items()}
        for p in block:
            for name, kernel in kernels.items():
                key = _codes(kernel, (0,) + p.colors)
                assert _decoded(name, key, n) == _spec(name, p), (name, str(p))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(6))
def test_same_color_bits_match_colorings(ell, n):
    """Bit ``o`` of each pair's int is set exactly when the coloring at
    offset ``o`` gives both values one color."""
    bits = enumeration._same_color_bits(ell, n)
    colorings = list(product((0,), *[range(ell)] * n))
    assert sorted(bits) == [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    for (a, b), same in bits.items():
        expected = sum(1 << o for o, colors in enumerate(colorings) if colors[a] == colors[b])
        assert same == expected, (a, b)


def _cut_ranges(ell, n, rng, cuts):
    """The whole group and random ranges, some starting inside a block."""
    size = group_size(ell, n)
    points = sorted(rng.randrange(size + 1) for _ in range(cuts))
    ranges = [(0, size), *zip(points[::2], points[1::2]), (size // 3, size // 3 + 1)]
    if ell > 1 and n > 0:
        assert any(start % ell**n for start, _ in ranges)
    return ranges


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_ranges_cut_inside_blocks(ell, n):
    """Tallying any index ranges, cut inside a block of one underlying
    permutation or not, counts every element once under its own key: the
    decoded keys are those ``statistics.py`` gives each element."""
    size = group_size(ell, n)
    elements = [element_at(ell, n, i) for i in range(size)]  # each unranked on its own
    for name, kernel in _KERNELS.items():
        spec = [_spec(name, p) for p in elements]
        for parts in (1, 3, 7, 11):
            merged = Counter()
            for start, stop in partition_bounds(size, parts):
                counts = enumeration._run_task((kernel, ell, n, start, stop))
                assert sum(counts.values()) == stop - start
                merged += counts
            assert merged == enumeration._tally(kernel, ell, n, 0, size), (name, parts)
        for start, stop in _cut_ranges(ell, n, random.Random(ell * 10 + n), 8):
            counts = enumeration._run_task((kernel, ell, n, start, stop))
            decoded = Counter()
            for key, count in counts.items():
                decoded[_decoded(name, key, n)] += count
            assert decoded == Counter(spec[start:stop]), (name, start, stop)


def _sides_reference(sides, ell, n):
    """The counterexample an element-by-element scan gives: the first element
    whose two sides ``sides(sigma)``, each asking its own tests, keep
    different codes, at their smallest k."""
    for index, p in enumerate(group(ell, n)):
        got, expected = (set(_codes(side, (0,) + p.colors)) for side in sides(p.sigma))
        if got != expected:
            return {"index": index, "perm": str(p), "k": min(got ^ expected) // (n + 1)}
    return None


def _moved_when(target):
    """Two sides that list the circular candidates, the second moving the
    last one's test to ``(0, 1)`` when there are ``target`` of them.  Unless
    that test was ``(0, 1)`` already, the lists then differ, and the codes
    differ on the colorings where exactly one of the two values is uncolored."""

    def sides(sigma):
        got = enumeration._circular(sigma)
        if len(got) != target:
            return got, got
        return got, got[:-1] + [((0, 1), got[-1][1])]

    return sides


@pytest.mark.parametrize("ell,n", list(product(range(1, 4), range(6))))
def test_first_failure_across_cut_blocks(ell, n):
    """Tallying the ell = 1 decision over any index range keys each
    permutation in it whose two lists differ by itself alone, and the others
    by no code; the suite then reports the first element that an
    element-by-element scan rejects, with the smallest failing k.  A moved test fails nothing
    at ell = 1, where every test passes."""
    sigmas = list(permutations(range(1, n + 1)))
    rng = random.Random(ell * 10 + n)
    for target in range(1, n + 2):  # n + 1: no permutation has that many
        sides = _moved_when(target)
        differ = partial(enumeration._sides_differ, sides)
        differs = {s for s in sigmas if sides(s)[0] != sides(s)[1]}
        for start, stop in _cut_ranges(1, n, rng, 20):
            counts = enumeration._run_task((differ, 1, n, start, stop))
            unequal = [s for s in sigmas[start:stop] if s in differs]
            keys = Counter({(): stop - start - len(unequal)}) + Counter((s,) for s in unequal)
            assert counts == keys
        source = partial(enumeration._map_reduce, jobs=1)
        found = enumeration._suite_sides(differ, ell, n, source, enumeration.DEFAULT_BUDGET)
        assert found == _sides_reference(sides, ell, n), target


def _force_pool(monkeypatch):
    monkeypatch.setattr(enumeration, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _failures(suite):
    """``(ell, n, counterexample)`` of each failed check of ``suite`` on the
    1- and 2-color groups on up to 4 letters, the same at one and two workers."""
    reports = [verify_suite(suite, 2, 4, jobs=jobs) for jobs in (1, 2)]
    assert reports[0] == reports[1]
    return [(r.ell, r.n, r.counterexample) for r in reports[0] if not r.passed]


def _lossy(candidates, sigma):
    """``candidates`` less the last one on 3 4 1 2: a counting kernel that
    drops a code of one permutation."""
    return candidates[:-1] if sigma == (3, 4, 1, 2) else candidates


def _lossy_circular(sigma):  # module level, so the pool can pickle it
    return _lossy(enumeration._circular(sigma), sigma)


def _lossy_isolated(sigma):
    return _lossy(enumeration._isolated_kernel(sigma), sigma)


def _lossy_linear(sigma):
    return _lossy(enumeration._linear(sigma), sigma)


def _lossy_increasing(sigma):
    return _lossy(enumeration._increasing_kernel(sigma), sigma)


@pytest.mark.parametrize(
    "faults,rows",
    [
        ({"circular": _lossy_circular, "isolated": _lossy_isolated},
         [("t2", 4), ("t3", 3), ("c7", 3), ("l45", 4), ("t11", 4)]),
        ({"linear": _lossy_linear, "increasing": _lossy_increasing}, [("c7", 3), ("t9", 4)]),
    ],
    ids=["circular-isolated", "linear-increasing"],
)
def test_lossy_kernel_fails_the_rows_reading_its_tally(monkeypatch, faults, rows):
    """A counting kernel that drops a candidate of 3 4 1 2 fails exactly the
    rows whose tallies read the 4-letter groups through it, at one and two
    workers: the circular kernel t2 and l45 at n = 4 and t3 and c7 at n = 3,
    which read n + 1 letters; the isolated kernel t11 at n = 4; the linear
    kernel c7 at n = 3; the increasing kernel t9 at n = 4.  The e43 sides,
    which look ``_circular`` up by name, still pass."""
    for name, kernel in faults.items():
        known = name in enumeration._SUCCESSION_KERNELS
        kernels = enumeration._SUCCESSION_KERNELS if known else enumeration._FAMILY_KERNELS
        monkeypatch.setitem(kernels, name, kernel)
    serial = verify_suite("all", 2, 4, jobs=1)
    _force_pool(monkeypatch)
    assert verify_suite("all", 2, 4, jobs=2) == serial
    failed = [(r.check, r.ell, r.n) for r in serial if not r.passed]
    assert failed == [(check, ell, n) for check, n in rows for ell in (1, 2)]


# The candidate builder behind each statistic the e22 and e43 sides read, by
# word: e22's skew side is ``_skew_rises``, and both sides of e43 read
# ``_circular``, the rotated side on the word rotated right; e43's other side
# codes each (k+1)-succession one k lower.
_STAT_BUILDERS = {"skew_linear_pairs": "_skew_rises", "circular_pairs": "_circular"}


def _break_stat(monkeypatch, stat, extra):
    """Make the candidate builder of ``stat`` append, for each ``(test, k, v)``
    in ``extra(word)``, the candidate of a k-succession of value ``v``."""
    real = getattr(enumeration, _STAT_BUILDERS[stat])

    def builder(word):
        w = len(word) + 1
        return real(word) + [(test, k * w + v) for test, k, v in extra(word)]

    monkeypatch.setattr(enumeration, _STAT_BUILDERS[stat], builder)


def _first_in_block(failing, ell, n, k):
    """The counterexample at offset 0 of the first permutation in ``failing``."""
    index = min(failing) * ell**n
    return {"index": index, "perm": str(element_at(ell, n, index)), "k": k}


def _rank(word):
    return list(permutations(sorted(word))).index(word)


@pytest.mark.parametrize(
    "suite,stat,first_k,bad_indices",
    [
        ("e22", "skew_linear_pairs", 1, (100, 300)),  # one per partition
        ("e22", "skew_linear_pairs", 1, (300,)),  # second partition only
        ("e43", "circular_pairs", 0, (100, 300)),
        ("e43", "circular_pairs", 0, (300,)),
    ],
)
def test_counterexample_independent_of_jobs(
    monkeypatch, suite, stat, first_k, bad_indices
):
    """A statistic broken at every k from ``first_k`` on the underlying words
    of chosen elements of the 2-color group on 4 letters is reported at the
    first failing element whatever the number of workers.  The ell = 1
    decision is split in two partitions of 12 permutations, 6 and 18 the
    ranks of the two words."""
    bad = {element_at(2, 4, i).sigma for i in bad_indices}

    def extra(word):  # value 0: no real candidate has it; (0, 1) passes at offset 0
        return [((0, 1), k, 0) for k in range(first_k, 5)] if word in bad else []

    _break_stat(monkeypatch, stat, extra)
    _force_pool(monkeypatch)
    # e43 also sees a broken list when the rotated word is a bad one
    failing = bad | {w[1:] + w[:1] for w in bad} if suite == "e43" else bad
    ranks = {_rank(w) for w in failing}
    expected = [(ell, 4, _first_in_block(ranks, ell, 4, first_k)) for ell in (1, 2)]
    assert _failures(suite) == expected


@pytest.mark.parametrize(
    "suite,stat,broken_k,reported_k",
    [
        ("e22", "skew_linear_pairs", 2, 2),
        ("e43", "circular_pairs", 3, 2),  # e43 compares k + 1 of p with k of its rotation
    ],
)
def test_counterexample_reports_smallest_failing_k(
    monkeypatch, suite, stat, broken_k, reported_k
):
    """A statistic broken at one k only is reported at that k, not at the
    first k the suite compares."""
    bad = element_at(2, 4, 256).sigma  # 3 4 1 2; its left rotation comes later
    _break_stat(monkeypatch, stat, lambda word: [((0, 1), broken_k, 0)] if word == bad else [])
    _force_pool(monkeypatch)
    expected = [(ell, 4, _first_in_block({16}, ell, 4, reported_k)) for ell in (1, 2)]
    assert _failures(suite) == expected


# The side builders of e22 and e43, in order.
_SIDES = {
    "e22": ("_skew_rises", "_linear_side"),
    "e43": ("_circular_side", "_rotated_side"),
}
_SIDE_SUITE = {name: suite for suite, names in _SIDES.items() for name in names}
_FAULTS = {
    "gain": lambda candidates: candidates + [((0, 2), 12)],  # a 2-succession of value 2
    "lose": lambda candidates: candidates[:-1],
    "move": lambda candidates: [((1, 2), candidates[0][1])] + candidates[1:],
}


@pytest.mark.parametrize("fault", _FAULTS)
@pytest.mark.parametrize("builder", _SIDE_SUITE)
def test_side_faults_match_reference(monkeypatch, builder, fault):
    """A fault in either side of e22 or e43 on one permutation, 3 4 1 2, is
    reported where an element-by-element scan of each side's own tests finds
    it, at every ell <= 3 and n <= 5 and at one and two workers.  A moved test
    still passes on the one-color group, where every test passes."""
    real = getattr(enumeration, builder)

    def faulty(sigma):
        return _FAULTS[fault](real(sigma)) if sigma == (3, 4, 1, 2) else real(sigma)

    monkeypatch.setattr(enumeration, builder, faulty)
    _force_pool(monkeypatch)
    suite = _SIDE_SUITE[builder]
    names = _SIDES[suite]

    def sides(sigma):
        return [getattr(enumeration, name)(sigma) for name in names]

    expected = [(ell, n, _sides_reference(sides, ell, n))
                for ell in range(1, 4) for n in range(6)]
    failing = [ell for ell, _, found in expected if found]
    assert failing == ([2, 3] if fault == "move" else [1, 2, 3])
    for jobs in (1, 2):
        reports = verify_suite(suite, 3, 5, jobs=jobs)
        assert [(r.ell, r.n, r.counterexample) for r in reports] == expected


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_block_check_sides_match_spec(ell, n):
    """Each side of e22 and e43 gives every element, each pair once, the
    pairs that ``statistics.py`` states for that side."""
    names = ("_skew_rises", "_linear_side", "_circular_side", "_rotated_side")
    for sigma, block in groupby(group(ell, n), attrgetter("sigma")):
        sides = {name: getattr(enumeration, name)(sigma) for name in names}
        for p in block:
            first = {(v, v) for v in p.sigma[:1] if not p.colors[v - 1]}
            rotated = set()
            if n:
                last = p.sigma[-1]
                rotated = set(circular_pairs(rotate_right(p)))
                rotated.discard((last - 1, last))
            spec = {
                "_skew_rises": skew_linear_pairs(p),
                "_linear_side": linear_pairs(p) | first,
                "_circular_side": {(k - 1, v) for k, v in circular_pairs(p) if k},
                "_rotated_side": rotated,
            }
            for name, expected in spec.items():
                pairs = [divmod(code, n + 1) for code in _codes(sides[name], (0,) + p.colors)]
                assert len(set(pairs)) == len(pairs), (name, str(p))
                assert set(pairs) == expected, (name, str(p))


@pytest.mark.parametrize(
    "sides", [("_skew_rises", "_linear_side"), ("_circular_side", "_rotated_side")],
    ids=("e22", "e43"),
)
def test_block_check_sides_ask_the_same_tests(sides):
    """Both sides of e22 and of e43 list the same candidates, tests and codes
    in one order: ``(0, s1)`` and the rises for e22, and each ``(0, v)`` for a
    value ``v`` above its position for e43.  So the ell = 1 decision finds no
    permutation to scan."""
    got, expected = (getattr(enumeration, name) for name in sides)
    for n in range(8):
        for sigma in permutations(range(1, n + 1)):
            assert got(sigma) == expected(sigma), sigma


@pytest.mark.parametrize("suite", ["e22", "e43"])
def test_sides_charged_at_one_color(monkeypatch, suite):
    """e22 and e43 tally only the ell = 1 groups, so a range whose larger
    groups exceed the default budget runs when those fit: 10 colors on up to
    9 letters, where the 10-color group has 10^9 * 9! elements."""

    def decided(kernel, ell, n, **_):
        assert ell == 1
        return Counter({(): math.factorial(n)})  # no permutation to scan

    monkeypatch.setattr(enumeration, "_map_reduce", decided)
    results = verify_suite(suite, 10, 9)
    assert len(results) == 100 and all(r.passed for r in results)


def test_sides_scan_bounded_by_budget(monkeypatch):
    """A side whose list is reversed differs from the other on every
    permutation with two candidates, yet keeps the same codes, so no element
    fails.  The colorings of the permutations to scan are sized before any is
    read: 119 of the 120 on 5 letters, times 2^5, exceed a budget of 2000."""
    real = enumeration._linear_side
    monkeypatch.setattr(enumeration, "_linear_side", lambda sigma: real(sigma)[::-1])
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^the scan of 3808 colorings with ell=2, n=5 exceeds"):
        verify_suite("e22", 3, 6, budget=2000)
    assert time.perf_counter() - start < 1


def _bumped(value, cell):
    """``value`` (a nested tuple or list of ints) with the entry at ``cell``
    raised by one."""
    if not cell:
        return value + 1
    i, *rest = cell
    items = list(value)
    items[i] = _bumped(items[i], rest)
    return type(value)(items)


def _bump(monkeypatch, module, name, args, cell):
    """Make ``module.name`` raise one entry of its result by one when its
    leading positional arguments are ``args``.  Returns the list of the
    arguments of each call it bumped."""
    real, calls = getattr(module, name), []

    def bumped(*a, **kw):
        out = real(*a, **kw)
        if a[: len(args)] != args:
            return out
        calls.append(a)
        if isinstance(out, DifferenceTable):
            return out._replace(rows=_bumped(out.rows, cell))
        if isinstance(out, Iterator):  # a stream of rows
            return iter(_bumped(tuple(out), cell))
        return _bumped(out, cell)

    monkeypatch.setattr(module, name, bumped)
    return calls


# The expansion behind each public count, with the same leading arguments.
_EXPANSIONS = {
    "bounded_matrix": "_succession_matrix",
    "distribution_matrix": "_succession_matrix",
    "family_counts": "_family_counts",
}


@pytest.mark.parametrize(
    "suite,name,args,cell,expected",
    [
        ("t2", "bounded_matrix", (2, 3), (1, 2),
         [(2, 3, {"k": 1, "m": 2, "count": "41", "expected": "40"})]),
        ("t2", "build_table", (2, 4, "g"), (4, 2),
         [(2, 4, {"k": 0, "m": 2, "count": "296", "expected": "297"})]),
        ("t3", "distribution_matrix", (2, 3, "circular"), (1, 1),
         [(2, 2, {"k": 0, "m": 1, "lhs": "13", "rhs": "12"}),
          (2, 3, {"k": 1, "m": 1, "lhs": "80", "rhs": "81"})]),
        ("c7", "distribution_matrix", (2, 3, "linear"), (2, 1),
         [(2, 2, {"k": 1, "m": 1, "lhs": "9", "rhs": "8"})]),
        ("c7", "distribution_matrix", (1, 4, "circular"), (0, 2),
         [(1, 3, {"k": 0, "m": 2, "lhs": "3", "rhs": "4"})]),
        ("l45", "distribution_matrix", (2, 4, "circular"), (1, 2),
         [(2, 4, {"k": 1, "m": 2, "count": "19", "expected": "18"})]),
        ("l45", "build_table", (1, 4, "g"), (3, 1),
         [(1, 4, {"k": 1, "m": 1, "count": "9", "expected": "12"})]),
        ("t9", "family_counts", (2, 3, "increasing"), (2,),
         [(2, 3, {"m": 2, "count": "6", "expected": "5"})]),
        ("t9", "build_table", (2, 4, "d"), (4, 1),
         [(2, 4, {"m": 1, "count": "131", "expected": "132"})]),
        ("t11", "family_counts", (1, 4, "isolated"), (0,),
         [(1, 4, {"m": 0, "count": "10", "expected": "9"})]),
    ],
)
def test_table_suite_counterexample(monkeypatch, suite, name, args, cell, expected):
    """A count or table entry off by one fails exactly the checks that read
    it, each at its first disagreeing index.  A count is bumped where its
    keys are expanded, the point its public function and the suites share."""
    _force_pool(monkeypatch)
    _bump(monkeypatch, enumeration, _EXPANSIONS.get(name, name), args, cell)
    assert _failures(suite) == expected


def test_each_tally_runs_once_per_call(monkeypatch):
    """One ``verify_suite`` call tallies each ``(kernel, ell, n)`` once,
    however many suites read its keys.  e22 and e43 each decide every
    permutation once per n, at ell = 1 only, whatever ``max_ell`` is."""
    tallies = []
    real_map_reduce = enumeration._map_reduce

    def map_reduce(kernel, ell, n, *rest, **kwargs):
        assert type(ell) is int and type(n) is int  # what a tracer reads to count elements
        tallies.append((kernel, ell, n))
        return real_map_reduce(kernel, ell, n, *rest, **kwargs)

    monkeypatch.setattr(enumeration, "_map_reduce", map_reduce)
    # the second call at 2 colors tallies them all again: nothing outlives a call
    for max_ell in (2, 2, 3):
        tallies.clear()
        assert all(r.passed for r in verify_suite("all", max_ell, 4))
        # circular at n <= 4, linear at 2 <= n <= 4 and each family at n <= 4, for
        # each ell; then the e22 and e43 decisions at n <= 4
        assert len(tallies) == len(set(tallies)) == max_ell * (5 + 3 + 5 + 5) + 2 * 5
        decided = [(ell, n) for kernel, ell, n in tallies if kernel not in _KERNELS.values()]
        assert sorted(decided) == sorted([(1, n) for n in range(5)] * 2)


@pytest.mark.parametrize("fault", [None, ("_succession_matrix", (2, 3, "circular"), (1, 1))])
def test_all_is_every_suite_in_turn(monkeypatch, fault):
    """The ``all`` report is the nine single-suite reports concatenated, with
    and without a count off by one that several suites read."""
    if fault:
        _bump(monkeypatch, enumeration, *fault)
    suites = [r for suite in enumeration.SUITES for r in verify_suite(suite, 2, 4)]
    assert verify_suite("all", 2, 4) == suites
    assert all(r.passed for r in suites) == (fault is None)


def test_rec_reads_check_recurrences_at_each_call(monkeypatch):
    """The ``rec`` suite calls the module's ``check_recurrences`` when it runs,
    once per ell, so a wrapper installed after import sees every call."""
    calls = []
    real = enumeration.check_recurrences

    def counting(ell, max_n):
        calls.append((ell, max_n))
        return real(ell, max_n)

    monkeypatch.setattr(enumeration, "check_recurrences", counting)
    assert len(verify_suite("rec", 2, 3)) == 2 * 9
    assert calls == [(1, 3), (2, 3)]


@pytest.mark.parametrize("suite", [*enumeration.SUITES, "all"])
@pytest.mark.parametrize("max_ell,max_n", [(2, 4), (3, 2), (2, 1), (1, 0)])
def test_sized_rows_equal_the_results(monkeypatch, suite, max_ell, max_n):
    """The rows ``verify_suite`` sizes before the first check are the results
    it returns: at a ``ROW_LIMIT`` of that many it runs, at one less it refuses."""
    results = verify_suite(suite, max_ell, max_n)
    monkeypatch.setattr(enumeration, "ROW_LIMIT", len(results))
    assert verify_suite(suite, max_ell, max_n) == results
    monkeypatch.setattr(enumeration, "ROW_LIMIT", len(results) - 1)
    with pytest.raises(BudgetError, match=f"^the {len(results)} \\(check, ell, n\\) rows "):
        verify_suite(suite, max_ell, max_n)


@pytest.mark.parametrize("suite", enumeration.SUITES)
@pytest.mark.parametrize("max_ell,max_n", [(2, 4), (3, 2), (1, 0)])
def test_cost_charges_what_the_suite_runs(monkeypatch, suite, max_ell, max_n):
    """Unit by unit, a suite's ``cost`` charges the distinct groups its rows
    tally through ``_map_reduce`` (elements) and the triangles they check
    through ``check_recurrences`` (table bits), and nothing else."""
    ran = (set(), set())
    tally, check = enumeration._map_reduce, enumeration.check_recurrences

    def tallied(kernel, ell, n, **options):
        ran[0].add((ell, n))
        return tally(kernel, ell, n, **options)

    def checked(ell, max_n):
        ran[1].add((ell, max_n))
        return check(ell, max_n)

    monkeypatch.setattr(enumeration, "_map_reduce", tallied)
    monkeypatch.setattr(enumeration, "check_recurrences", checked)
    verify_suite(suite, max_ell, max_n)
    _, first, shrink, cost = enumeration._SUITES[suite]
    ns = range(first, max_n + 1 - shrink)
    charged = (set(), set())
    for ell in range(1, max_ell + 1) if ns else ():
        for unit, *item in cost(ell, ns)[1]:
            charged[unit].add(tuple(item))
    assert ran == charged


@pytest.mark.parametrize("max_ell,max_n,rows", [(2, 4, 90), (3, 2, 87), (2, 1, 24), (1, 0, 6)])
def test_all_rows_per_range(max_ell, max_n, rows):
    """Per ell, six suites check each ``0 <= n <= max_n``, ``t3`` and ``c7``
    each ``1 <= n <= max_n - 1``, and ``rec`` nine identities once ``max_n >= 2``."""
    assert len(verify_suite("all", max_ell, max_n)) == rows


def _rec_failures():
    """``(check, ell, counterexample)`` of each failed identity of the ``rec``
    suite up to 4 letters and 2 colors, the same at one and two workers."""
    reports = [verify_suite("rec", 2, 4, jobs=jobs) for jobs in (1, 2)]
    assert reports[0] == reports[1]
    return [(r.check, r.ell, r.counterexample) for r in reports[0] if not r.passed]


def _ce(n, m, lhs, rhs):
    return {"n": n, "m": m, "lhs": str(lhs), "rhs": str(rhs)}


@pytest.mark.parametrize(
    "args,cell,expected",
    [
        ((2, 4, "g"), (3, 1), [
            ("g_rec_two_prev_rows", 2, _ce(3, 1, 35, 34)),
            ("g_rec_prev_row_diag", 2, _ce(3, 1, 35, 34)),
            ("g_rec_three_term", 2, _ce(3, 1, 35, 34)),
            ("g_equals_scaled_d", 2, _ce(3, 1, 35, 34)),
        ]),
        ((2, 4, "g"), (1, 1), [
            ("g_rec_two_prev_rows", 2, _ce(2, 1, 6, 9)),
            ("g_rec_prev_row_diag", 2, _ce(1, 1, 3, 2)),
            ("g_rec_three_term", 2, _ce(2, 1, 6, 10)),
            ("boundary_values", 2, {"flavor": "g", **_ce(1, 1, 3, 2)}),
            ("g_equals_scaled_d", 2, _ce(1, 1, 3, 2)),
        ]),
        ((1, 4, "d"), (2, 1), [
            ("d_rec_two_prev_rows", 1, _ce(2, 1, 2, 1)),
            ("d_rec_prev_row_diag", 1, _ce(2, 1, 2, 1)),
            ("d_rec_three_term", 1, _ce(2, 1, 3, 2)),
            ("g_equals_scaled_d", 1, _ce(2, 1, 1, 2)),
        ]),
        ((2, 4, "d"), (0, 0), [
            ("d_rec_two_prev_rows", 2, _ce(2, 0, 5, 7)),
            ("d_rec_prev_row_diag", 2, _ce(1, 1, 1, 2)),
            ("d_rec_three_term", 2, _ce(2, 1, 5, 4)),
            ("d_rec_column0_parity", 2, _ce(1, 0, 1, 3)),
            ("boundary_values", 2, {"flavor": "d", **_ce(0, 0, 2, 1)}),
            ("g_equals_scaled_d", 2, _ce(0, 0, 1, 2)),
        ]),
        ((1, 4, "d"), (4, 0), [
            ("d_rec_two_prev_rows", 1, _ce(4, 0, 10, 9)),
            ("d_rec_column0_parity", 1, _ce(4, 0, 10, 9)),
            ("g_equals_scaled_d", 1, _ce(4, 0, 9, 10)),
        ]),
    ],
)
def test_recurrence_counterexample(monkeypatch, args, cell, expected):
    """A table entry off by one fails exactly the identities that read it,
    each at its first disagreeing index; ``boundary_values`` also names the
    table."""
    calls = _bump(monkeypatch, tables, "table_rows", args, cell)
    assert _rec_failures() == expected
    assert calls == [args, args]  # once per report, at one and two workers


class TestDistribution:
    def test_fixed_point_counts(self):
        assert distribution(2, 2, 0, "circular") == (5, 2, 1)

    def test_derangement_entry(self):
        assert distribution(2, 3, 0, "circular")[0] == 29
        assert distribution(1, 5, 0, "circular")[0] == 44

    def test_only_identity_fully_fixed(self):
        for ell, n in [(1, 4), (2, 3), (3, 3)]:
            assert distribution(ell, n, 0, "circular")[n] == 1

    def test_large_k_vacuous(self):
        assert distribution(2, 3, 3, "circular") == (48, 0, 0, 0)

    def test_matches_per_element_sets(self):
        for kind, pairs in [("circular", circular_pairs), ("linear", linear_pairs)]:
            for k in (1, 2):
                counts = [0] * 4
                for p in group(2, 3):
                    counts[len(at_k(pairs(p), k))] += 1
                assert distribution(2, 3, k, kind) == tuple(counts)

    def test_circular_linear_equidistributed(self):
        for k in (1, 2, 3):
            assert distribution(2, 3, k, "circular") == distribution(2, 3, k, "linear")

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            distribution(2, 3, 0, "linear")
        with pytest.raises(ValueError):
            distribution(2, 3, 0, "skewLinear")
        with pytest.raises(ValueError):
            distribution(2, 3, -1, "circular")

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: distribution(1, 2, 1, "x"), "unknown statistic kind 'x'"),
            # k > n returns before counting, so only distribution's own check refuses it
            (lambda: distribution(1, 2, 3, "x"), "unknown statistic kind 'x'"),
            (lambda: distribution_matrix(1, 2, "x"), "unknown statistic kind 'x'"),
            (lambda: family_counts(1, 2, "x"), "unknown family 'x'"),
        ],
        ids=["distribution", "distribution-k-above-n", "distribution_matrix", "family_counts"],
    )
    def test_unknown_kind_or_family(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_matrix_consistent(self):
        matrix = distribution_matrix(2, 3, "circular")
        for k in range(4):
            assert matrix[k] == distribution(2, 3, k, "circular")

    def test_succession_free_counts_are_g_entries(self):
        for ell, n in [(2, 4), (3, 3)]:
            g = build_table(ell, n, "g")
            matrix = distribution_matrix(ell, n, "circular")
            for k in range(n + 1):
                assert matrix[k][0] == g.entry(n, k)

    def test_counts_must_cover_the_group(self, monkeypatch):
        tally = enumeration._tally

        def drop_one(*args):
            counts = tally(*args)
            counts[next(iter(counts))] -= 1
            return counts

        monkeypatch.setattr(enumeration, "_tally", drop_one)
        calls = [
            lambda: distribution(2, 3, 1, "circular"),
            lambda: distribution_matrix(2, 3, "linear"),
            lambda: bounded_matrix(2, 3),
            lambda: family_counts(2, 3, "isolated"),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^distribution does not cover the whole group$"):
                call()

    def test_parallel_counts_match_serial(self, monkeypatch):
        _force_pool(monkeypatch)
        serial = distribution(3, 5, 0, "circular", jobs=1)
        parallel = distribution(3, 5, 0, "circular", jobs=2)
        assert serial == parallel
        assert serial[0] == build_table(3, 5, "g").entry(5, 0)


class TestVerifySuite:
    def test_all_pass_small(self):
        results = verify_suite("all", 2, 4)
        assert results
        bad = [r for r in results if not r.passed]
        assert not bad, report_json(bad)

    def test_bounded_counts_match_g_table(self):
        results = verify_suite("t2", 3, 4)
        assert all(r.passed for r in results)

    def test_reports_deterministic_across_jobs(self):
        one = report_json(verify_suite("t3", 3, 4, jobs=1))
        four = report_json(verify_suite("t3", 3, 4, jobs=4))
        assert one == four

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify_suite("nope", 2, 3)

    def test_report_shape(self):
        results = verify_suite("t9", 2, 3)
        for r in results:
            assert isinstance(r, CheckResult)
            d = r.as_dict()
            assert d["status"] == "pass"
            assert d["check"] == "t9"
            assert "counterexample" not in d
        keys = {"check", "ell", "n", "params", "status"}
        assert results[0].as_dict().keys() == keys
        failed = results[0]._replace(counterexample={"k": 0})
        assert failed.as_dict().keys() == keys | {"counterexample"}
        assert failed.as_dict()["status"] == "fail"
