import dataclasses
import math
import os
import random
from collections import Counter
from itertools import groupby
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

    def test_element_at(self):
        elems = list(enumerate_group(3, 3))
        for i, p in enumerate(elems):
            assert element_at(3, 3, i) == p
        with pytest.raises(IndexError):
            element_at(3, 3, len(elems))

    def test_partitions_cover_stream(self):
        full = list(enumerate_group(2, 4))
        for parts in (1, 2, 3, 7):
            bounds = partition_bounds(len(full), parts)
            assert bounds[0][0] == 0 and bounds[-1][1] == len(full)
            merged = []
            for start, stop in bounds:
                merged.extend(enumerate_range(2, 4, start, stop))
            assert merged == full

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_group(2, 4, budget=10))
        assert sum(1 for _ in enumerate_group(2, 4, budget=1000)) == 384
        with pytest.raises(BudgetError):
            distribution(5, 12, 0, "circular")


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
        ]
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"need ell >= 1 and n >= 0, got ell={ell}, n={n}"

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
        "jobs,cpus,partitions,workers",
        [
            (1, 8, 100, 1),
            (3, 2, 100, 2),
            (8, 16, 5, 5),
            (100_000, 2, 46_080, 2),
            (0, 4, 10, 1),
        ],
    )
    def test_pool_size(self, jobs, cpus, partitions, workers):
        assert enumeration._pool_size(jobs, cpus, partitions) == workers


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


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_kernel_keys_match_spec_per_element(ell, n):
    """Every element's own key, decoded, is its pair set or its family interval."""
    pairs = {"circular": circular_pairs, "linear": linear_pairs,
             "skewLinear": skew_linear_pairs}
    families = {"increasing": is_increasing_fixed, "isolated": is_isolated_fixed}
    width = n + 1
    for sigma, block in groupby(group(ell, n), attrgetter("sigma")):
        kernels = {name: kernel(sigma) for name, kernel in _KERNELS.items()}
        for p in block:
            for name, spec in pairs.items():
                key = kernels[name](p.colors)
                decoded = [divmod(code, width) for code in key]
                assert len(set(decoded)) == len(decoded)
                assert frozenset(decoded) == spec(p), (name, str(p))
            for name, spec in families.items():
                low, high = kernels[name](p.colors)
                members = [low <= m <= high for m in range(width)]
                assert members == [spec(p, m) for m in range(width)], (name, str(p))


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_ranges_cut_inside_blocks(ell, n):
    """Folding any index ranges, cut inside a block of one underlying
    permutation or not, counts every element once under its own key."""
    size = group_size(ell, n)
    rng = random.Random(ell * 10 + n)
    cuts = sorted(rng.randrange(size + 1) for _ in range(8))
    ranges = list(zip(cuts[::2], cuts[1::2])) + [(size // 3, size // 3 + 1)]
    if ell > 1 and n > 0:  # some range must start inside a block
        assert any(start % ell**n for start, _ in ranges)
    elements = [element_at(ell, n, i) for i in range(size)]  # each unranked on its own
    for name, kernel in _KERNELS.items():
        keys = [kernel(p.sigma)(p.colors) for p in elements]
        whole = Counter(keys)
        for parts in (1, 3, 7, 11):
            merged = Counter()
            for start, stop in partition_bounds(size, parts):
                counts = enumeration._run_task((enumeration._tally, ell, n, kernel, start, stop))
                assert sum(counts.values()) == stop - start
                merged += counts
            assert merged == whole, (name, parts)
        for start, stop in ranges:
            counts = enumeration._run_task((enumeration._tally, ell, n, kernel, start, stop))
            assert counts == Counter(keys[start:stop]), (name, start, stop)


@pytest.mark.parametrize("ell,n", [(2, 3), (3, 3), (3, 4)])
def test_first_failure_across_cut_blocks(ell, n):
    """Folding a block check over any index range, cut inside a block or not,
    reports the first element in the range that the check rejects."""
    size = group_size(ell, n)
    rng = random.Random(ell * 10 + n)
    flagged = set(rng.sample(range(size), 5))
    bad = {element_at(ell, n, i) for i in flagged}

    def check(sigma):
        return lambda colors: {} if ColoredPermutation(ell, sigma, colors) in bad else None

    cuts = sorted(rng.randrange(size + 1) for _ in range(20))
    ranges = [(0, size), *zip(cuts[::2], cuts[1::2])]
    assert any(start % ell**n for start, _ in ranges)  # some range starts inside a block
    for start, stop in ranges:
        found = enumeration._run_task((enumeration._first_failure, ell, n, check, start, stop))
        first = min((i for i in flagged if start <= i < stop), default=None)
        assert found == (first if first is None else {"index": first}), (start, stop)


def _force_pool(monkeypatch):
    monkeypatch.setattr(enumeration, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _failures(suite):
    """``(ell, n, counterexample)`` of each failed check of ``suite`` on the
    2-color group on 4 letters, the same at one and two workers."""
    reports = [verify_suite(suite, 2, 4, jobs=jobs) for jobs in (1, 2)]
    assert reports[0] == reports[1]
    return [(r.ell, r.n, r.counterexample) for r in reports[0] if not r.passed]


# The block-check sides that read each statistic: the side builder, the
# element whose statistic it reads, how far it raises k, and the least k of
# the statistic it keeps.
_STAT_SIDES = {
    "skew_linear_pairs": [("_skew_side", lambda p: p, 0, 0)],
    "circular_pairs": [
        ("_circular_side", lambda p: p, 0, 1),
        ("_rotated_side", rotate_right, 1, 0),
    ],
}


def _break_stat(monkeypatch, stat, extra):
    """Make every block-check side that reads ``stat`` add ``extra(q)`` to the
    pairs of ``q``, an element of a 2-color group."""
    ells = []  # the ell of the group being checked
    real_map_reduce = enumeration._map_reduce

    def map_reduce(fold, ell, *rest):
        ells[:] = [ell]
        return real_map_reduce(fold, ell, *rest)

    monkeypatch.setattr(enumeration, "_map_reduce", map_reduce)
    for name, reads, shift, least in _STAT_SIDES[stat]:

        def builder(sigma, real=getattr(enumeration, name), reads=reads, shift=shift,
                    least=least):
            side = real(sigma)

            def pairs(padded):  # the colors, then an uncolored slot
                found = side(padded)
                if ells != [2] or not sigma:
                    return found
                q = reads(ColoredPermutation(2, sigma, padded[:-1]))
                return found + [(k + shift, v) for k, v in extra(q) if k >= least]

            return pairs

        monkeypatch.setattr(enumeration, name, builder)


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
    """A statistic broken on chosen elements of the 2-color group on 4 letters
    (384 elements, split in two partitions) is reported at its smallest
    failing index whatever the number of workers."""
    bad = {element_at(2, 4, i) for i in bad_indices}

    def extra(q):  # every k broken
        return [(k, 0) for k in range(first_k, q.n + 1)] if q in bad else []

    _force_pool(monkeypatch)
    _break_stat(monkeypatch, stat, extra)
    # e43 also sees a broken set when the rotated word is a bad element
    failing = bad | {rotate_left(q) for q in bad} if suite == "e43" else bad
    index = min(i for i, p in enumerate(group(2, 4)) if p in failing)
    expected = {"index": index, "perm": str(element_at(2, 4, index)), "k": first_k}
    assert _failures(suite) == [(2, 4, expected)]


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
    """A pair set broken at one k only is reported at that k, not at the
    first k the suite compares."""
    bad = element_at(2, 4, 256)  # 3 4 1 2; its left rotation comes later

    _force_pool(monkeypatch)
    _break_stat(monkeypatch, stat, lambda q: [(broken_k, 0)] if q == bad else [])
    expected = {"index": 256, "perm": str(bad), "k": reported_k}
    assert _failures(suite) == [(2, 4, expected)]


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(6))
def test_block_check_sides_match_spec(ell, n):
    """Each side of the e22 and e43 block checks gives every element, each
    pair once, the pairs that ``statistics.py`` states for that side."""
    names = ("_skew_side", "_linear_side", "_circular_side", "_rotated_side")
    for sigma, block in groupby(group(ell, n), attrgetter("sigma")):
        sides = {name: getattr(enumeration, name)(sigma) for name in names}
        for p in block:
            first = {(v, v) for v in p.sigma[:1] if not p.colors[v - 1]}
            rotated = set()
            if n:
                last = p.sigma[-1]
                rotated = {(k + 1, v) for k, v in circular_pairs(rotate_right(p))}
                rotated.discard((last, last))
            spec = {
                "_skew_side": skew_linear_pairs(p),
                "_linear_side": linear_pairs(p) | first,
                "_circular_side": {(k, v) for k, v in circular_pairs(p) if k},
                "_rotated_side": rotated,
            }
            for name, expected in spec.items():
                pairs = sides[name](p.colors + (0,))
                assert len(set(pairs)) == len(pairs), (name, str(p))
                assert set(pairs) == expected, (name, str(p))


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
    leading positional arguments are ``args``."""
    real = getattr(module, name)

    def bumped(*a, **kw):
        out = real(*a, **kw)
        if a[: len(args)] != args:
            return out
        if isinstance(out, DifferenceTable):
            return dataclasses.replace(out, rows=_bumped(out.rows, cell))
        return _bumped(out, cell)

    monkeypatch.setattr(module, name, bumped)


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
    it, each at its first disagreeing index."""
    _force_pool(monkeypatch)
    _bump(monkeypatch, enumeration, name, args, cell)
    assert _failures(suite) == expected


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
    _bump(monkeypatch, tables, "build_table", args, cell)
    assert _rec_failures() == expected


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

    def test_parallel_counts_match_serial(self):
        # group is large enough to engage the worker pool
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
