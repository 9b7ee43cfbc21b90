from itertools import groupby
from operator import attrgetter

import pytest

from wreathperm import (
    ColoredPermutation,
    DomainError,
    circular_pairs,
    circular_successions,
    enumerate_group,
    fixed_points,
    is_derangement,
    is_increasing_fixed,
    is_isolated_fixed,
    linear_pairs,
    parse_one_line,
    rotate_left,
    rotate_right,
    skew_linear_pairs,
)
from wreathperm.core import canonical_cycles
from wreathperm.statistics import _has_fixed_point

from conftest import at_k, group

# size-9 elements with four colors used as statistic fixtures
CIRC_FIXTURE = "1^1 5 9^2 6^1 8 7^1 3^3 4^2 2^1"
LIN_FIXTURE = "5^1 2^1 4 7 9 1^1 3^1 8^2 6"
SKEW_FIXTURE = "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1"


class TestCircular:
    def test_fixture(self):
        p = parse_one_line(CIRC_FIXTURE, 4, 9)
        assert tuple(sorted(circular_successions(p, 3))) == (5, 8)

    def test_identity_fixed_points(self):
        e = ColoredPermutation.identity(3, 5)
        assert tuple(sorted(circular_successions(e, 0))) == (1, 2, 3, 4, 5)
        assert fixed_points(e) == frozenset(range(1, 6))

    def test_derangement_count(self):
        assert sum(1 for p in group(2, 2) if not fixed_points(p)) == 5

    def test_values_are_uncolored(self):
        for p in group(3, 3):
            for k in range(4):
                for v in circular_successions(p, k):
                    assert p.colors[v - 1] == 0

    def test_fixed_points_above(self):
        for p in group(2, 5):
            for m in range(6):
                assert fixed_points(p, m) == {v for v in fixed_points(p) if v > m}

    def test_fixed_points_refuse_a_bound_outside_the_values(self):
        p = parse_one_line("1 3 2", 1)
        for above in (-5, 4):
            with pytest.raises(DomainError, match=rf"^above must lie in \[0, 3\], got {above}$"):
                fixed_points(p, above)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_has_fixed_point_is_fixed_points_nonempty(self, ell):
        for n in range(6):
            for p in group(ell, n):
                for m in range(n + 1):
                    assert _has_fixed_point(p, m) == bool(fixed_points(p, m))

    def test_negative_k(self):
        with pytest.raises(ValueError):
            circular_successions(ColoredPermutation.identity(2, 2), -1)


class TestLinear:
    def test_fixture(self):
        p = parse_one_line(LIN_FIXTURE, 4, 9)
        assert at_k(linear_pairs(p), 2) == (3, 9)

    def test_identity(self):
        e = ColoredPermutation.identity(3, 5)
        assert linear_pairs(e) == {(1, 2), (1, 3), (1, 4), (1, 5)}

    def test_equidistribution_with_circular(self):
        # consequence of the colored cycles-to-word transport
        from collections import Counter

        for k in (1, 2, 3):
            circ = Counter(len(circular_successions(p, k)) for p in group(2, 3))
            lin = Counter(len(at_k(linear_pairs(p), k)) for p in group(2, 3))
            assert circ == lin


class TestSkewLinear:
    def test_fixture(self):
        p = parse_one_line(SKEW_FIXTURE, 4, 9)
        assert at_k(skew_linear_pairs(p), 2) == (4, 7)

    def test_boundary_value_joins(self):
        p = parse_one_line("2 1 3", 1)
        assert (2, 2) in skew_linear_pairs(p)
        assert (2, 2) not in linear_pairs(p)

    def test_identity(self):
        e = ColoredPermutation.identity(2, 4)
        assert at_k(skew_linear_pairs(e), 1) == (1, 2, 3, 4)

    def test_relation_to_linear_exhaustive(self):
        for ell, n in [(1, 4), (2, 4), (3, 3)]:
            for p in group(ell, n):
                expected = set(linear_pairs(p))
                if n and p.colors[p.sigma[0] - 1] == 0:
                    expected.add((p.sigma[0], p.sigma[0]))
                assert skew_linear_pairs(p) == expected


def bounded(p, m, k):
    """Every k-circular succession value of ``p`` is at most ``m``."""
    return all(v <= m for v in at_k(circular_pairs(p), k))


class TestBounded:
    def test_fixed_points_within_one(self):
        found = {str(p) for p in group(2, 2) if bounded(p, 1, 0)}
        assert found == {"2 1", "1 2^1", "2^1 1", "2 1^1", "1^1 2^1", "2^1 1^1"}

    def test_no_one_succession(self):
        found = {str(p) for p in group(2, 2) if bounded(p, 1, 1)}
        assert found == {"1 2", "1^1 2", "1 2^1", "1^1 2^1", "2^1 1", "2^1 1^1"}

    def test_identity_trivial(self):
        e = ColoredPermutation.identity(2, 4)
        assert bounded(e, 4, 0)

    def test_rotation_shifts_k(self):
        # bounded k-successions correspond to bounded (k+1)-successions of
        # the left rotation, for every k < m
        for p in group(2, 4):
            for m in range(5):
                for k in range(m):
                    assert bounded(p, m, k) == bounded(rotate_left(p), m, k + 1)

    def test_shift_set_relation(self):
        # the (k+1)-succession set equals the k-set of the right rotation,
        # minus the value k+1 when the last letter is exactly uncolored k+1
        for ell, n in [(2, 4), (3, 3)]:
            for p in group(ell, n):
                rot = rotate_right(p)
                for k in range(n + 1):
                    expected = set(circular_successions(rot, k))
                    last = p.image(n)
                    if last.value == k + 1 and last.color == 0:
                        expected.discard(k + 1)
                    assert set(circular_successions(p, k + 1)) == expected


class TestIncreasingFixed:
    def test_explicit_family(self):
        found = {str(p) for p in group(2, 3) if is_increasing_fixed(p, 2)}
        assert found == {"1 2 3^1", "1 3 2", "1 3 2^1", "2 3 1", "2 3 1^1"}
        assert len(found) == 5

    def test_m_zero_is_derangement(self):
        for p in group(2, 3):
            assert is_increasing_fixed(p, 0) == is_derangement(p)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            is_increasing_fixed(ColoredPermutation.identity(2, 2), 3)


class TestIsolatedFixed:
    def test_bad_m(self):
        with pytest.raises(ValueError, match=r"^m must lie in \[0, 2\], got 3$"):
            is_isolated_fixed(ColoredPermutation.identity(1, 2), 3)

    def test_explicit_family(self):
        from wreathperm import parse_cycles

        found = {p for p in group(2, 3) if is_isolated_fixed(p, 2)}
        expected = {
            parse_cycles(text, 2, 3)
            for text in [
                "(1)(2)(3^1)",
                "(1 3)(2)",
                "(1 3^1)(2)",
                "(1)(2 3)",
                "(1)(2 3^1)",
            ]
        }
        assert found == expected

    def test_shared_cycle_excluded(self):
        p = parse_one_line("3^1 1 2", 2)
        assert not is_isolated_fixed(p, 2)

    def test_identity_unique_at_full_m(self):
        for ell, n in [(2, 3), (3, 2)]:
            members = [p for p in group(ell, n) if is_isolated_fixed(p, n)]
            assert members == [ColoredPermutation.identity(ell, n)]


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", range(7))
def test_predicates_match_definitions(ell, n):
    """``fixed_points`` is the circular rule at ``k = 0``, and
    ``is_isolated_fixed`` is its docstring read off the cycles: ``1..m``
    uncolored, no fixed point above ``m``, no cycle meeting ``[m]`` twice."""
    span = range(n + 1)
    for sigma, block in groupby(enumerate_group(ell, n), attrgetter("sigma")):
        cycles = canonical_cycles(sigma)
        meets_once = [all(sum(v <= m for v in c) <= 1 for c in cycles) for m in span]
        for p in block:
            fixed = fixed_points(p)
            assert fixed == circular_successions(p, 0), str(p)
            low = max(fixed, default=0)
            high = next((i for i, c in enumerate(p.colors) if c), n)  # leading 0 colors
            spec = [low <= m <= high and meets_once[m] for m in span]
            assert [is_isolated_fixed(p, m) for m in span] == spec, str(p)
