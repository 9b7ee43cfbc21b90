"""Succession statistics and membership predicates on colored permutations.

Each kind of succession is one rule over every ``k`` at once, stated as a
``frozenset`` of ``(k, value)`` pairs:

* ``circular``: an uncolored value ``v`` at position ``i <= v`` is a
  ``(v - i)``-circular succession (no wraparound; ``k = 0`` gives the fixed
  points);
* ``linear``: equal-colored adjacent letters ``a, b`` with ``b > a`` form a
  ``(b - a)``-linear succession of value ``b``;
* ``skew linear``: linear on the word with an uncolored ``0`` in front, so an
  uncolored first value ``v`` is also a ``v``-succession.

``circular_successions`` filters the circular pairs at one ``k``.
"""

from __future__ import annotations

from .core import ColoredPermutation, sigma_cycles

CIRCULAR = "circular"
LINEAR = "linear"
SKEW_LINEAR = "skewLinear"


def circular_pairs(p: ColoredPermutation) -> frozenset[tuple[int, int]]:
    """``(k, v)`` for every k-circular succession of value ``v``."""
    return frozenset(
        (v - i, v)
        for i, v in enumerate(p.sigma, start=1)
        if v >= i and p.colors[v - 1] == 0
    )


def circular_successions(p: ColoredPermutation, k: int) -> frozenset[int]:
    """Values ``i + k`` appearing uncolored at position ``i``; ``k >= 0``."""
    if k < 0:
        raise ValueError(f"circular successions need k >= 0, got {k}")
    return frozenset(v for j, v in circular_pairs(p) if j == k)


def fixed_points(p: ColoredPermutation) -> frozenset[int]:
    """Values fixed by ``p`` (uncolored and in place)."""
    return circular_successions(p, 0)


def is_derangement(p: ColoredPermutation) -> bool:
    return not fixed_points(p)


def _linear_pairs(word, colors) -> frozenset[tuple[int, int]]:
    """``(b - a, b)`` for letters ``b`` right after ``a`` with ``b > a`` and
    equal colors; ``colors[v]`` is the color of value ``v``."""
    return frozenset(
        (b - a, b) for a, b in zip(word, word[1:]) if b > a and colors[a] == colors[b]
    )


def linear_pairs(p: ColoredPermutation) -> frozenset[tuple[int, int]]:
    """``(k, v)`` for every k-linear succession of value ``v``."""
    return _linear_pairs(p.sigma, (0,) + p.colors)


def skew_linear_pairs(p: ColoredPermutation) -> frozenset[tuple[int, int]]:
    """Linear pairs of the word with an uncolored ``0`` in front."""
    return _linear_pairs((0,) + p.sigma, (0,) + p.colors)


def is_increasing_fixed(p: ColoredPermutation, m: int) -> bool:
    """First ``m`` letters uncolored and increasing, all fixed points within ``[m]``."""
    if not 0 <= m <= p.n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={p.n}")
    for i in range(m):
        if p.colors[p.sigma[i] - 1] != 0:
            return False
    if any(v > m for v in fixed_points(p)):
        return False
    return all(p.sigma[i - 1] < p.sigma[i] for i in range(1, m))


def is_isolated_fixed(p: ColoredPermutation, m: int) -> bool:
    """Values ``1..m`` uncolored, fixed points within ``[m]``, and no cycle
    meeting ``[m]`` twice."""
    if not 0 <= m <= p.n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={p.n}")
    for v in range(1, m + 1):
        if p.colors[v - 1] != 0:
            return False
    if any(v > m for v in fixed_points(p)):
        return False
    for cyc in sigma_cycles(p.sigma):
        if sum(1 for v in cyc if v <= m) > 1:
            return False
    return True
