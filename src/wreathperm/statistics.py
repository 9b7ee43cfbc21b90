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

from .core import ColoredPermutation, _ints, _within

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
    if type(k) is not int or k < 0:
        _ints(k=(k,))
        raise ValueError(f"circular successions need k >= 0, got {k}")
    return frozenset(v for j, v in circular_pairs(p) if j == k)


def fixed_points(p: ColoredPermutation, above: int = 0) -> frozenset[int]:
    """Values above ``above`` fixed by ``p`` (uncolored and in place): the
    0-circular successions above ``above``."""
    _within("above", above, 0, p.n)
    return frozenset(v for v in circular_successions(p, 0) if v > above)


def _has_fixed_point(p: ColoredPermutation, above: int = 0) -> bool:
    """Whether ``fixed_points(p, above)`` is non-empty, stopping at the first."""
    sigma, colors = p.sigma, p.colors
    for v in range(above + 1, len(sigma) + 1):
        if sigma[v - 1] == v and not colors[v - 1]:
            return True
    return False


def _prefix_returns(sigma, m: int) -> list[int]:
    """For each ``v <= m``, the first value ``<= m`` after ``v`` on its
    cycle of ``sigma``: the permutation ``sigma`` induces on ``[m]``."""
    out = []
    for x in sigma[:m]:
        while x > m:
            x = sigma[x - 1]
        out.append(x)
    return out


def is_derangement(p: ColoredPermutation) -> bool:
    return not _has_fixed_point(p)


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
    _within("m", m, 0, p.n)
    for i in range(m):
        if p.colors[p.sigma[i] - 1] != 0:
            return False
    if _has_fixed_point(p, m):
        return False
    return all(p.sigma[i - 1] < p.sigma[i] for i in range(1, m))


def is_isolated_fixed(p: ColoredPermutation, m: int) -> bool:
    """Values ``1..m`` uncolored, fixed points within ``[m]``, and no cycle
    meeting ``[m]`` twice: the first value ``<= m`` after each ``v <= m`` on
    its cycle is ``v`` itself."""
    sigma = p.sigma
    _within("m", m, 0, len(sigma))
    if any(p.colors[:m]) or _has_fixed_point(p, m):
        return False
    # nothing to walk at m = 0, where a sweep over every m mostly gets here
    return not m or _prefix_returns(sigma, m) == list(range(1, m + 1))
