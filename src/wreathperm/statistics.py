"""Succession statistics and membership predicates on colored permutations.

Three families of statistics, all counting "value lands k above" patterns:

* ``circular``: position ``i`` holds the uncolored value ``i + k`` (no
  wraparound; for ``k = 0`` these are the fixed points);
* ``linear`` (``k >= 1``): position ``i >= 2`` holds the letter of position
  ``i - 1`` shifted by ``k`` (equal colors, values ``k`` apart);
* ``skew linear`` (``k >= 1``): linear on the word with an uncolored ``0``
  in front, so the first letter counts when it is the uncolored value ``k``.

Succession sets store values, not positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import ColoredPermutation, sigma_cycles

CIRCULAR = "circular"
LINEAR = "linear"
SKEW_LINEAR = "skewLinear"

KINDS = (CIRCULAR, LINEAR, SKEW_LINEAR)


@dataclass(frozen=True, slots=True)
class SuccessionSet:
    """The set of values realizing one succession statistic."""

    kind: str
    k: int
    values: frozenset[int]

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.values)


def circular_successions(p: ColoredPermutation, k: int) -> SuccessionSet:
    """Values ``i + k`` appearing uncolored at position ``i``; ``k >= 0``."""
    if k < 0:
        raise ValueError(f"circular successions need k >= 0, got {k}")
    vals = frozenset(
        v
        for i, v in enumerate(p.sigma, start=1)
        if v == i + k and p.colors[v - 1] == 0
    )
    return SuccessionSet(CIRCULAR, k, vals)


def fixed_points(p: ColoredPermutation) -> frozenset[int]:
    """Values fixed by ``p`` (uncolored and in place)."""
    return circular_successions(p, 0).values


def is_derangement(p: ColoredPermutation) -> bool:
    return not fixed_points(p)


def _linear_values(word, colors, k: int) -> frozenset[int]:
    """Letters ``b`` right after ``a`` with ``b == a + k`` and equal colors;
    ``colors[v]`` is the color of value ``v``."""
    return frozenset(
        b for a, b in zip(word, word[1:]) if b == a + k and colors[a] == colors[b]
    )


def linear_successions(p: ColoredPermutation, k: int) -> SuccessionSet:
    """Values at positions ``i >= 2`` equal to the previous letter plus ``k``."""
    if k < 1:
        raise ValueError(f"linear successions are defined only for k >= 1, got {k}")
    return SuccessionSet(LINEAR, k, _linear_values(p.sigma, (0,) + p.colors, k))


def skew_linear_successions(p: ColoredPermutation, k: int) -> SuccessionSet:
    """Linear successions of the word with an uncolored ``0`` in front."""
    if k < 1:
        raise ValueError(f"skew linear successions are defined only for k >= 1, got {k}")
    colors = (0,) + p.colors
    return SuccessionSet(SKEW_LINEAR, k, _linear_values((0,) + p.sigma, colors, k))


def succession_set(p: ColoredPermutation, k: int, kind: str) -> SuccessionSet:
    if kind == CIRCULAR:
        return circular_successions(p, k)
    if kind == LINEAR:
        return linear_successions(p, k)
    if kind == SKEW_LINEAR:
        return skew_linear_successions(p, k)
    raise ValueError(f"unknown statistic kind {kind!r}")


def successions_bounded(p: ColoredPermutation, m: int, k: int) -> bool:
    """True iff every k-circular succession value is at most ``m``; needs ``k <= m``."""
    if not 0 <= k <= m <= p.n:
        raise ValueError(f"need 0 <= k <= m <= n, got k={k}, m={m}, n={p.n}")
    return all(v <= m for v in circular_successions(p, k).values)


def is_increasing_fixed(p: ColoredPermutation, m: int) -> bool:
    """First ``m`` letters uncolored and increasing, all fixed points within ``[m]``."""
    if not 0 <= m <= p.n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={p.n}")
    for i in range(m):
        if p.colors[p.sigma[i] - 1] != 0:
            return False
    if any(v > m for v in fixed_points(p)):
        return False
    for i in range(1, m):
        if not p.image(i) < p.image(i + 1):
            return False
    return True


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
