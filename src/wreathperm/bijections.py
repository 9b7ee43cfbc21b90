"""Explicit bijections between succession-constrained families.

Every map here is a partial function with an explicit inverse; calling one
outside its stated domain raises :class:`~wreathperm.core.DomainError`.  The
pairs, with the counting identity each one witnesses (``g``/``d`` are the
difference tables of :mod:`wreathperm.tables`, sets as in
:mod:`wreathperm.statistics`):

* ``remove_max_succession`` / ``insert_max_succession``: elements whose
  largest k-circular succession is exactly ``m+1`` correspond to elements one
  size down with successions bounded by ``m`` (the difference-table step).
* ``foata`` / ``foata_inverse``: the classical cycles-to-word map on plain
  permutations, arranged so k-circular and k-linear successions swap.
* ``colored_foata`` / ``colored_foata_inverse``: the colored extension, with
  colors propagated multiplicatively along each cycle from its largest value;
  transports k-circular to k-linear successions for every k at once.
* ``succession_decompose`` / ``succession_compose``: peel off all k-circular
  successions, leaving a succession-free core plus the set of positions
  (shows the count with ``m`` successions is ``C(n-k, m) * g[n-m][k]``).
* ``prefix_action``: the group on ``[m]`` acting on permutations whose fixed
  points lie in ``[m]`` by permuting the first ``m`` letters.
* ``isolated_to_increasing`` / ``increasing_to_isolated``: the two
  interpretations of the ``d`` table entry at ``(n, m)``.
* ``class_signature`` / ``signature_insert`` / ``class_representative``:
  the equivalence classes of the prefix action, each of size ``ell^m * m!``.
* ``isolate_forward`` / ``isolate_inverse``:
  ``d[n][m-1] + d[n-1][m-1] = ell*m*d[n][m]``.
* ``derangement_insert`` / ``derangement_remove``:
  ``ell*n*d[n-1][0] = d[n][0] - (-1)^n``.
* ``isolated_insert`` / ``isolated_remove``:
  ``d[n][m] + d[n-2][m-1] = ell*n*d[n-1][m]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    ColoredPermutation,
    ColoredSymbol,
    DomainError,
    canonical_cycles,
)
from .statistics import (
    circular_successions,
    fixed_points,
    is_derangement,
    is_increasing_fixed,
    is_isolated_fixed,
)

# -- shared helpers -----------------------------------------------------------


def _from_word(symbols: Sequence[ColoredSymbol], ell: int) -> ColoredPermutation:
    n = len(symbols)
    sigma = [0] * n
    colors = [0] * n
    for i, sym in enumerate(symbols):
        sigma[i] = sym.value
        colors[sym.value - 1] = sym.color
    return ColoredPermutation(ell, tuple(sigma), tuple(colors))


def _with_letter(p: ColoredPermutation, i: int, v: int) -> ColoredPermutation:
    """Put the uncolored value ``v`` at position ``i``; values ``>= v`` move up."""
    sigma = [x + (x >= v) for x in p.sigma]
    sigma.insert(i - 1, v)
    colors = p.colors[: v - 1] + (0,) + p.colors[v - 1 :]
    return ColoredPermutation(p.ell, tuple(sigma), colors)


def _without_letter(p: ColoredPermutation, i: int) -> ColoredPermutation:
    """Delete position ``i``; values larger than the deleted one move down."""
    v = p.sigma[i - 1]
    sigma = tuple(x - (x > v) for x in p.sigma[: i - 1] + p.sigma[i:])
    return ColoredPermutation(p.ell, sigma, p.colors[: v - 1] + p.colors[v:])


def _swap(sigma: list[int], a: int, b: int) -> None:
    """Exchange the images of ``a`` and ``b``.

    In one cycle, this cuts it in two: ``a`` keeps the arc after ``b`` and
    ``b`` the arc after ``a``.  In two cycles, it joins them.
    """
    sigma[a - 1], sigma[b - 1] = sigma[b - 1], sigma[a - 1]


def _without_max(ell: int, sigma: list[int], colors: list[int]) -> ColoredPermutation:
    """Cut the largest value out of its cycle and drop it."""
    n = len(sigma)
    _swap(sigma, sigma.index(n) + 1, n)
    return ColoredPermutation(ell, tuple(sigma[:-1]), tuple(colors[:-1]))


def _pair_with_max(sigma: list[int], colors: list[int], x: int) -> None:
    """Detach ``x`` into the 2-cycle ``(n x)`` with the fixed largest value
    ``n``, which takes the color of ``x``; ``x`` loses its color."""
    _swap(sigma, sigma.index(x) + 1, x)
    _swap(sigma, x, len(sigma))
    colors[-1], colors[x - 1] = colors[x - 1], 0


# -- largest-succession removal ------------------------------------------------


def remove_max_succession(
    p: ColoredPermutation, m: int, k: int
) -> ColoredPermutation:
    """Delete the value ``m+1`` sitting as the largest k-circular succession.

    Requires the largest k-circular succession of ``p`` to be exactly
    ``m+1``; the value is removed from position ``m+1-k`` and every larger
    value shifts down by one.  The result, one size smaller, has all its
    k-circular successions bounded by ``m``.
    """
    if not 0 <= k <= m:
        raise DomainError(f"need 0 <= k <= m, got k={k}, m={m}")
    if m + 1 > p.n:
        raise DomainError(f"need m + 1 <= n, got m={m}, n={p.n}")
    succ = circular_successions(p, k)
    if not succ or max(succ) != m + 1:
        raise DomainError(
            f"largest {k}-circular succession must be exactly {m + 1}"
        )
    return _without_letter(p, m + 1 - k)


def insert_max_succession(
    p: ColoredPermutation, m: int, k: int
) -> ColoredPermutation:
    """Insert ``m+1`` at position ``m+1-k``, inverting ``remove_max_succession``.

    Requires every k-circular succession of ``p`` to be bounded by ``m`` and
    ``m <= n``; values above ``m`` shift up by one to make room.
    """
    if not 0 <= k <= m:
        raise DomainError(f"need 0 <= k <= m, got k={k}, m={m}")
    if m > p.n:
        raise DomainError(f"need m <= n, got m={m}, n={p.n}")
    if any(v > m for v in circular_successions(p, k)):
        raise DomainError(f"all {k}-circular successions must lie in [{m}]")
    return _with_letter(p, m + 1 - k, m + 1)


# -- cycles-to-word maps --------------------------------------------------------


def _check_permutation(word: Sequence[int]) -> None:
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"not a permutation of 1..{len(word)}: {word}")


def foata(sigma: Sequence[int]) -> tuple[int, ...]:
    """Cycles-to-word map on plain permutations.

    Write each cycle with its maximum last, list cycles by decreasing maxima,
    erase the parentheses.  Swaps k-circular with k-linear successions.
    """
    _check_permutation(sigma)
    return tuple(v for seg in canonical_cycles(sigma) for v in seg)


def foata_inverse(word: Sequence[int]) -> tuple[int, ...]:
    """Cut the word after each right-to-left maximum; each block is a cycle."""
    _check_permutation(word)
    n = len(word)
    sigma = [0] * n
    block: list[int] = []
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(word[i], suffix_max[i + 1])
    for i, v in enumerate(word):
        block.append(v)
        if v == suffix_max[i]:
            for a, b in zip(block, block[1:] + block[:1]):
                sigma[a - 1] = b
            block = []
    return tuple(sigma)


def colored_foata(p: ColoredPermutation) -> ColoredPermutation:
    """Colored cycles-to-word map.

    The underlying word is ``foata`` of the underlying permutation; along
    each cycle, read from just after its maximum, the first letter keeps its
    color and each later letter wears the running product (sum of exponents)
    of the colors seen so far.  Transports k-circular to k-linear successions
    for every ``k >= 1`` simultaneously.
    """
    colors = list(p.colors)
    word = []
    for seg in canonical_cycles(p.sigma):
        for a, b in zip(seg, seg[1:]):
            colors[b - 1] = (colors[a - 1] + colors[b - 1]) % p.ell
        word.extend(seg)
    return ColoredPermutation(p.ell, tuple(word), tuple(colors))


def colored_foata_inverse(p2: ColoredPermutation) -> ColoredPermutation:
    """Invert :func:`colored_foata`: word back to cycles, color products undone."""
    sigma = foata_inverse(p2.sigma)
    colors = list(p2.colors)
    for seg in canonical_cycles(sigma):
        for a, b in zip(seg, seg[1:]):
            colors[b - 1] = (p2.colors[b - 1] - p2.colors[a - 1]) % p2.ell
    return ColoredPermutation(p2.ell, sigma, tuple(colors))


# -- succession peeling ----------------------------------------------------------


@dataclass(frozen=True)
class SuccessionDecomposition:
    """Positions of the k-circular successions plus the succession-free core."""

    positions: tuple[int, ...]
    reduced: ColoredPermutation


def succession_decompose(p: ColoredPermutation, k: int) -> SuccessionDecomposition:
    """Remove every k-circular succession, largest position first."""
    if not 0 <= k <= p.n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={p.n}")
    positions = tuple(
        i
        for i, v in enumerate(p.sigma, start=1)
        if v == i + k and p.colors[v - 1] == 0
    )
    reduced = p
    for i in reversed(positions):
        reduced = _without_letter(reduced, i)
    return SuccessionDecomposition(positions, reduced)


def succession_compose(
    positions: Sequence[int], reduced: ColoredPermutation, k: int
) -> ColoredPermutation:
    """Re-insert successions at the given positions, smallest first."""
    n = reduced.n + len(positions)
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    pos = list(positions)
    if pos != sorted(set(pos)) or (pos and not 1 <= pos[0] <= pos[-1] <= n - k):
        raise DomainError(f"positions must be distinct, increasing, within [1, {n - k}]")
    if k <= reduced.n and circular_successions(reduced, k):
        raise DomainError("the core must have no k-circular succession")
    for i in pos:
        reduced = _with_letter(reduced, i, i + k)
    return reduced


# -- prefix action and its classes ------------------------------------------------


def prefix_action(tau: ColoredPermutation, p: ColoredPermutation) -> ColoredPermutation:
    """Act by ``tau`` (an element on ``[m]``) on the first ``m`` letters of ``p``.

    Position ``i <= m`` of the result holds ``p`` applied to the symbol
    ``tau^{-1}(i)``; later letters are untouched.  Defined for ``p`` whose
    fixed points lie in ``[m]``, and stays inside that family.
    """
    m = tau.n
    if tau.ell != p.ell:
        raise DomainError("color counts differ")
    if m > p.n:
        raise DomainError(f"acting group size {m} exceeds n={p.n}")
    if any(v > m for v in fixed_points(p)):
        raise DomainError(f"fixed points must lie in [{m}]")
    tinv = tau.inverse()
    word = [p.apply(tinv.image(i)) for i in range(1, m + 1)]
    word.extend(p.image(i) for i in range(m + 1, p.n + 1))
    return _from_word(word, p.ell)


@dataclass(frozen=True)
class ClassSignature:
    """Invariant of the prefix-action classes.

    ``words[i-1]`` is the run of letters strictly between ``i`` and the next
    value ``<= m`` in the cycle of ``i``; ``omega`` holds the cycles that
    avoid ``[m]`` entirely, in canonical form.
    """

    ell: int
    n: int
    m: int
    words: tuple[tuple[ColoredSymbol, ...], ...]
    omega: tuple[tuple[ColoredSymbol, ...], ...]


def _check_m(p: ColoredPermutation, m: int) -> None:
    if not 0 <= m <= p.n:
        raise DomainError(f"need 0 <= m <= n, got m={m}, n={p.n}")


def class_signature(p: ColoredPermutation, m: int) -> ClassSignature:
    _check_m(p, m)
    if any(v > m for v in fixed_points(p)):
        raise DomainError(f"fixed points must lie in [{m}]")
    words = []
    for i in range(1, m + 1):
        w = []
        x = p.sigma[i - 1]
        while x > m:
            w.append(ColoredSymbol(x, p.colors[x - 1]))
            x = p.sigma[x - 1]
        words.append(tuple(w))
    omega = tuple(
        cyc for cyc in p.cycles() if all(sym.value > m for sym in cyc)
    )
    return ClassSignature(p.ell, p.n, m, tuple(words), omega)


def class_core(p: ColoredPermutation, m: int) -> ColoredPermutation:
    """The element on ``[m]`` left after erasing the signature's words and cycles."""
    _check_m(p, m)
    sigma = []
    for i in range(1, m + 1):
        x = p.sigma[i - 1]
        while x > m:
            x = p.sigma[x - 1]
        sigma.append(x)
    return ColoredPermutation(p.ell, tuple(sigma), p.colors[:m])


def signature_insert(tau: ColoredPermutation, sig: ClassSignature) -> ColoredPermutation:
    """Graft the signature's words onto ``tau``'s cycles and append ``omega``."""
    if tau.ell != sig.ell or tau.n != sig.m:
        raise DomainError(f"need an element on [{sig.m}] with {sig.ell} colors")
    cycles: list[list[ColoredSymbol]] = []
    for cyc in tau.cycles():
        letters: list[ColoredSymbol] = []
        for sym in cyc:
            letters.append(sym)
            letters.extend(sig.words[sym.value - 1])
        cycles.append(letters)
    cycles.extend(list(c) for c in sig.omega)
    return ColoredPermutation.from_cycles(cycles, sig.ell, sig.n)


def class_representative(p: ColoredPermutation, m: int) -> ColoredPermutation:
    """Canonical member of ``p``'s prefix-action class (identity core)."""
    sig = class_signature(p, m)
    return signature_insert(ColoredPermutation.identity(p.ell, m), sig)


# -- isolated <-> increasing ----------------------------------------------------


def isolated_to_increasing(p: ColoredPermutation, m: int) -> ColoredPermutation:
    """Sort the first ``m`` letters of an m-isolated-fixed element.

    The first ``m`` values of the word are rearranged increasingly, the tail
    is untouched, and for each ``i <= m`` the colors of ``i`` and of its old
    image swap (both swaps land on color 0 where required).  The result is
    m-increasing-fixed.
    """
    _check_m(p, m)
    if not is_isolated_fixed(p, m):
        raise DomainError(f"input is not {m}-isolated-fixed")
    sigma = sorted(p.sigma[:m]) + list(p.sigma[m:])
    colors = list(p.colors)
    for i in range(m):
        colors[p.sigma[i] - 1] = 0
    for i in range(m):
        colors[i] = p.colors[p.sigma[i] - 1]
    return ColoredPermutation(p.ell, tuple(sigma), tuple(colors))


def increasing_to_isolated(p2: ColoredPermutation, m: int) -> ColoredPermutation:
    """Invert :func:`isolated_to_increasing`.

    The tail is kept.  For each ``i <= m``, walking backwards from ``i``
    reaches a value of the sorted prefix first: the old image of ``i``, which
    takes the color ``i`` now wears.  Then ``1..m`` lose their colors.
    """
    _check_m(p2, m)
    if not is_increasing_fixed(p2, m):
        raise DomainError(f"input is not {m}-increasing-fixed")
    prefix = set(p2.sigma[:m])
    inv = p2.sigma_inverse()
    sigma, colors = list(p2.sigma), list(p2.colors)
    for i in range(1, m + 1):
        x = i
        while x not in prefix:
            x = inv[x - 1]
        sigma[i - 1] = x
        colors[x - 1] = p2.colors[i - 1]
    colors[:m] = [0] * m
    return ColoredPermutation(p2.ell, tuple(sigma), tuple(colors))


# -- the three counting recurrences, realized bijectively --------------------------


def isolate_forward(
    p: ColoredPermutation, m: int, n: int
) -> tuple[int, int, ColoredPermutation]:
    """Make ``m`` isolated: map an (m-1)-isolated-fixed element of size
    ``n-1`` or ``n`` to ``(color, anchor, q)`` with ``q`` m-isolated-fixed of
    size ``n``.

    Size ``n-1`` inputs shift their values at or above ``m`` up and gain the
    fixed point ``m`` (color 0, anchor ``m``).  Size ``n`` inputs cut the
    cycle through ``m`` at the smallest value ``alpha`` of that cycle: the
    arc from ``m`` up to ``alpha`` becomes its own cycle, ``m`` loses its
    color (returned as ``color``), and ``alpha`` is the anchor.  The cut is
    one exchange of the images of the predecessors of ``m`` and ``alpha``.
    """
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    if p.n == n - 1:
        if not is_isolated_fixed(p, m - 1):
            raise DomainError(f"input is not {m - 1}-isolated-fixed")
        return 0, m, _with_letter(p, m, m)
    if p.n != n:
        raise DomainError(f"input size must be {n - 1} or {n}, got {p.n}")
    if not is_isolated_fixed(p, m - 1):
        raise DomainError(f"input is not {m - 1}-isolated-fixed")
    sigma, colors = list(p.sigma), list(p.colors)
    alpha, x = m, sigma[m - 1]
    while x != m:
        alpha, x = min(alpha, x), sigma[x - 1]
    eps, colors[m - 1] = colors[m - 1], 0
    _swap(sigma, sigma.index(m) + 1, sigma.index(alpha) + 1)
    return eps, alpha, ColoredPermutation(p.ell, tuple(sigma), tuple(colors))


def isolate_inverse(
    eps: int, alpha: int, p2: ColoredPermutation, m: int
) -> ColoredPermutation:
    """Invert :func:`isolate_forward` given the returned ``(color, anchor)``.

    The same exchange joins the cycle of ``m`` back in just before ``alpha``.
    """
    n = p2.n
    if not 1 <= m <= n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    if not 1 <= alpha <= m:
        raise DomainError(f"anchor must lie in [1, {m}], got {alpha}")
    if not 0 <= eps < p2.ell:
        raise DomainError(f"color must lie in [0, {p2.ell}), got {eps}")
    if not is_isolated_fixed(p2, m):
        raise DomainError(f"image is not {m}-isolated-fixed")
    if alpha == m and eps == 0 and p2.sigma[m - 1] == m:
        return _without_letter(p2, m)
    sigma, colors = list(p2.sigma), list(p2.colors)
    colors[m - 1] = eps
    _swap(sigma, sigma.index(alpha) + 1, sigma.index(m) + 1)
    return ColoredPermutation(p2.ell, tuple(sigma), tuple(colors))


def _first_free_pair(p: ColoredPermutation) -> int:
    """Smallest odd ``t`` such that ``(t, t+1)`` is not an uncolored 2-cycle."""
    t = 1
    while (
        t + 1 <= p.n
        and p.sigma[t - 1] == t + 1
        and p.sigma[t] == t
        and p.colors[t - 1] == 0
        and p.colors[t] == 0
    ):
        t += 2
    if t > p.n:
        # Only the all-2-cycles derangement gets here: as tau's one excluded
        # input (color 0, anchor n, n odd) and as its one excluded image (n even).
        raise DomainError(
            "excluded: the all-2-cycles derangement, as an image or with color 0 at anchor n"
        )
    return t


def derangement_insert(
    eps: int, k: int, p: ColoredPermutation
) -> ColoredPermutation:
    """Insert the new largest value ``n = p.n + 1`` into a derangement.

    For anchors ``k < n`` the letter ``n`` with color ``eps`` slots in right
    after ``k``; for ``k = n`` with ``eps != 0`` it becomes its own colored
    cycle.  For ``k = n`` with color 0 the slack is absorbed at the first
    adjacent pair ``(t, t+1)`` that is not a plain 2-cycle, by a case split
    on the color and cycle of ``t``.  One input is excluded when ``n`` is
    odd: color 0, anchor ``n``, on the all-2-cycles derangement.
    """
    n = p.n + 1
    if not 0 <= eps < p.ell:
        raise DomainError(f"color must lie in [0, {p.ell}), got {eps}")
    if not 1 <= k <= n:
        raise DomainError(f"anchor must lie in [1, {n}], got {k}")
    if not is_derangement(p):
        raise DomainError("input must be a derangement")
    sigma, colors = list(p.sigma) + [n], list(p.colors) + [eps]
    if k < n:
        _swap(sigma, k, n)
    elif eps == 0:
        t = _first_free_pair(p)
        b = p.sigma[t - 1]
        if p.colors[t - 1] == 0 and b == t + 1:
            _pair_with_max(sigma, colors, t)
        elif p.colors[t - 1] == 0 and p.sigma[b - 1] == t:
            # (t b) is a 2-cycle: b pairs with n, the freed t goes before t+1
            _pair_with_max(sigma, colors, b)
            _swap(sigma, sigma.index(t + 1) + 1, t)
        else:
            # A colored 1-cycle t is its own predecessor, so it lands here too.
            _pair_with_max(sigma, colors, sigma.index(t) + 1)
    return ColoredPermutation(p.ell, tuple(sigma), tuple(colors))


def derangement_remove(
    p2: ColoredPermutation,
) -> tuple[int, int, ColoredPermutation]:
    """Invert :func:`derangement_insert`: recover ``(color, anchor, smaller)``.

    Excluded image when ``n`` is even: the all-2-cycles derangement.
    """
    n = p2.n
    if n < 1:
        raise DomainError("need n >= 1")
    if not is_derangement(p2):
        raise DomainError("image must be a derangement")
    sigma, colors = list(p2.sigma), list(p2.colors)
    rho = colors[n - 1]
    b = sigma[n - 1]
    if b == n or sigma[b - 1] != n or colors[b - 1] != 0:
        return rho, sigma.index(n) + 1, _without_max(p2.ell, sigma, colors)
    # n sits in the 2-cycle (n b) with b uncolored.
    t = _first_free_pair(p2)
    u = t + 1
    if b == t and rho == 0:
        _swap(sigma, sigma.index(u) + 1, t)  # t goes back before u
    elif b == t:
        colors[t - 1] = rho
    elif p2.colors[t - 1] == 0 and p2.sigma[t - 1] == u:
        # t leaves its cycle and takes the place of n next to b
        _swap(sigma, sigma.index(t) + 1, t)
        _swap(sigma, b, t)
        colors[b - 1] = rho
    else:
        # Reached both when t's successor is not u and when t is colored; a
        # colored t can sit right before u without (t, u) being a free pair,
        # and such images must re-insert the displaced letter before t.
        _swap(sigma, sigma.index(t) + 1, b)
        colors[b - 1] = rho
    return 0, n, _without_max(p2.ell, sigma, colors)


def isolated_insert(
    rho: int, alpha: int, p: ColoredPermutation, m: int
) -> ColoredPermutation:
    """Insert the new largest value into an m-isolated-fixed element.

    From ``(color, anchor, p)`` with ``p`` of size ``n-1``: anchors below
    ``n`` splice the colored letter ``n`` in just before the anchor; anchor
    ``n`` with a color makes ``n`` a colored 1-cycle; anchor ``n`` with color
    0 either drops a fixed 1 and shifts everything down (two sizes smaller)
    or detaches the letter after 1 into a 2-cycle with ``n``.
    """
    n = p.n + 1
    if not 1 <= m <= n - 1:
        raise DomainError(f"need 1 <= m <= n - 1, got m={m}, n={n}")
    if not 0 <= rho < p.ell:
        raise DomainError(f"color must lie in [0, {p.ell}), got {rho}")
    if not 1 <= alpha <= n:
        raise DomainError(f"anchor must lie in [1, {n}], got {alpha}")
    if not is_isolated_fixed(p, m):
        raise DomainError(f"input is not {m}-isolated-fixed")
    if alpha == n and rho == 0 and p.sigma[0] == 1:
        return _without_letter(p, 1)
    sigma, colors = list(p.sigma) + [n], list(p.colors) + [rho]
    if alpha < n:
        _swap(sigma, sigma.index(alpha) + 1, n)
    elif rho == 0:
        _pair_with_max(sigma, colors, sigma[0])
    return ColoredPermutation(p.ell, tuple(sigma), tuple(colors))


def isolated_remove(
    p2: ColoredPermutation, m: int, n: int
) -> tuple[int, int, ColoredPermutation]:
    """Invert :func:`isolated_insert` for images of size ``n`` or ``n-2``."""
    if n < 2 or not 1 <= m <= n - 1:
        raise DomainError(f"need n >= 2 and 1 <= m <= n - 1, got m={m}, n={n}")
    if p2.n == n - 2:
        if not is_isolated_fixed(p2, m - 1):
            raise DomainError(f"image is not {m - 1}-isolated-fixed")
        return 0, n, _with_letter(p2, 1, 1)
    if p2.n != n:
        raise DomainError(f"image size must be {n} or {n - 2}, got {p2.n}")
    if not is_isolated_fixed(p2, m):
        raise DomainError(f"image is not {m}-isolated-fixed")
    sigma, colors = list(p2.sigma), list(p2.colors)
    b, rho = sigma[n - 1], colors[n - 1]
    if m < b < n and sigma[b - 1] == n and colors[b - 1] == 0:
        _swap(sigma, 1, b)  # b goes back right after 1
        colors[b - 1] = rho
        return 0, n, _without_max(p2.ell, sigma, colors)
    return rho, b, _without_max(p2.ell, sigma, colors)
