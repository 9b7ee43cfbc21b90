"""Colored permutation groups: symbols, group elements, cycle form, text I/O.

An element of the group on ``n`` letters with ``ell`` colors is a permutation
``sigma`` of ``{1..n}`` together with a color exponent in ``{0..ell-1}``
attached to every value.  Writing ``zeta`` for a primitive ``ell``-th root of
unity, the letter at position ``i`` is ``zeta^c * sigma(i)`` where ``c`` is
the color carried by the value ``sigma(i)``.  All types here are immutable.

Text formats (whitespace-separated tokens, 1-based values)::

    one-line:  "3 5^2 1^2 9"        token v^j means value v with color j
    cycles:    "(1^2 3)(2 5^2 6^1)" sign shown on a value is that value's color

In cycle form the image of a value ``a`` is read off the next letter in its
cycle: the value of that letter wearing that letter's own color.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed permutation text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ValueError):
    """A partial map was applied outside its stated domain."""


@dataclass(frozen=True, slots=True)
class ColoredSymbol:
    """A value with a color exponent: ``(v, j)`` stands for ``zeta^j * v``."""

    value: int
    color: int = 0

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"symbol value must be >= 1, got {self.value}")
        if self.color < 0:
            raise ValueError(f"color exponent must be >= 0, got {self.color}")

    def __str__(self) -> str:
        return f"{self.value}^{self.color}" if self.color else str(self.value)


@dataclass(frozen=True, slots=True)
class ColoredPermutation:
    """Element of the colored permutation group on ``[1..n]`` with ``ell`` colors.

    ``sigma[i-1]`` is the image of position ``i``; ``colors[v-1]`` is the
    color exponent carried by the *value* ``v``.  The one-line letter at
    position ``i`` is therefore ``ColoredSymbol(sigma[i-1], colors[sigma[i-1]-1])``.
    """

    ell: int
    sigma: tuple[int, ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.sigma, tuple):
            object.__setattr__(self, "sigma", tuple(self.sigma))
        if not isinstance(self.colors, tuple):
            object.__setattr__(self, "colors", tuple(self.colors))
        if self.ell < 1:
            raise ValueError(f"number of colors must be >= 1, got {self.ell}")
        n = len(self.sigma)
        if len(self.colors) != n:
            raise ValueError("sigma and colors must have equal length")
        seen = bytearray(n)
        for v in self.sigma:
            if not 1 <= v <= n or seen[v - 1]:
                raise ValueError(f"sigma is not a permutation of 1..{n}")
            seen[v - 1] = 1
        for c in self.colors:
            if not 0 <= c < self.ell:
                raise ValueError(f"color exponent {c} not in [0, {self.ell})")

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, ell: int, n: int) -> "ColoredPermutation":
        """The neutral element: sigma = (1..n), all colors 0."""
        if ell < 1:
            raise ValueError(f"number of colors must be >= 1, got {ell}")
        if n < 0:
            raise ValueError(f"size must be >= 0, got {n}")
        return cls(ell, tuple(range(1, n + 1)), (0,) * n)

    # -- elementary access ------------------------------------------------

    def image(self, i: int) -> ColoredSymbol:
        """One-line letter at position ``i`` (1-based)."""
        v = self.sigma[i - 1]
        return ColoredSymbol(v, self.colors[v - 1])

    def one_line(self) -> tuple[ColoredSymbol, ...]:
        return tuple(self.image(i) for i in range(1, self.n + 1))

    def sigma_inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, v in enumerate(self.sigma):
            inv[v - 1] = i + 1
        return tuple(inv)

    def apply(self, sym: ColoredSymbol) -> ColoredSymbol:
        """Act on a colored symbol: ``zeta^j i`` maps to ``zeta^j * image(i)``."""
        if not 1 <= sym.value <= self.n:
            raise ValueError(f"symbol value {sym.value} not in [1, {self.n}]")
        v = self.sigma[sym.value - 1]
        return ColoredSymbol(v, (sym.color + self.colors[v - 1]) % self.ell)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "ColoredPermutation") -> "ColoredPermutation":
        """Composition acting as ``self`` after ``other`` on colored symbols."""
        if not isinstance(other, ColoredPermutation):
            return NotImplemented
        if self.ell != other.ell or self.n != other.n:
            raise ValueError("cannot compose elements of different groups")
        inv = self.sigma_inverse()
        sigma = tuple(self.sigma[v - 1] for v in other.sigma)
        colors = tuple(
            (self.colors[v] + other.colors[inv[v] - 1]) % self.ell
            for v in range(self.n)
        )
        return ColoredPermutation(self.ell, sigma, colors)

    def inverse(self) -> "ColoredPermutation":
        inv = self.sigma_inverse()
        colors = tuple(
            (-self.colors[self.sigma[v] - 1]) % self.ell for v in range(self.n)
        )
        return ColoredPermutation(self.ell, inv, colors)

    # -- cycle form ---------------------------------------------------------

    def cycles(self) -> tuple[tuple[ColoredSymbol, ...], ...]:
        """Canonical cycle factorization.

        Each cycle is rotated so its maximum value comes last, and cycles are
        listed in decreasing order of their maxima.  Every letter carries the
        color of its own value; the image of a value is the next letter in
        its cycle (value and that letter's color).
        """
        return tuple(
            tuple(ColoredSymbol(v, self.colors[v - 1]) for v in cyc)
            for cyc in canonical_cycles(self.sigma)
        )

    @classmethod
    def from_cycles(
        cls,
        cycles: Iterable[Iterable[ColoredSymbol]],
        ell: int,
        n: int,
    ) -> "ColoredPermutation":
        """Rebuild an element from cycles of colored letters.

        The cycle supports must partition ``[1..n]``; each letter fixes the
        color of its value and the successor of the previous value.
        """
        if ell < 1:
            raise ValueError(f"number of colors must be >= 1, got {ell}")
        sigma = [0] * n
        colors = [0] * n
        seen = [False] * n
        for cyc in cycles:
            letters = list(cyc)
            if not letters:
                raise ValueError("invalid cycles: empty cycle")
            for sym in letters:
                v = sym.value
                if not 1 <= v <= n:
                    raise ValueError(f"invalid cycles: value {v} not in [1, {n}]")
                if seen[v - 1]:
                    raise ValueError(f"invalid cycles: value {v} repeated")
                seen[v - 1] = True
                if not 0 <= sym.color < ell:
                    raise ValueError(f"invalid cycles: color {sym.color} not in [0, {ell})")
                colors[v - 1] = sym.color
            for a, b in zip(letters, letters[1:] + letters[:1]):
                sigma[a.value - 1] = b.value
        if not all(seen):
            missing = [v + 1 for v, s in enumerate(seen) if not s]
            raise ValueError(f"invalid cycles: values {missing} missing")
        return cls(ell, tuple(sigma), tuple(colors))

    def __str__(self) -> str:
        return format_one_line(self)


def sigma_cycles(sigma: Sequence[int]) -> list[list[int]]:
    """Cycles of a plain permutation given in one-line form (1-based values)."""
    n = len(sigma)
    seen = [False] * n
    cycles = []
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cyc = []
        v = start
        while not seen[v - 1]:
            seen[v - 1] = True
            cyc.append(v)
            v = sigma[v - 1]
        cycles.append(cyc)
    return cycles


def canonical_cycles(sigma: Sequence[int]) -> list[list[int]]:
    """Cycles of ``sigma``, each rotated so its maximum comes last, listed in
    decreasing order of their maxima."""
    out = []
    for cyc in sigma_cycles(sigma):
        t = cyc.index(max(cyc))
        out.append(cyc[t + 1 :] + cyc[: t + 1])
    out.sort(key=lambda cyc: -cyc[-1])
    return out


# -- word rotations ---------------------------------------------------------


def rotate_right(p: ColoredPermutation) -> ColoredPermutation:
    """Rotate the one-line word right: ``w1..wn`` becomes ``wn w1..w(n-1)``."""
    if p.n == 0:
        raise DomainError("cannot rotate the empty permutation")
    sigma = (p.sigma[-1],) + p.sigma[:-1]
    return ColoredPermutation(p.ell, sigma, p.colors)


def rotate_left(p: ColoredPermutation) -> ColoredPermutation:
    """Rotate the one-line word left: ``w1..wn`` becomes ``w2..wn w1``."""
    if p.n == 0:
        raise DomainError("cannot rotate the empty permutation")
    sigma = p.sigma[1:] + (p.sigma[0],)
    return ColoredPermutation(p.ell, sigma, p.colors)


# -- text I/O -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"(\d+)(?:\^(\d+))?$")


def _parse_token(tok: str, ell: int, pos: int) -> ColoredSymbol:
    m = _TOKEN_RE.match(tok)
    if m is None:
        raise ParseError(f"bad token {tok!r}", pos)
    try:
        value = int(m.group(1))
        color = None if m.group(2) is None else int(m.group(2))
    except ValueError:  # more digits than int() converts
        message = f"number too long in a token of {len(tok)} characters"
        raise ParseError(message, pos) from None
    if value < 1:
        raise ParseError(f"value must be >= 1, got {value}", pos)
    if color is not None and not 1 <= color <= ell - 1:
        raise ParseError(
            f"color exponent {color} not in [1, {ell - 1}] for {ell} colors", pos
        )
    return ColoredSymbol(value, color or 0)


def _word_tokens(text: str) -> Iterator[tuple[str, int]]:
    for m in re.finditer(r"\S+", text):
        yield m.group(), m.start()


def parse_one_line(text: str, ell: int, n: int | None = None) -> ColoredPermutation:
    """Parse a one-line word; ``n`` defaults to the number of tokens."""
    letters = [(_parse_token(tok, ell, pos), pos) for tok, pos in _word_tokens(text)]
    n = len(letters) if n is None else n
    _check_values(letters, n, text)
    colors = [0] * n
    for sym, _ in letters:
        colors[sym.value - 1] = sym.color
    return ColoredPermutation(ell, tuple(sym.value for sym, _ in letters), tuple(colors))


def _check_values(letters: Sequence[tuple[ColoredSymbol, int]], n: int, text: str) -> None:
    """Exactly ``n`` letters, each value in ``[1, n]`` once.  Errors point at the
    token (the first surplus one), or at the end of ``text`` if letters are
    missing; the count comes first, so a huge ``n`` allocates nothing."""
    if n != len(letters):
        at = letters[n][1] if 0 <= n < len(letters) else len(text)
        raise ParseError(f"expected {n} tokens, found {len(letters)}", at)
    seen = [False] * n
    for sym, pos in letters:
        if not 1 <= sym.value <= n:
            raise ParseError(f"value {sym.value} not in [1, {n}]", pos)
        if seen[sym.value - 1]:
            raise ParseError(f"value {sym.value} repeated", pos)
        seen[sym.value - 1] = True


def format_one_line(p: ColoredPermutation) -> str:
    return " ".join(str(sym) for sym in p.one_line())


_CYCLES_RE = re.compile(r"\(([^()]*)\)")
_STRAY_RE = re.compile(r"\S")


def parse_cycles(text: str, ell: int, n: int | None = None) -> ColoredPermutation:
    """Parse a product of cycles like ``(1^2 3)(2 5^2 6^1)(7^1)``."""
    pieces = []
    pos = 0
    for m in _CYCLES_RE.finditer(text):
        if stray := _STRAY_RE.search(text, pos, m.start()):
            raise ParseError("unexpected text between cycles", stray.start())
        pieces.append((m.group(1), m.start() + 1))
        pos = m.end()
    if stray := _STRAY_RE.search(text, pos):
        if pieces or stray.group() == "(":  # an unclosed cycle, not a missing one
            raise ParseError("unexpected trailing text", stray.start())
        raise ParseError("expected '(' to open a cycle", stray.start())
    cycles = []
    letters = []
    for body, offset in pieces:
        cycle = [
            (_parse_token(tok, ell, offset + rel), offset + rel)
            for tok, rel in _word_tokens(body)
        ]
        if not cycle:
            raise ParseError("empty cycle", offset)
        letters.extend(cycle)
        cycles.append([sym for sym, _ in cycle])
    n = len(letters) if n is None else n
    _check_values(letters, n, text)
    return ColoredPermutation.from_cycles(cycles, ell, n)


def format_cycles(p: ColoredPermutation) -> str:
    return "".join(
        "(" + " ".join(str(sym) for sym in cyc) + ")" for cyc in p.cycles()
    )
