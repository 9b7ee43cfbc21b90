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
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed permutation text; ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(ValueError):
    """A partial map was applied outside its stated domain."""


def _ints(**fields) -> None:
    """Refuse a field, or a member of a tuple field, that is not an int
    itself (a float, inexact past ``2**53``, a bool or a str), naming it."""
    for name, x in fields.items():
        for y in x if type(x) is tuple else (x,):
            if type(y) is not int:
                raise TypeError(f"{name}: {y!r} is not an int")


def _group(ell, **sizes) -> None:
    """The group rule of every layer: ``_ints``, at least one color, no negative size."""
    _ints(ell=ell, **sizes)
    if ell < 1:
        raise ValueError(f"number of colors must be >= 1, got {ell}")
    for name, x in sizes.items():
        if x < 0:
            raise ValueError(f"{'size' if name == 'n' else name} must be >= 0, got {x}")


def _within(name: str, x, lo: int, hi: int) -> None:
    """The parameter rule of every map and predicate: ``_ints``, then ``lo <= x <= hi``."""
    if type(x) is not int or not lo <= x <= hi:
        _ints(**{name: (x,)})  # (x,) names a tuple x too
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {x}")


class _Value:
    """An immutable value: its fields are the subclass's ``__slots__``, set
    once by its validating ``__init__`` and returned in that order by its
    ``_fields()``.  Values are equal when their types and fields are, hash as
    the tuple of their fields, print in the dataclass format, and pickle or
    copy through ``__init__``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class ColoredSymbol(_Value):
    """A value with a color exponent: ``(v, j)`` stands for ``zeta^j * v``."""

    __slots__ = ("value", "color")

    def __init__(self, value: int, color: int = 0):
        if type(value) is not int or type(color) is not int:  # (x,) names a tuple x too
            _ints(**{"symbol value": (value,), "symbol color": (color,)})
        if value < 1:
            raise ValueError(f"symbol value must be >= 1, got {value}")
        if color < 0:
            raise ValueError(f"color exponent must be >= 0, got {color}")
        _set_value(self, value)
        _set_color(self, color)

    def _fields(self) -> tuple[int, int]:
        return self.value, self.color

    def __str__(self) -> str:
        return f"{self.value}^{self.color}" if self.color else str(self.value)


# The slots' own setters: they pass by the refusing __setattr__, faster than
# object.__setattr__ with a field name.
_set_value, _set_color = ColoredSymbol.value.__set__, ColoredSymbol.color.__set__


class ColoredPermutation(_Value):
    """Element of the colored permutation group on ``[1..n]`` with ``ell`` colors.

    ``sigma[i-1]`` is the image of position ``i``; ``colors[v-1]`` is the
    color exponent carried by the *value* ``v``.  The one-line letter at
    position ``i`` is therefore ``ColoredSymbol(sigma[i-1], colors[sigma[i-1]-1])``.
    """

    __slots__ = ("ell", "sigma", "colors")

    def __init__(self, ell: int, sigma: Sequence[int], colors: Sequence[int]):
        sigma, colors = tuple(sigma), tuple(colors)
        # one pass in C over every field; _ints only names the first that fails
        if type(ell) is not int or not {int}.issuperset(map(type, sigma + colors)):
            _ints(ell=(ell,), sigma=sigma, colors=colors)  # (ell,) names a tuple ell
        if ell < 1:
            _group(ell)
        n = len(sigma)
        if len(colors) != n:
            raise ValueError("sigma and colors must have equal length")
        if not is_permutation(sigma, n):
            raise ValueError(f"sigma is not a permutation of 1..{n}")
        for c in colors:
            if not 0 <= c < ell:
                raise ValueError(f"color exponent {c} not in [0, {ell})")
        _set_ell(self, ell)
        _set_sigma(self, sigma)
        _set_colors(self, colors)

    def _fields(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return self.ell, self.sigma, self.colors

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def identity(cls, ell: int, n: int) -> "ColoredPermutation":
        """The neutral element: sigma = (1..n), all colors 0."""
        if type(n) is not int or n < 0:  # for n >= 0 the constructor checks ell
            _group(ell, n=n)
        return cls(ell, range(1, n + 1), (0,) * n)

    # -- elementary access ------------------------------------------------

    def image(self, i: int) -> ColoredSymbol:
        """One-line letter at position ``i`` (1-based): the image of the uncolored ``i``."""
        return self.apply(ColoredSymbol(i))

    def one_line(self) -> tuple[ColoredSymbol, ...]:
        return tuple(self.image(i) for i in range(1, self.n + 1))

    def sigma_inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, v in enumerate(self.sigma):
            inv[v - 1] = i + 1
        return tuple(inv)

    def apply(self, sym: ColoredSymbol) -> ColoredSymbol:
        """Act on a colored symbol: ``zeta^j i`` maps to ``zeta^(j+c) sigma(i)``,
        where ``c`` is the color of the value ``sigma(i)``."""
        _within("symbol value", sym.value, 1, self.n)
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

        Each cycle ends at its maximum value, and cycles are listed in
        decreasing order of their maxima.  Every letter carries the color of
        its own value; the image of a value is the next letter in its cycle
        (value and that letter's color).
        """
        return tuple(
            tuple(ColoredSymbol(v, self.colors[v - 1]) for v in cyc)
            for cyc in canonical_cycles(self.sigma)
        )

    @classmethod
    def from_cycles(
        cls, cycles: Iterable[Iterable[ColoredSymbol]], ell: int, n: int
    ) -> "ColoredPermutation":
        """Rebuild an element from cycles of colored letters.

        The cycle supports must partition ``[1..n]``; each letter fixes the
        color of its value and the successor of the previous value.
        """
        arcs = []
        for cyc in map(list, cycles):
            if not cyc:
                raise ValueError("invalid cycles: empty cycle")
            arcs += [(a.value, a.color, b.value) for a, b in zip(cyc, cyc[1:] + cyc[:1])]
        return from_arcs(ell, n, arcs, "cycles")

    def __str__(self) -> str:
        return format_one_line(self)


_set_ell, _set_sigma, _set_colors = (
    ColoredPermutation.ell.__set__, ColoredPermutation.sigma.__set__,
    ColoredPermutation.colors.__set__,
)


def is_permutation(values: Sequence[int], n: int) -> bool:
    """Whether the ints ``values`` hold each of ``1..n`` exactly once."""
    return len(values) == n and sorted(values) == list(range(1, n + 1))


def from_arcs(ell: int, n: int, arcs: list[tuple[int, int, int]], what: str) -> ColoredPermutation:
    """The element that colors each ``value`` of an arc ``(value, color, image)``
    by ``color`` and maps it to ``image``; ``what`` names the arcs' source."""
    if type(n) is not int or n < 0 or not is_permutation([v for v, _, _ in arcs], n):
        _group(ell, n=n)  # a bad ell or a negative n is named before the letters
        raise ValueError(f"invalid {what}: its letters are not 1..{n}, each once")
    sigma, colors = [0] * n, [0] * n
    for v, c, image in arcs:
        sigma[v - 1], colors[v - 1] = image, c
    return ColoredPermutation(ell, sigma, colors)


def canonical_cycles(sigma: Sequence[int], seen: bytearray | None = None) -> list[list[int]]:
    """Cycles of ``sigma``, each ending at its maximum, listed in decreasing
    order of their maxima.  ``seen[v]`` (``v`` in ``1..n``) marks the values
    of whole cycles to leave out; the walk marks the rest in it."""
    if seen is None:
        seen = bytearray(len(sigma) + 1)
    out = []
    for top in range(len(sigma), 0, -1):  # an unseen value is the maximum of its cycle
        x, cyc = top, []
        while not seen[top]:
            x = sigma[x - 1]
            seen[x] = 1
            cyc.append(x)
        if cyc:
            out.append(cyc)
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
        need = f"not in [1, {ell - 1}] for {ell} colors" if ell > 1 else "needs at least 2 colors"
        raise ParseError(f"color exponent {color} {need}", pos)
    return ColoredSymbol(value, color or 0)


def _word_tokens(text: str) -> Iterator[tuple[str, int]]:
    for m in re.finditer(r"\S+", text):
        yield m.group(), m.start()


def parse_one_line(text: str, ell: int, n: int | None = None) -> ColoredPermutation:
    """Parse a one-line word; ``n`` defaults to the number of tokens."""
    letters = [(_parse_token(tok, ell, pos), pos) for tok, pos in _word_tokens(text)]
    colors = [0] * _check_values(letters, n, text)
    for sym, _ in letters:
        colors[sym.value - 1] = sym.color
    return ColoredPermutation(ell, [sym.value for sym, _ in letters], colors)


def _check_values(letters: Sequence[tuple[ColoredSymbol, int]], n: int | None, text: str) -> int:
    """Check for exactly ``n`` letters (by default, as many as there are),
    each value in ``[1, n]`` once, and return ``n``.  Errors point at the
    token (the first surplus one), or at the end of ``text`` if letters are
    missing; the count comes first, so a huge ``n`` allocates nothing."""
    n = len(letters) if n is None else n
    _ints(n=n)
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
    return n


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
            where = "between cycles" if pieces else "before the first cycle"
            raise ParseError(f"unexpected text {where}", stray.start())
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
    return ColoredPermutation.from_cycles(cycles, ell, _check_values(letters, n, text))


def format_cycles(p: ColoredPermutation) -> str:
    return "".join(
        "(" + " ".join(str(sym) for sym in cyc) + ")" for cyc in p.cycles()
    )
