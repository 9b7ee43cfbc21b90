import copy
import itertools
import pickle
import re
from datetime import timedelta
from functools import partial
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from wreathperm import (
    CheckResult,
    ClassSignature,
    ColoredPermutation,
    ColoredSymbol,
    DifferenceTable,
    DomainError,
    ParseError,
    SuccessionDecomposition,
    build_table,
    class_signature,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    partition_bounds,
    rotate_left,
    rotate_right,
    signature_insert,
    succession_compose,
    succession_decompose,
)
from wreathperm import core
from wreathperm.bijections import foata, foata_inverse
from wreathperm.core import canonical_cycles
from wreathperm.enumeration import distribution, group_size
from wreathperm.tables import derangement_number, egf_coefficient, g_closed_form

from conftest import colored_perms, group

# A size-11, four-color element used as the running fixture: one-line text,
# underlying permutation, color of each value, and its cycle factorization.
BIG_ONE_LINE = "3 5^2 1^2 9 6^1 2 7^1 4^1 11^3 8^1 10^1"
BIG_SIGMA = (3, 5, 1, 9, 6, 2, 7, 4, 11, 8, 10)
BIG_COLORS = {1: 2, 2: 0, 3: 0, 4: 1, 5: 2, 6: 1, 7: 1, 8: 1, 9: 0, 10: 1, 11: 3}
BIG_CYCLES = "(1^2 3)(2 5^2 6^1)(4^1 9 11^3 10^1 8^1)(7^1)"


@pytest.fixture
def big():
    return parse_one_line(BIG_ONE_LINE, 4, 11)


class TestSymbol:
    def test_value_zero_rejected(self):
        with pytest.raises(ValueError, match="symbol value must be >= 1, got 0"):
            ColoredSymbol(0)

    def test_negative_color_rejected(self):
        with pytest.raises(ValueError, match="^color exponent must be >= 0, got -1$"):
            ColoredSymbol(1, -1)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((1.5, 0.5), "symbol value: 1.5 is not an int"),
            ((1, 0.5), "symbol color: 0.5 is not an int"),
            ((True,), "symbol value: True is not an int"),
            ((2, False), "symbol color: False is not an int"),
        ],
    )
    def test_non_int_fields_rejected(self, args, message):
        """Only an ``int`` itself is a value or a color: not a float, not a ``bool``."""
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ColoredSymbol(*args)


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, (1,), (0.5,)), "colors: 0.5 is not an int"),
        ((2.5, (1, 2), (2, 0)), "ell: 2.5 is not an int"),
        ((2, (1, 2), (True, 0)), "colors: True is not an int"),
        ((True, (1,), (0,)), "ell: True is not an int"),
        # a float in sigma, whichever way the permutation test would have failed on it
        ((2, (1.0, 2), (0, 0)), "sigma: 1.0 is not an int"),
        ((2, (1, 2.5), (0, 0)), "sigma: 2.5 is not an int"),
        ((2, (0.5, 1), (0, 0)), "sigma: 0.5 is not an int"),
        ((2, (False, 1), (0, 0)), "sigma: False is not an int"),
    ],
)
def test_element_refuses_non_int_fields(args, message):
    """``ell``, each value of ``sigma`` and each color must be an ``int``
    itself; the ``TypeError`` names the field."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        ColoredPermutation(*args)


_SIGNATURE = class_signature(parse_one_line("1 3 2", 1), 1)


def _signature_insert(m):
    return signature_insert(ColoredPermutation.identity(1, 1), _SIGNATURE._replace(m=m))


# The public sizes that no CLI path reaches with a non-int, each once taken as
# its value (True as 1) or failed inside Python's own arithmetic: (function,
# arguments, the refused field and value).
_PUBLIC_SIZES = [
    (succession_compose, ((True,), parse_one_line("2 1", 2), 0), "positions: True"),
    (succession_compose, ((1.0,), parse_one_line("2 1", 2), 0), "positions: 1.0"),
    (parse_one_line, ("1 2", 2, True), "n: True"),
    (parse_one_line, ("1 2", 2, 2.0), "n: 2.0"),
    (parse_cycles, ("(1 2)", 2, 2.0), "n: 2.0"),
    (_signature_insert, (True,), "m: True"),
    (_signature_insert, (1.0,), "m: 1.0"),
    (partition_bounds, (True, 2), "total: True"),
    (partition_bounds, (5.0, 2), "total: 5.0"),
    (partition_bounds, (5, 2.0), "parts: 2.0"),
]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ColoredSymbol(1.5), "symbol value: 1.5"),
        (lambda: ColoredSymbol(1, 0.5), "symbol color: 0.5"),
        (lambda: ColoredSymbol((1,)), "symbol value: (1,)"),
        (lambda: ColoredPermutation(2.0, (1,), (0,)), "ell: 2.0"),
        (lambda: ColoredPermutation((2,), (1,), (0,)), "ell: (2,)"),
        (lambda: ColoredPermutation(2, (1, True), (0, 0)), "sigma: True"),
        (lambda: ColoredPermutation(2, (1, 2), (0, 1.0)), "colors: 1.0"),
        (lambda: foata((2, 1.0)), "word: 1.0"),
        (lambda: foata_inverse(["a", 1]), "word: 'a'"),
        (lambda: g_closed_form(2, 3, 1.0), "m: 1.0"),
        (lambda: distribution(2, 3, True, "circular"), "k: True"),
        (lambda: ColoredPermutation.identity(2, True), "n: True"),
        (lambda: ColoredPermutation.identity(2, 3.0), "n: 3.0"),
        (lambda: core.from_arcs(2, 2.0, [(1, 0, 2), (2, 0, 1)], "x"), "n: 2.0"),
        *(
            pytest.param(partial(func, *args), message, id=f"{func.__name__}-{message}")
            for func, args, message in _PUBLIC_SIZES
        ),
    ],
)
def test_int_rule_is_stated_once(call, message):
    """Every layer that takes an int refuses anything else through the one
    rule in ``core``, with a ``TypeError`` naming the field and its value."""
    with pytest.raises(TypeError, match=f"^{re.escape(message)} is not an int$") as info:
        call()
    assert info.traceback[-1].frame.code.raw is core._ints.__code__


def test_no_other_module_spells_the_int_rule():
    """Only ``core.py`` words the int rule's message."""
    package = Path(core.__file__).parent
    spelled = [f.name for f in sorted(package.glob("*.py")) if "is not an int" in f.read_text()]
    assert spelled == ["core.py"]


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ColoredPermutation(0, (1,), (0,)), "number of colors must be >= 1, got 0"),
        (lambda: ColoredPermutation.identity(2, -1), "size must be >= 0, got -1"),
        (lambda: ColoredPermutation.from_cycles([], 0, 0), "number of colors must be >= 1, got 0"),
        (lambda: group_size(0, 3), "number of colors must be >= 1, got 0"),
        (lambda: distribution(2, -1, 1, "circular"), "size must be >= 0, got -1"),
        (lambda: build_table(2, -1, "g"), "max_n must be >= 0, got -1"),
        (lambda: derangement_number(-1, 3), "number of colors must be >= 1, got -1"),
        (lambda: egf_coefficient(1, -1, 0), "m must be >= 0, got -1"),
    ],
)
def test_group_rule_is_stated_once(call, message):
    """Every layer refuses fewer than one color, then a negative size,
    through the one rule in ``core``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.traceback[-1].frame.code.raw is core._group.__code__


def test_no_other_module_spells_the_group_rule():
    """Only ``core.py`` words the refusal of fewer than one color."""
    package = Path(core.__file__).parent
    spelled = [f.name for f in sorted(package.glob("*.py")) if "colors must be" in f.read_text()]
    assert spelled == ["core.py"]


def test_no_other_module_spells_the_parameter_rule():
    """Only ``core.py`` words an interval refusal, ``must lie in [lo, hi]``."""
    package = Path(core.__file__).parent
    interval = re.compile(r"must lie in \[[^]]*,")
    spelled = [f.name for f in sorted(package.glob("*.py")) if interval.search(f.read_text())]
    assert spelled == ["core.py"]


@pytest.mark.parametrize(
    "args,message",
    [
        ((2, (1, 2), (0,)), "sigma and colors must have equal length"),
        ((2, (1, 1), (0, 0)), "sigma is not a permutation of 1..2"),
    ],
)
def test_element_refuses_malformed_fields(args, message):
    """``sigma`` is a permutation of ``1..n`` with one color per value."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ColoredPermutation(*args)


class TestGroupStructure:
    def test_identity(self):
        e = ColoredPermutation.identity(2, 3)
        assert format_one_line(e) == "1 2 3"
        assert ColoredPermutation.identity(1, 0).n == 0
        with pytest.raises(ValueError):
            ColoredPermutation.identity(0, 3)
        with pytest.raises(ValueError, match="^size must be >= 0, got -1$"):
            ColoredPermutation.identity(2, -1)

    def test_identity_neutral_exhaustive(self):
        e = ColoredPermutation.identity(2, 3)
        for p in group(2, 3):
            assert e * p == p
            assert p * e == p

    def test_compose_hand_example(self):
        a = parse_one_line("2^1 1", 2)
        b = parse_one_line("1^1 2", 2)
        # by the multiplication rule: sigma = (2,1), colors (1 + 1, 1 + 0) mod 2
        assert format_one_line(a * b) == "2 1"

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compose_matches_symbol_action(self, ell, n):
        symbols = [ColoredSymbol(v, c) for v in range(1, n + 1) for c in range(ell)]
        for a in group(ell, n):
            for b in group(ell, n):
                ab = a * b
                for s in symbols:
                    assert ab.apply(s) == a.apply(b.apply(s))

    def test_associativity_exhaustive(self):
        for ell, n in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
            elems = group(ell, n)
            index = {p: i for i, p in enumerate(elems)}
            table = [
                tuple(index[a * b] for b in elems) for a in elems
            ]
            for i, row_i in enumerate(table):
                for j, tj in enumerate(table):
                    lhs = table[row_i[j]]
                    rhs = tuple(row_i[x] for x in tj)
                    assert lhs == rhs, f"associativity fails at ell={ell} n={n} i={i} j={j}"

    def test_inverses_exhaustive(self):
        for ell, n in [(3, 3), (2, 4)]:
            e = ColoredPermutation.identity(ell, n)
            for p in group(ell, n):
                assert p * p.inverse() == e
                assert p.inverse() * p == e
                assert p.inverse().inverse() == p

    def test_closure_size(self):
        elems = set(group(2, 3))
        assert len(elems) == 48
        sample = list(elems)[::7]
        for a in sample:
            for b in sample:
                assert a * b in elems

    def test_compose_mismatch(self):
        with pytest.raises(ValueError):
            ColoredPermutation.identity(2, 3) * ColoredPermutation.identity(2, 2)
        with pytest.raises(ValueError):
            ColoredPermutation.identity(2, 3) * ColoredPermutation.identity(3, 3)
        with pytest.raises(TypeError, match="unsupported operand"):  # __mul__ gives NotImplemented
            ColoredPermutation.identity(2, 2) * 3


class TestApply:
    def test_fixture_images(self, big):
        assert big.image(2) == ColoredSymbol(5, 2)
        assert big.apply(ColoredSymbol(2)) == ColoredSymbol(5, 2)
        assert big.apply(ColoredSymbol(5)) == ColoredSymbol(6, 1)

    def test_colored_input(self, big):
        # colors compose additively mod ell
        assert big.apply(ColoredSymbol(2, 3)) == ColoredSymbol(5, 1)

    def test_identity_apply(self):
        e = ColoredPermutation.identity(4, 5)
        for v in range(1, 6):
            for c in range(4):
                assert e.apply(ColoredSymbol(v, c)) == ColoredSymbol(v, c)

    def test_out_of_range(self, big):
        with pytest.raises(ValueError):
            big.apply(ColoredSymbol(12, 0))

    def test_image_refuses_outside_positions(self, big):
        """``image`` is ``apply`` on an uncolored symbol, so it refuses what
        ``ColoredSymbol`` or ``apply`` refuses, never reading another letter."""
        for i in (0, -1):
            with pytest.raises(ValueError, match=f"^symbol value must be >= 1, got {i}$"):
                big.image(i)
        with pytest.raises(DomainError, match=r"^symbol value must lie in \[1, 11\], got 12$"):
            big.image(12)
        with pytest.raises(TypeError, match="^symbol value: True is not an int$"):
            big.image(True)


class TestCycles:
    def test_fixture_factorization(self, big):
        assert format_cycles(big) == "(10^1 8^1 4^1 9 11^3)(7^1)(2 5^2 6^1)(1^2 3)"
        assert parse_cycles(BIG_CYCLES, 4, 11) == big

    def test_identity_cycles(self):
        e = ColoredPermutation.identity(2, 4)
        assert [len(c) for c in e.cycles()] == [1, 1, 1, 1]
        assert format_cycles(e) == "(4)(3)(2)(1)"

    def test_roundtrip_exhaustive(self):
        for p in group(3, 4):
            assert ColoredPermutation.from_cycles(p.cycles(), 3, 4) == p
            assert parse_cycles(format_cycles(p), 3, 4) == p
            assert parse_one_line(format_one_line(p), 3, 4) == p

    # A letter is a value or a (value, color) pair; two colors throughout.
    @pytest.mark.parametrize("cycles, n, message", [
        ([[1, 3]], 2, "invalid cycles: its letters are not 1..2, each once"),
        ([[1, 1]], 2, "invalid cycles: its letters are not 1..2, each once"),
        ([[1]], 2, "invalid cycles: its letters are not 1..2, each once"),
        ([[(1, 2)], [2]], 2, "color exponent 2 not in [0, 2)"),
        ([[1], []], 1, "invalid cycles: empty cycle"),
        # writing these arcs unchecked would give the valid element (1)
        ([[1], [1]], 1, "invalid cycles: its letters are not 1..1, each once"),
        ([], -1, "size must be >= 0, got -1"),
    ], ids=["above-n", "repeated", "missing", "color", "empty", "twice", "negative-size"])
    def test_from_cycles_errors(self, cycles, n, message):
        letters = [[ColoredSymbol(*x) if isinstance(x, tuple) else ColoredSymbol(x) for x in cyc]
                   for cyc in cycles]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ColoredPermutation.from_cycles(letters, 2, n)


def _cycles_by_rotation(sigma):
    """The canonical cycles as first stated: the cycles in order of their
    least values, each rotated to end at its maximum, then sorted by maxima."""
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
    out = []
    for cyc in cycles:
        t = cyc.index(max(cyc))
        out.append(cyc[t + 1 :] + cyc[: t + 1])
    out.sort(key=lambda cyc: -cyc[-1])
    return out


@pytest.mark.parametrize("n", range(8))
def test_canonical_cycles_match_rotation(n):
    """The walk from each unseen maximum gives the rotated and sorted cycles;
    with the values of some cycles marked in ``seen``, it gives the rest."""
    for sigma in itertools.permutations(range(1, n + 1)):
        expected = _cycles_by_rotation(sigma)
        assert canonical_cycles(sigma) == expected, sigma
        for chosen in itertools.product([False, True], repeat=len(expected)):
            seen = bytearray(n + 1)
            for v in itertools.chain(*itertools.compress(expected, chosen)):
                seen[v] = 1
            rest = list(itertools.compress(expected, [not c for c in chosen]))
            assert canonical_cycles(sigma, seen) == rest, (sigma, chosen)
            assert seen == bytearray([0]) + bytearray([1]) * n, (sigma, chosen)


class TestText:
    def test_parse_fixture(self, big):
        assert big.sigma == BIG_SIGMA
        assert {v: big.colors[v - 1] for v in range(1, 12)} == BIG_COLORS
        assert format_one_line(big) == BIG_ONE_LINE

    def test_format_identity(self):
        assert format_one_line(ColoredPermutation.identity(2, 2)) == "1 2"

    def test_empty(self):
        p = parse_one_line("", 3)
        assert p.n == 0
        assert format_one_line(p) == ""
        assert parse_cycles("", 3, 0) == p
        assert format_cycles(p) == ""

    def test_parse_canonicalizes(self):
        assert format_one_line(parse_one_line("  2   1 ", 2)) == "2 1"

    @pytest.mark.parametrize(
        "text,ell",
        [
            ("2 2", 2),        # repeated value
            ("1^0 2", 2),      # explicit zero exponent is not a token
            ("1^2 2", 2),      # exponent must stay below the color count
            ("1^1 2", 1),      # no exponents with a single color
            ("0 1", 2),        # values are 1-based
            ("x 1", 2),        # not a token
            ("3 1", 2),        # value out of range for inferred n = 2
        ],
    )
    def test_parse_errors(self, text, ell):
        with pytest.raises(ParseError):
            parse_one_line(text, ell)

    @pytest.mark.parametrize(
        "parse,text,n,offset",
        [
            (parse_one_line, "1^3 3", 2, 4),  # not the "3" of the exponent at 2
            (parse_cycles, "(1^3 3)", 2, 5),
            (parse_one_line, "2 1 2", None, 4),  # the repeat, not the first copy
            (parse_cycles, "(2 1)(2)", None, 6),
            # more digits than int() converts
            pytest.param(parse_one_line, "1" * 5000, None, 0, id="long-one-line"),
            pytest.param(parse_cycles, f"({'1' * 5000})", None, 1, id="long-cycle"),
            # stray text, not where the previous cycle ended
            (parse_cycles, "(1 2)  x (3)", None, 7),
            (parse_cycles, "(1 2)(3)   junk", None, 11),
            (parse_cycles, "  x (1)", None, 2),
            (parse_cycles, "1 2", None, 0),
            (parse_one_line, "1 2 3 4", 3, 6),  # the first surplus token
            (parse_cycles, "(1)(2)(3)", 2, 7),
        ],
    )
    def test_parse_error_offset_points_at_token(self, parse, text, n, offset):
        with pytest.raises(ParseError) as exc:
            parse(text, 4, n)
        assert exc.value.position == offset

    @pytest.mark.parametrize(
        "text,message",
        [
            ("  1 2", "expected '(' to open a cycle (at offset 2)"),
            ("(1 2", "unexpected trailing text (at offset 0)"),  # opened, never closed
            ("(1) 2", "unexpected trailing text (at offset 4)"),
            ("x (1)", "unexpected text before the first cycle (at offset 0)"),
            (")(1)", "unexpected text before the first cycle (at offset 0)"),
            ("((1))", "unexpected text before the first cycle (at offset 0)"),
            ("(1) x (2)", "unexpected text between cycles (at offset 4)"),
        ],
    )
    def test_parse_cycles_names_missing_or_stray_cycle(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_cycles(text, 2)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (parse_one_line, "1^1 2", "color exponent 1 needs at least 2 colors (at offset 0)"),
            (parse_cycles, "(1)(2^3)", "color exponent 3 needs at least 2 colors (at offset 4)"),
        ],
    )
    def test_color_exponent_with_one_color_names_the_need(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text, 1)
        assert str(exc.value) == message

    def test_parse_length_mismatch(self):
        with pytest.raises(ParseError):
            parse_one_line("1 2", 2, 3)

    def test_parse_cycles_errors(self):
        with pytest.raises(ParseError):
            parse_cycles("(1 2", 2)
        with pytest.raises(ParseError):
            parse_cycles("1 2", 2)
        with pytest.raises(ParseError):
            parse_cycles("()", 2)
        with pytest.raises(ParseError):
            parse_cycles("(1)(1)", 2)
        with pytest.raises(ParseError):
            parse_cycles("(1)", 2, 2)  # missing value 2

    @pytest.mark.parametrize(
        "parse,text", [(parse_one_line, "1"), (parse_cycles, "(1)")]
    )
    def test_size_checked_against_token_count_first(self, parse, text):
        # a huge n must fail on the token count, not allocate n slots first
        with pytest.raises(ParseError) as exc:
            parse(text, 2, 10**6)
        expected = f"expected 1000000 tokens, found 1 (at offset {len(text)})"
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "parse,text", [(parse_one_line, "1"), (parse_cycles, "(1)")]
    )
    def test_color_count_checked_before_letters(self, parse, text):
        with pytest.raises(ValueError) as exc:
            parse(text, 0)
        assert str(exc.value) == "number of colors must be >= 1, got 0"


class TestRotations:
    def test_examples(self):
        p = parse_one_line("1 2 3", 1)
        assert format_one_line(rotate_right(p)) == "3 1 2"
        assert format_one_line(rotate_left(rotate_right(p))) == "1 2 3"

    def test_inverse_pair_exhaustive(self):
        for p in group(2, 4):
            assert rotate_left(rotate_right(p)) == p
            assert rotate_right(rotate_left(p)) == p

    def test_full_turn(self):
        for p in group(3, 3):
            q = p
            for _ in range(3):
                q = rotate_right(q)
            assert q == p

    def test_empty_rotation(self):
        for rotate in (rotate_right, rotate_left):
            with pytest.raises(DomainError):
                rotate(ColoredPermutation.identity(1, 0))


@given(colored_perms())
def test_text_roundtrip_random(p):
    assert parse_one_line(format_one_line(p), p.ell, p.n) == p
    assert parse_cycles(format_cycles(p), p.ell, p.n) == p


@given(colored_perms(max_n=5))
def test_group_laws_random(p):
    e = ColoredPermutation.identity(p.ell, p.n)
    assert p * p.inverse() == e
    assert p.inverse().inverse() == p


_TEXTS = st.text(max_size=40) | st.lists(
    st.sampled_from(["1", "2", "3", "10", "0", "-1", "^", "^1", "^-1", "(", ")", " ",
                     "\t", "x", "99999999999999999999999"]),
    max_size=12,
).map("".join)


_AT_STRAY_TEXT = re.compile(r"unexpected text between|unexpected trailing|expected '\('")


@settings(max_examples=400, deadline=timedelta(milliseconds=500))
@given(
    parse=st.sampled_from([parse_one_line, parse_cycles]),
    text=_TEXTS,
    ell=st.integers(1, 5),
    n=st.none() | st.integers(0, 8),
)
def test_parse_arbitrary_text(parse, text, ell, n):
    """Any text either parses or raises ParseError at an offset within it; an
    error about stray or surplus text points at its first character."""
    try:
        parse(text, ell, n)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
        counts = re.match(r"expected (\d+) tokens, found (\d+)", str(exc))
        surplus = counts and int(counts[2]) > int(counts[1])
        if surplus or _AT_STRAY_TEXT.match(str(exc)):
            assert not text[exc.position].isspace()


# -- value types ------------------------------------------------------------------

# Each value type: a fresh instance on every call, its fields and its exact repr.
_VALUES = {
    "symbol": (lambda: ColoredSymbol(3, 1), ("value", "color"), "ColoredSymbol(value=3, color=1)"),
    "element": (
        lambda: ColoredPermutation(2, (2, 1), (1, 0)),
        ("ell", "sigma", "colors"),
        "ColoredPermutation(ell=2, sigma=(2, 1), colors=(1, 0))",
    ),
    "check": (
        lambda: CheckResult("t2", 1, 2, {"max_ell": 1, "max_n": 2}, None),
        ("check", "ell", "n", "params", "counterexample"),
        "CheckResult(check='t2', ell=1, n=2, params={'max_ell': 1, 'max_n': 2}, "
        "counterexample=None)",
    ),
    "table": (
        lambda: build_table(2, 2, "g"),
        ("ell", "flavor", "rows"),
        "DifferenceTable(ell=2, flavor='g', rows=((1,), (1, 2), (5, 6, 8)))",
    ),
    "decomposition": (
        lambda: succession_decompose(parse_one_line("2 3 1", 1), 1),
        ("positions", "reduced"),
        "SuccessionDecomposition(positions=(1, 2), "
        "reduced=ColoredPermutation(ell=1, sigma=(1,), colors=(0,)))",
    ),
    "signature": (
        lambda: class_signature(parse_one_line("1 3 2^1", 2), 1),
        ("ell", "n", "m", "words", "omega"),
        "ClassSignature(ell=2, n=3, m=1, words=((),), "
        "omega=((ColoredSymbol(value=2, color=1), ColoredSymbol(value=3, color=0)),))",
    ),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_copies_are_equal(name):
    """Pickling and both copies give an equal value of the same type."""
    make, _, _ = _VALUES[name]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value


@pytest.mark.parametrize("name", _VALUES)
def test_value_fields_are_read_only(name):
    make, fields, _ = _VALUES[name]
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert make() == value


@pytest.mark.parametrize("name", _VALUES)
def test_equal_values_hash_equal(name):
    make, _, _ = _VALUES[name]
    a, b = make(), make()
    assert a == b and a is not b
    if name == "check":  # its params are a dict, so a check result has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", _VALUES)
def test_value_repr(name):
    make, _, text = _VALUES[name]
    assert repr(make()) == text


def test_elements_and_symbols_are_not_tuples():
    """An element or a symbol equals only its own type, never the tuple of its fields."""
    assert ColoredPermutation(2, (2, 1), (1, 0)) != (2, (2, 1), (1, 0))
    assert ColoredSymbol(3, 1) != (3, 1)
    assert ColoredSymbol(1) != ColoredPermutation(1, (1,), (0,))


def test_values_by_keyword():
    assert ColoredSymbol(value=3, color=1) == ColoredSymbol(3, 1)
    assert ColoredSymbol(3).color == 0
    assert ColoredPermutation(ell=2, sigma=(2, 1), colors=(1, 0)) == _VALUES["element"][0]()
    keyword = {
        "check": lambda: CheckResult(
            check="t2", ell=1, n=2, params={"max_ell": 1, "max_n": 2}, counterexample=None),
        "table": lambda: DifferenceTable(ell=2, flavor="g", rows=((1,), (1, 2), (5, 6, 8))),
        "decomposition": lambda: SuccessionDecomposition(
            positions=(1, 2), reduced=ColoredPermutation(1, (1,), (0,))),
        "signature": lambda: ClassSignature(
            ell=2, n=3, m=1, words=((),),
            omega=((ColoredSymbol(2, 1), ColoredSymbol(3, 0)),)),
    }
    for name, make in keyword.items():
        assert make() == _VALUES[name][0](), name
