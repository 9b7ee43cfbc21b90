import re
from datetime import timedelta

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from wreathperm import (
    ColoredPermutation,
    ColoredSymbol,
    DomainError,
    ParseError,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    rotate_left,
    rotate_right,
)

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


class TestGroupStructure:
    def test_identity(self):
        e = ColoredPermutation.identity(2, 3)
        assert format_one_line(e) == "1 2 3"
        assert ColoredPermutation.identity(1, 0).n == 0
        with pytest.raises(ValueError):
            ColoredPermutation.identity(0, 3)

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

    def test_from_cycles_errors(self):
        with pytest.raises(ValueError):
            ColoredPermutation.from_cycles(
                [[ColoredSymbol(1), ColoredSymbol(1)]], 2, 2
            )
        with pytest.raises(ValueError):
            ColoredPermutation.from_cycles([[ColoredSymbol(1)]], 2, 2)


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
        ],
    )
    def test_parse_cycles_names_missing_or_stray_cycle(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_cycles(text, 2)
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
