import functools
import hashlib
import itertools
import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given

from wreathperm import bijections, core
from wreathperm.bijections import ClassSignature
from wreathperm.core import ColoredSymbol
from wreathperm import (
    ColoredPermutation,
    DifferenceTable,
    DomainError,
    build_table,
    circular_pairs,
    circular_successions,
    class_core,
    class_representative,
    class_signature,
    colored_foata,
    colored_foata_inverse,
    derangement_insert,
    derangement_remove,
    fixed_points,
    foata,
    foata_inverse,
    g_closed_form,
    increasing_to_isolated,
    insert_max_succession,
    is_derangement,
    is_increasing_fixed,
    is_isolated_fixed,
    isolate_forward,
    isolate_inverse,
    isolated_insert,
    isolated_remove,
    isolated_to_increasing,
    linear_pairs,
    parse_cycles,
    parse_one_line,
    prefix_action,
    remove_max_succession,
    rotate_right,
    signature_insert,
    skew_linear_pairs,
    succession_compose,
    succession_decompose,
)

from conftest import at_k, colored_perms, group


def all_two_cycles(ell, n):
    """The uncolored product ``(1 2)(3 4)...(n-1 n)`` for even ``n``."""
    return parse_cycles("".join(f"({t} {t + 1})" for t in range(1, n, 2)), ell, n)


def members(ell, n, predicate, *args):
    return [p for p in group(ell, n) if predicate(p, *args)]


class TestMaxSuccessionRemoval:
    def test_fixture(self):
        p = parse_one_line("3 9^1 5 8^2 7^1 6^2 2 1^1 4", 3, 9)
        out = remove_max_succession(p, 4, 2)
        assert str(out) == "3 8^1 7^2 6^1 5^2 2 1^1 4"
        assert insert_max_succession(out, 4, 2) == p

    def test_smallest_case(self):
        p = parse_one_line("1", 1)
        out = remove_max_succession(p, 0, 0)
        assert out.n == 0
        assert insert_max_succession(out, 0, 0) == p

    def test_exhaustive(self):
        for ell, n in [(1, 4), (2, 4), (3, 3)]:
            for k in range(n):
                for m in range(k, n):
                    domain = [
                        p
                        for p in group(ell, n)
                        if (s := circular_successions(p, k))
                        and max(s) == m + 1
                    ]
                    seen = set()
                    for p in domain:
                        out = remove_max_succession(p, m, k)
                        assert out.n == n - 1
                        assert all(
                            v <= m for v in circular_successions(out, k)
                        )
                        assert out not in seen
                        seen.add(out)
                        assert insert_max_succession(out, m, k) == p
                    codomain = [
                        q
                        for q in group(ell, n - 1)
                        if all(v <= m for v in circular_successions(q, k))
                    ]
                    assert len(seen) == len(codomain)

    def test_domain_errors(self):
        p = parse_one_line("1 2 3", 2)
        with pytest.raises(DomainError):
            remove_max_succession(p, 0, 0)  # largest fixed point is 3, not 1
        with pytest.raises(DomainError):
            insert_max_succession(p, 1, 0)  # fixed points exceed m = 1
        with pytest.raises(DomainError):
            remove_max_succession(p, 0, 1)  # k must stay at most m


class TestFoata:
    def test_example(self):
        sigma = (4, 2, 1, 6, 7, 9, 8, 5, 3)  # cycles (3 1 4 6 9)(5 7 8)(2)
        assert foata(sigma) == (3, 1, 4, 6, 9, 5, 7, 8, 2)
        assert foata_inverse((3, 1, 4, 6, 9, 5, 7, 8, 2)) == sigma

    def test_identity(self):
        n = 6
        ident = tuple(range(1, n + 1))
        assert foata(ident) == tuple(range(n, 0, -1))
        assert foata_inverse(foata(ident)) == ident

    # a bool would be read as an int and come back as itself: foata((True, 2)) == (2, True)
    @pytest.mark.parametrize("func", [foata, foata_inverse])
    @pytest.mark.parametrize("word, message", [
        ((True, 2), "word: True is not an int"),
        ((1.0, 2), "word: 1.0 is not an int"),
        (("a", 1), "word: 'a' is not an int"),
    ], ids=["bool", "float", "str"])
    def test_non_int_letters_rejected(self, func, word, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            func(word)

    # without the check foata indexes past the end on (1, 3) and never ends on (1, 1)
    @pytest.mark.parametrize("func", [foata, foata_inverse])
    @pytest.mark.parametrize("word", [(1, 3), (1, 1)], ids=["out-of-range", "repeated"])
    def test_non_permutation_rejected(self, func, word):
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a permutation of 1..2: {word}')}$"):
            func(word)

    def test_exhaustive_roundtrip_s6(self):
        for sigma in itertools.permutations(range(1, 7)):
            assert foata_inverse(foata(sigma)) == sigma
            assert foata(foata_inverse(sigma)) == sigma

    def test_succession_exchange(self):
        # k-circular successions of sigma become the adjacent "+k" pairs of
        # the word, and conversely, for every k >= 1
        for sigma in itertools.permutations(range(1, 6)):
            word = foata(sigma)
            for k in range(1, 5):
                circ = {sigma[i - 1] for i in range(1, 6) if sigma[i - 1] == i + k}
                lin = {
                    word[i]
                    for i in range(1, 5)
                    if word[i] == word[i - 1] + k
                }
                assert circ == lin


class TestColoredFoata:
    def test_worked_example(self):
        p = parse_one_line("3^1 4 9^1 8^1 7 5^1 6 2^2 1^2", 4, 9)
        out = colored_foata(p)
        assert str(out) == "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1"
        assert colored_foata_inverse(out) == p
        assert at_k(skew_linear_pairs(out), 2) == (4, 7)

    def test_identity_image(self):
        for ell, n in [(1, 5), (3, 4)]:
            out = colored_foata(ColoredPermutation.identity(ell, n))
            assert out.sigma == tuple(range(n, 0, -1))
            assert set(out.colors) <= {0}

    def test_exhaustive_transport(self):
        for ell, n in [(2, 4), (3, 4)]:
            for p in group(ell, n):
                out = colored_foata(p)
                assert colored_foata_inverse(out) == p
                assert {(k, v) for k, v in circular_pairs(p) if k} == linear_pairs(out)
                if n >= 1:
                    shifted = {(k + 1, v) for k, v in circular_pairs(rotate_right(p))}
                    assert shifted == skew_linear_pairs(out)

    def test_single_color_matches_plain(self):
        for p in group(1, 5):
            assert colored_foata(p).sigma == foata(p.sigma)

    @given(colored_perms(max_n=7))
    def test_roundtrip_random(self, p):
        assert colored_foata_inverse(colored_foata(p)) == p


class TestSuccessionDecomposition:
    def test_exhaustive_roundtrip(self):
        for ell, n in [(2, 4), (3, 3)]:
            for k in range(n + 1):
                for p in group(ell, n):
                    dec = succession_decompose(p, k)
                    assert len(dec.positions) == len(circular_successions(p, k))
                    assert all(1 <= i <= n - k for i in dec.positions)
                    if k <= dec.reduced.n:
                        assert not circular_successions(dec.reduced, k)
                    assert succession_compose(dec.positions, dec.reduced, k) == p

    def test_counting_identity(self):
        # elements with exactly m k-successions: choose positions, then a
        # succession-free core
        from collections import Counter

        g = build_table(2, 3, "g")
        counts = Counter(
            len(circular_successions(p, 0)) for p in group(2, 3)
        )
        expected = {
            m: math.comb(3, m) * g.entry(3 - m, 0) for m in range(4)
        }
        assert counts == {m: c for m, c in expected.items() if c}
        assert expected == {0: 29, 1: 15, 2: 3, 3: 1}

    def test_full_fixed_case(self):
        e = ColoredPermutation.identity(2, 3)
        dec = succession_decompose(e, 0)
        assert dec.positions == (1, 2, 3)
        assert dec.reduced.n == 0

    def test_compose_errors(self):
        core = parse_one_line("2 1", 2)
        with pytest.raises(DomainError):
            succession_compose((5,), core, 0)  # position out of range
        bad_core = parse_one_line("1 2", 2)
        with pytest.raises(DomainError):
            succession_compose((1,), bad_core, 0)  # core has fixed points


class TestPrefixAction:
    def test_identity_acts_trivially(self):
        iota = ColoredPermutation.identity(2, 2)
        for p in members(2, 3, lambda q, m: fixed_points(q) <= set(range(1, m + 1)), 2):
            assert prefix_action(iota, p) == p

    def test_action_axiom(self):
        fam = [p for p in group(2, 3) if all(v <= 2 for v in fixed_points(p))]
        for t1 in group(2, 2):
            for t2 in group(2, 2):
                for p in fam:
                    assert prefix_action(t1 * t2, p) == prefix_action(
                        t1, prefix_action(t2, p)
                    )

    def test_orbits(self):
        for ell, n in [(1, 4), (2, 3), (2, 4)]:
            d = build_table(ell, n, "d")
            for m in range(n + 1):
                fam = {p for p in group(ell, n) if all(v <= m for v in fixed_points(p))}
                orbits = []
                remaining = set(fam)
                while remaining:
                    p = remaining.pop()
                    orbit = {prefix_action(t, p) for t in group(ell, m)}
                    assert orbit <= fam
                    assert len(orbit) == ell**m * math.factorial(m)
                    remaining -= orbit
                    orbits.append(orbit)
                assert len(orbits) == d.entry(n, m)

    def test_domain_error(self):
        iota = ColoredPermutation.identity(2, 1)
        with pytest.raises(DomainError):
            prefix_action(iota, parse_one_line("1 2", 2))  # fixed point 2 > m
        with pytest.raises(DomainError, match="^color counts differ$"):
            prefix_action(ColoredPermutation.identity(1, 1), iota)


class TestIsolatedIncreasing:
    def test_worked_example(self):
        p = parse_cycles("(1)(2 7^1 6^2)(3 5^2 9)(4)(8^2)", 3, 9)
        out = isolated_to_increasing(p, 4)
        assert str(out) == "1 4 5 7 9 2^1 6^2 8^2 3^2"
        assert increasing_to_isolated(out, 4) == p

    def test_explicit_families(self):
        isolated = set(members(2, 3, is_isolated_fixed, 2))
        increasing = set(members(2, 3, is_increasing_fixed, 2))
        assert len(isolated) == len(increasing) == 5
        assert {isolated_to_increasing(p, 2) for p in isolated} == increasing
        assert {increasing_to_isolated(p, 2) for p in increasing} == isolated

    def test_m_zero_identity_map(self):
        for p in group(2, 3):
            if is_derangement(p):
                assert isolated_to_increasing(p, 0) == p
                assert increasing_to_isolated(p, 0) == p

    def test_exhaustive(self):
        for ell, n in [(1, 4), (2, 4), (3, 3)]:
            for m in range(n + 1):
                dom = members(ell, n, is_isolated_fixed, m)
                images = set()
                for p in dom:
                    out = isolated_to_increasing(p, m)
                    assert is_increasing_fixed(out, m)
                    assert out not in images
                    images.add(out)
                    assert increasing_to_isolated(out, m) == p
                assert images == set(members(ell, n, is_increasing_fixed, m))

    def test_every_increasing_element_is_an_image(self):
        # so the inverse needs no check that its input was reached
        for ell, n in itertools.product((1, 2), range(6)):
            for m in range(n + 1):
                preimages = set()
                for p2 in members(ell, n, is_increasing_fixed, m):
                    p = increasing_to_isolated(p2, m)
                    assert is_isolated_fixed(p, m)
                    assert p not in preimages
                    preimages.add(p)
                    assert isolated_to_increasing(p, m) == p2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            isolated_to_increasing(parse_one_line("3^1 1 2", 2), 2)
        with pytest.raises(DomainError):
            increasing_to_isolated(parse_one_line("2 1 3", 1), 2)  # fixed 3 > m
        for m in (-1, 3):  # out of range: the same error as every other map
            with pytest.raises(DomainError):
                isolated_to_increasing(parse_one_line("2 1", 1), m)
            with pytest.raises(DomainError):
                increasing_to_isolated(parse_one_line("2 1", 1), m)


class TestClassSignature:
    def test_worked_example(self):
        p = parse_cycles("(1^2 4^1 7 3^2 2 6^1 5)(8^1)(9^2)", 3, 9)
        sig = class_signature(p, 3)
        assert [" ".join(str(s) for s in w) for w in sig.words] == [
            "4^1 7",
            "6^1 5",
            "",
        ]
        assert {tuple(str(s) for s in c) for c in sig.omega} == {("8^1",), ("9^2",)}
        tau = parse_cycles("(1^1 2^2)(3)", 3, 3)
        assert signature_insert(tau, sig) == parse_cycles(
            "(1^1 4^1 7 2^2 6^1 5)(3)(8^1)(9^2)", 3, 9
        )
        assert class_core(p, 3) == parse_cycles("(1^2 3^2 2)", 3, 3)

    def test_core_word_reconstruction(self):
        for ell, n, m in [(2, 4, 2), (3, 3, 2)]:
            for p in group(ell, n):
                if any(v > m for v in fixed_points(p)):
                    continue
                sig = class_signature(p, m)
                assert signature_insert(class_core(p, m), sig) == p

    def test_classes(self):
        for ell, n, m in [(2, 4, 2), (2, 3, 1)]:
            fam = [p for p in group(ell, n) if all(v <= m for v in fixed_points(p))]
            by_sig = {}
            for p in fam:
                by_sig.setdefault(class_signature(p, m), []).append(p)
            d = build_table(ell, n, "d")
            assert len(by_sig) == d.entry(n, m)
            for sig, cls in by_sig.items():
                assert len(cls) == ell**m * math.factorial(m)
                reps = {class_representative(p, m) for p in cls}
                assert len(reps) == 1
                assert reps.pop() in cls

    def test_representative_distinguishes(self):
        fam = [p for p in group(2, 4) if all(v <= 2 for v in fixed_points(p))]
        reps = {class_representative(p, 2) for p in fam}
        assert len(reps) == 37

    def test_domain_error(self):
        with pytest.raises(DomainError):
            class_signature(parse_one_line("1 2 3", 2), 1)
        with pytest.raises(DomainError):
            class_representative(parse_one_line("2 1", 2), -1)

    # Each case spoils the signature of (1 3)(2)(4) with m = 2, n = 4, 2 colors;
    # a letter is a value or a (value, color) pair.
    @pytest.mark.parametrize("error, words, omega", [
        (DomainError, [[3]], [[4]]),  # fewer than m words
        (ValueError, [[9], []], [[4]]),  # a letter above n
        (ValueError, [[3], [3]], [[4]]),  # a repeated value
        (ValueError, [[3], []], []),  # a missing value
        (ValueError, [[(3, 2)], []], [[4]]),  # a color >= ell
        (ValueError, [[3], []], [[4], []]),  # an empty omega cycle
    ])
    def test_malformed_signature(self, error, words, omega):
        def letters(seq):
            return tuple(ColoredSymbol(*x) if isinstance(x, tuple) else ColoredSymbol(x) for x in seq)

        good = ClassSignature(2, 4, 2, (letters([3]), ()), (letters([4]),))
        assert signature_insert(ColoredPermutation.identity(2, 2), good) == parse_cycles("(1 3)(2)(4)", 2, 4)
        sig = good._replace(
            words=tuple(map(letters, words)), omega=tuple(map(letters, omega))
        )
        with pytest.raises(ValueError) as info:
            signature_insert(ColoredPermutation.identity(2, 2), sig)
        assert type(info.value) is error

    def test_negative_size_signature(self):
        sig = ClassSignature(2, -3, 0, (), ())
        with pytest.raises(ValueError, match=r"^size must be >= 0, got -3$"):
            signature_insert(ColoredPermutation.identity(2, 0), sig)


def _signature_by_cycles(p, cycles, m):
    """``class_signature`` of ``p`` in its domain, with ``omega`` read off
    ``cycles = p.cycles()``."""
    words = []
    for i in range(1, m + 1):
        w, x = [], p.sigma[i - 1]
        while x > m:
            w.append(ColoredSymbol(x, p.colors[x - 1]))
            x = p.sigma[x - 1]
        words.append(tuple(w))
    omega = tuple(cyc for cyc in cycles if all(sym.value > m for sym in cyc))
    return ClassSignature(p.ell, p.n, m, tuple(words), omega)


def _insert_by_cycles(tau, sig):
    """``signature_insert`` through ``tau.cycles()`` and ``from_cycles``."""
    cycles = [
        [x for sym in cyc for x in (sym, *sig.words[sym.value - 1])] for cyc in tau.cycles()
    ]
    return ColoredPermutation.from_cycles(cycles + list(sig.omega), sig.ell, sig.n)


def _core_by_cycles(cycles, ell, m):
    """``class_core``: the cycles with every value above ``m`` erased."""
    kept = [[sym for sym in cyc if sym.value <= m] for cyc in cycles]
    return ColoredPermutation.from_cycles([c for c in kept if c], ell, m)


def _raises_domain_error(func, *args):
    try:
        func(*args)
    except DomainError:
        return True
    return False


@pytest.mark.parametrize("ell, n", [(ell, n) for ell in (1, 2, 3) for n in range(6)])
def test_prefix_class_maps_match_cycle_references(ell, n):
    """The prefix-class maps agree with their statements through cycle form;
    ``signature_insert`` does so for every ``tau`` at two colors up to n = 4."""
    representatives = {}  # signature -> its representative, by cycles
    for p in group(ell, n):
        cycles = p.cycles()
        top = max(fixed_points(p), default=0)
        for m in range(n + 1):
            assert class_core(p, m) == _core_by_cycles(cycles, ell, m), (str(p), m)
            if m < top:
                assert _raises_domain_error(class_signature, p, m), (str(p), m)
                assert _raises_domain_error(class_representative, p, m), (str(p), m)
                continue
            sig = _signature_by_cycles(p, cycles, m)
            assert class_signature(p, m) == sig, (str(p), m)
            if sig not in representatives:
                tau = ColoredPermutation.identity(ell, m)
                representatives[sig] = _insert_by_cycles(tau, sig)
            assert class_representative(p, m) == representatives[sig], (str(p), m)
    if ell <= 2 and n <= 4:
        for sig in representatives:
            for tau in group(ell, sig.m):
                assert signature_insert(tau, sig) == _insert_by_cycles(tau, sig), (str(tau), sig)


class TestIsolateStep:
    def test_worked_examples(self):
        p1 = parse_cycles("(1 6^2)(2)(3)(4)(5)(7^1 8^2)", 3, 8)
        out1 = isolate_forward(p1, 6, 9)
        assert out1[:2] == (0, 6)
        assert out1[2] == parse_cycles("(1 7^2)(2)(3)(4)(5)(6)(8^1 9^2)", 3, 9)
        assert isolate_inverse(*out1, 6) == p1

        p2 = parse_cycles("(1)(2 9^1 6^1 8^2)(3)(4)(5)(7^1)", 3, 9)
        out2 = isolate_forward(p2, 6, 9)
        assert out2[:2] == (1, 2)
        assert out2[2] == parse_cycles("(1)(2 9^1)(3)(4)(5)(7^1)(6 8^2)", 3, 9)
        assert isolate_inverse(*out2, 6) == p2

    def test_cardinality_identity(self):
        d = build_table(2, 3, "d")
        lhs = d.entry(3, 1) + d.entry(2, 1)
        assert lhs == 17 + 3 == 2 * 2 * d.entry(3, 2)

    def test_exhaustive_bijection(self):
        for ell, n in [(1, 4), (2, 4), (3, 3)]:
            for m in range(1, n + 1):
                dom = [p for p in group(ell, n - 1) if is_isolated_fixed(p, m - 1)]
                dom += [p for p in group(ell, n) if is_isolated_fixed(p, m - 1)]
                targets = set(members(ell, n, is_isolated_fixed, m))
                images = set()
                for p in dom:
                    eps, alpha, out = isolate_forward(p, m, n)
                    assert out in targets
                    key = (eps, alpha, out)
                    assert key not in images
                    images.add(key)
                    assert isolate_inverse(eps, alpha, out, m) == p
                full = {
                    (e, a, q)
                    for e in range(ell)
                    for a in range(1, m + 1)
                    for q in targets
                }
                assert images == full

    def test_domain_errors(self):
        p = parse_one_line("1 2 3", 2)
        with pytest.raises(DomainError):
            isolate_forward(p, 1, 4)  # fixed points escape [m-1]
        with pytest.raises(DomainError):
            isolate_inverse(0, 2, parse_one_line("2 1 3", 2), 1)  # anchor > m


# the full action of the derangement insertion for two colors, n = 3:
# rows are derangements one size down, columns the (color, anchor) pairs,
# None marking the one excluded input
TAU_TABLE_N3 = {
    "(1 2)": ["(1 3 2)", "(1 2 3)", None, "(1 3^1 2)", "(1 2 3^1)", "(1 2)(3^1)"],
    "(1^1 2)": [
        "(1^1 3 2)",
        "(1^1 2 3)",
        "(1^1)(3 2)",
        "(1^1 3^1 2)",
        "(1^1 2 3^1)",
        "(1^1 2)(3^1)",
    ],
    "(1 2^1)": [
        "(1 3 2^1)",
        "(1 2^1 3)",
        "(1 3)(2^1)",
        "(1 3^1 2^1)",
        "(1 2^1 3^1)",
        "(1 2^1)(3^1)",
    ],
    "(1^1 2^1)": [
        "(1^1 3 2^1)",
        "(1^1 2^1 3)",
        "(3^1 2)(1^1)",
        "(1^1 3^1 2^1)",
        "(1^1 2^1 3^1)",
        "(1^1 2^1)(3^1)",
    ],
    "(1^1)(2^1)": [
        "(1^1 3)(2^1)",
        "(1^1)(2^1 3)",
        "(3^1 1)(2^1)",
        "(1^1 3^1)(2^1)",
        "(1^1)(2^1 3^1)",
        "(1^1)(2^1)(3^1)",
    ],
}


class TestDerangementInsertion:
    def test_full_table_two_colors_n3(self):
        columns = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]
        for row, cells in TAU_TABLE_N3.items():
            p = parse_cycles(row, 2, 2)
            for (eps, k), cell in zip(columns, cells):
                if cell is None:
                    with pytest.raises(DomainError):
                        derangement_insert(eps, k, p)
                    continue
                out = derangement_insert(eps, k, p)
                assert out == parse_cycles(cell, 2, 3), (row, eps, k)
                assert derangement_remove(out) == (eps, k, p)

    def test_anchor_case_example(self):
        p = parse_cycles("(1^2 4^1 2)(3^2)(5^1 6^2 8 7^3)", 4, 8)
        out = derangement_insert(3, 3, p)
        assert out == parse_cycles("(1^2 4^1 2)(9^3 3^2)(5^1 6^2 8 7^3)", 4, 9)

    @pytest.mark.parametrize(
        "src,dst",
        [
            ("(1 2)(3 4)(5 6^2)(7^1 8^3)", "(1 2)(3 4)(6^2)(7^1 8^3)(9 5)"),
            ("(1 2)(3 4)(5 8^3)(6^2 7^1)", "(1 2)(3 4)(5 6^2 7^1)(9^3 8)"),
            ("(1 2)(3 4)(5 8^3 6^2 7^1)", "(1 2)(3 4)(5 8^3 6^2)(9^1 7)"),
            ("(1 2)(3 4)(5^2)(6^1 8^2 7)", "(1 2)(3 4)(9^2 5)(6^1 8^2 7)"),
            ("(1 2)(3 4)(5^2 8^2 7 6^1)", "(1 2)(3 4)(5^2 8^2 7)(9^1 6)"),
        ],
    )
    def test_slack_absorption_cases(self, src, dst):
        p = parse_cycles(src, 4, 8)
        out = derangement_insert(0, 9, p)
        assert out == parse_cycles(dst, 4, 9)
        assert derangement_remove(out) == (0, 9, p)

    def test_colored_letter_next_to_pair(self):
        # the displaced letter must return in front of a colored first pair
        # element as well
        p = parse_cycles("(1^1 2 3)", 2, 3)
        out = derangement_insert(0, 4, p)
        assert derangement_remove(out) == (0, 4, p)

    def test_exhaustive_bijection(self):
        for ell in (1, 2, 3):
            for n in (1, 2, 3, 4):
                derangements = [p for p in group(ell, n - 1) if is_derangement(p)]
                images = set()
                excluded = 0
                for eps, k, p in itertools.product(
                    range(ell), range(1, n + 1), derangements
                ):
                    try:
                        out = derangement_insert(eps, k, p)
                    except DomainError:
                        excluded += 1
                        continue
                    assert out.n == n and is_derangement(out)
                    assert out not in images
                    images.add(out)
                    assert derangement_remove(out) == (eps, k, p)
                target = {q for q in group(ell, n) if is_derangement(q)}
                if n % 2 == 0:
                    target.discard(all_two_cycles(ell, n))
                    assert excluded == 0
                else:
                    assert excluded == 1
                assert images == target

    def test_excluded_input_and_image_share_one_error(self):
        messages = set()
        for ell, n in itertools.product((1, 2, 3), range(1, 7)):
            with pytest.raises(DomainError) as exc:
                if n % 2:
                    derangement_insert(0, n, all_two_cycles(ell, n - 1))
                else:
                    derangement_remove(all_two_cycles(ell, n))
            messages.add(str(exc.value))
        assert messages == {
            "excluded: the all-2-cycles derangement, as an image or with color 0 at anchor n"
        }

    def test_exclusions(self):
        with pytest.raises(DomainError):
            derangement_insert(0, 3, parse_cycles("(1 2)", 1, 2))
        with pytest.raises(DomainError):
            derangement_remove(parse_cycles("(1 2)(3 4)", 1, 4))
        with pytest.raises(DomainError):
            derangement_insert(0, 1, parse_one_line("1 2", 2))  # not a derangement


class TestIsolatedInsertion:
    @pytest.mark.parametrize(
        "image,size,eps,alpha,preimage",
        [
            ("(1 5^2)(2)(3 6^1)(4 7^1)", 7, 0, 9, "(1)(2 6^2)(3)(4 7^1)(5 8^1)"),
            (
                "(1 5^2)(2 8^1)(3 6^1)(4 7^1)(9^2)",
                9,
                2,
                9,
                "(1 5^2)(2 8^1)(3 6^1)(4 7^1)",
            ),
            ("(1 5)(2 8^1)(3)(4 7^1)(9^2 6)", 9, 0, 9, "(1 6^2 5)(2 8^1)(3)(4 7^1)"),
            (
                "(1 5^2)(2 8^1)(6^1)(4)(9^2 7^1 3)",
                9,
                2,
                7,
                "(1 5^2)(2 8^1)(6^1)(4)(7^1 3)",
            ),
        ],
    )
    def test_worked_examples(self, image, size, eps, alpha, preimage):
        p2 = parse_cycles(image, 3, size)
        want = parse_cycles(preimage, 3, 8)
        assert isolated_remove(p2, 4, 9) == (eps, alpha, want)
        assert isolated_insert(eps, alpha, want, 4) == p2

    def test_exhaustive_bijection(self):
        for ell in (1, 2):
            for n in (2, 3, 4):
                for m in range(1, n):
                    dom = [p for p in group(ell, n - 1) if is_isolated_fixed(p, m)]
                    images = set()
                    for rho, alpha, p in itertools.product(
                        range(ell), range(1, n + 1), dom
                    ):
                        out = isolated_insert(rho, alpha, p, m)
                        assert out not in images
                        images.add(out)
                        assert isolated_remove(out, m, n) == (rho, alpha, p)
                    big = set(members(ell, n, is_isolated_fixed, m))
                    small = set(members(ell, n - 2, is_isolated_fixed, m - 1))
                    assert images == big | small

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            isolated_insert(0, 1, parse_one_line("2 1 3", 2), 1)  # fixed 3 > m
        with pytest.raises(DomainError):
            isolated_remove(parse_one_line("2 1", 2), 1, 5)  # size must be n or n-2


_Q = parse_one_line("2 3^1 4 1", 3)  # four letters, three colors


def _param(func, name, lo, hi, call):
    return pytest.param(call, name, lo, hi, id=f"{func.__name__}-{name}")


# Every int parameter of a map or predicate: its name in refusals, its interval
# [lo, hi] on _Q and a call with the other parameters inside their intervals.
_PARAMETERS = [
    _param(remove_max_succession, "m", 0, 3, lambda x: remove_max_succession(_Q, x, 0)),
    _param(remove_max_succession, "k", 0, 2, lambda x: remove_max_succession(_Q, 2, x)),
    _param(insert_max_succession, "m", 0, 4, lambda x: insert_max_succession(_Q, x, 0)),
    _param(insert_max_succession, "k", 0, 2, lambda x: insert_max_succession(_Q, 2, x)),
    _param(succession_decompose, "k", 0, 4, lambda x: succession_decompose(_Q, x)),
    _param(succession_compose, "k", 0, 4, lambda x: succession_compose((), _Q, x)),
    _param(class_signature, "m", 0, 4, lambda x: class_signature(_Q, x)),
    _param(class_core, "m", 0, 4, lambda x: class_core(_Q, x)),
    _param(isolated_to_increasing, "m", 0, 4, lambda x: isolated_to_increasing(_Q, x)),
    _param(increasing_to_isolated, "m", 0, 4, lambda x: increasing_to_isolated(_Q, x)),
    _param(isolate_forward, "n", 4, 5, lambda x: isolate_forward(_Q, 1, x)),
    _param(isolate_forward, "m", 1, 5, lambda x: isolate_forward(_Q, x, 5)),
    _param(isolate_inverse, "m", 1, 4, lambda x: isolate_inverse(0, 1, _Q, x)),
    _param(isolate_inverse, "anchor", 1, 2, lambda x: isolate_inverse(0, x, _Q, 2)),
    _param(isolate_inverse, "color", 0, 2, lambda x: isolate_inverse(x, 1, _Q, 2)),
    _param(derangement_insert, "color", 0, 2, lambda x: derangement_insert(x, 1, _Q)),
    _param(derangement_insert, "anchor", 1, 5, lambda x: derangement_insert(0, x, _Q)),
    _param(isolated_insert, "m", 1, 4, lambda x: isolated_insert(0, 1, _Q, x)),
    _param(isolated_insert, "color", 0, 2, lambda x: isolated_insert(x, 1, _Q, 2)),
    _param(isolated_insert, "anchor", 1, 5, lambda x: isolated_insert(0, x, _Q, 2)),
    _param(isolated_remove, "m", 1, 3, lambda x: isolated_remove(_Q, x, 4)),
    _param(is_increasing_fixed, "m", 0, 4, lambda x: is_increasing_fixed(_Q, x)),
    _param(is_isolated_fixed, "m", 0, 4, lambda x: is_isolated_fixed(_Q, x)),
]


_G = build_table(3, 4, "g")

# The same for every int parameter of an element, statistic or table accessor.
# ``apply`` reads only a symbol's value and color, so a stand-in symbol reaches
# its own rule with values that ``ColoredSymbol`` refuses first.
_ACCESSORS = [
    _param(
        ColoredPermutation.apply, "symbol value", 1, 4,
        lambda x: _Q.apply(SimpleNamespace(value=x, color=0)),
    ),
    _param(DifferenceTable.entry, "n", 0, 4, lambda x: _G.entry(x, 0)),
    _param(DifferenceTable.entry, "m", 0, 3, lambda x: _G.entry(3, x)),
    _param(g_closed_form, "m", 0, 4, lambda x: g_closed_form(3, 4, x)),
    _param(fixed_points, "above", 0, 4, lambda x: fixed_points(_Q, x)),
]


@pytest.mark.parametrize("call,name,lo,hi", _PARAMETERS + _ACCESSORS)
def test_parameter_rule(call, name, lo, hi):
    """A non-int parameter raises ``TypeError`` naming it; an int outside
    ``[lo, hi]`` raises ``DomainError`` from ``core._within``; at either end
    the parameter passes its rule."""
    for x in (True, 1.0):
        with pytest.raises(TypeError, match=f"^{name}: {x!r} is not an int$"):
            call(x)
    for x in (lo - 1, hi + 1):
        message = f"{name} must lie in [{lo}, {hi}], got {x}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as info:
            call(x)
        assert info.traceback[-1].frame.code.raw is core._within.__code__
    for x in (lo, hi):
        try:
            call(x)
        except DomainError as exc:
            assert "must lie in [" not in str(exc)


def test_open_ended_parameters():
    """``circular_successions`` takes any ``k >= 0`` and ``isolated_remove``
    any int ``n`` (its ``m`` interval is empty below 2); the acting group of
    ``prefix_action`` is its ``m``."""
    for x in (True, 1.0, 1.5):
        with pytest.raises(TypeError, match=f"^k: {x!r} is not an int$"):
            circular_successions(_Q, x)
        with pytest.raises(TypeError, match=f"^n: {x!r} is not an int$"):
            isolated_remove(_Q, 1, x)
    with pytest.raises(ValueError, match="^circular successions need k >= 0, got -1$"):
        circular_successions(_Q, -1)
    assert circular_successions(_Q, 5) == frozenset()
    with pytest.raises(DomainError, match=r"^m must lie in \[1, 0\], got 1$"):
        isolated_remove(_Q, 1, 1)
    with pytest.raises(DomainError, match=r"^m must lie in \[0, 4\], got 5$"):
        prefix_action(ColoredPermutation.identity(3, 5), _Q)


def _in_domain(func, *args):
    try:
        return func(*args)
    except DomainError:
        return None


@given(colored_perms(max_n=7))
def test_surgery_maps_random(p):
    """The three insertion steps land in their codomain and invert, past the
    sizes the exhaustive tests reach."""
    n, ell = p.n, p.ell
    for m, size in itertools.product(range(1, n + 2), (n, n + 1)):
        out = _in_domain(isolate_forward, p, m, size)
        if out is not None:
            eps, alpha, q = out
            assert q.n == size and is_isolated_fixed(q, m)
            assert isolate_inverse(eps, alpha, q, m) == p
    for eps, k in itertools.product(range(ell), range(1, n + 2)):
        q = _in_domain(derangement_insert, eps, k, p)
        if q is not None:
            assert q.n == n + 1 and is_derangement(q)
            assert derangement_remove(q) == (eps, k, p)
    for rho, alpha, m in itertools.product(range(ell), range(1, n + 2), range(1, n + 1)):
        q = _in_domain(isolated_insert, rho, alpha, p, m)
        if q is not None:
            # the image is m-isolated-fixed of size n+1, or one step down at n-1
            assert q.n in (n + 1, n - 1)
            assert is_isolated_fixed(q, m if q.n == n + 1 else m - 1)
            assert isolated_remove(q, m, n + 1) == (rho, alpha, p)


@functools.lru_cache(maxsize=None)
def _frozen_calls():
    """Every map with its argument tuples over ell=2, n<=3, one step past each range."""
    ell = 2
    elems = [p for n in range(4) for p in group(ell, n)]
    calls = {}

    def add(name, *args):
        calls.setdefault(name, []).append(args)

    for p in elems:
        n = p.n
        span = range(n + 2)
        add("foata", p.sigma)
        add("foata_inverse", p.sigma)
        add("colored_foata", p)
        add("colored_foata_inverse", p)
        add("derangement_remove", p)
        for m, k in itertools.product(span, span):
            add("remove_max_succession", p, m, k)
            add("insert_max_succession", p, m, k)
        for m in span:
            add("succession_decompose", p, m)
            add("class_signature", p, m)
            add("class_core", p, m)
            add("class_representative", p, m)
            add("isolated_to_increasing", p, m)
            add("increasing_to_isolated", p, m)
            for size in range(n, n + 3):
                add("isolate_forward", p, m, size)
                add("isolated_remove", p, m, size)
        for r in range(n + 3):
            for pos in itertools.combinations(range(1, n + 3), r):
                for k in span:
                    add("succession_compose", pos, p, k)
        for tau in elems:
            add("prefix_action", tau, p)
        for eps, a, m in itertools.product(range(ell + 1), range(n + 3), span):
            add("isolate_inverse", eps, a, p, m)
            add("isolated_insert", eps, a, p, m)
        for eps, k in itertools.product(range(ell + 1), range(n + 3)):
            add("derangement_insert", eps, k, p)
    for p in elems:
        for m in range(p.n + 1):
            if all(v <= m for v in fixed_points(p)):
                sig = class_signature(p, m)
                for tau in group(ell, m):
                    add("signature_insert", tau, sig)
    return calls


# sha256 of the "args -> repr(output)" lines of each map ("!" and the exception
# type on failure).  A changed digest means the map computes a different
# bijection or has a different domain.
FROZEN_IMAGES = {
    "class_core": "9cd7cb96aa6b2f896cd9fffeb63efdf5ae93c5c06a18eac7f2b66453fe60d77a",
    "class_representative": "1dcea9b96f31ae4e5a866e7a019f5de427b0626fed1e09de91d032ae3ad86f03",
    "class_signature": "dd74bcc88d538c888e45c9318feab1d515797eaf4d4ac7d42b514f6a8af0ec18",
    "colored_foata": "83c58b5a81c97915cf50f51f8aaeec600b79401cfa548a504cfb57015909bcbf",
    "colored_foata_inverse": "72d095f32ac94be8969b3fb7bf1a88fed4576154d9916217095865ff42aad1ed",
    "derangement_insert": "0cdf9d5cf121c91613aa243bc8937a84a528eb0e477fc46095aa164750bf4778",
    "derangement_remove": "7bccf7b9cf5e9bffaf7b42ae01cd192df4b089be60d2be5362aec98a45249dcd",
    "foata": "ba0b47f14cf8a7585d19c6263e277319109b681466db5275c761f8eec77d7c05",
    "foata_inverse": "ac1ce0dbe4d32b4ab35d3a4a59c4bc6a85e51e6dbe70b34dc0724c939e569af2",
    "increasing_to_isolated": "72e6fc12a884ddfa32a038e4557237387ca2babd162420eea05f99f9b3ebc357",
    "insert_max_succession": "ccf8a7bc22587ff8b37088bffc530e980774cb0acf99879355522944424b307b",
    "isolate_forward": "89f41314486406b61a77dd9560d5ec6635285fb02c9ad4dc461c03176c4a9f0c",
    "isolate_inverse": "42b0d7a260cfec40d28d58266ee09a2fe8b9b664d98748c74602f19de609204a",
    "isolated_insert": "5aab95ed495897d70169984e0049b403b0bf8a47903fa5441afbb6c6c3ed6601",
    "isolated_remove": "d2a45a53445a2785c1f1b88cd838289821a0dec7c2b8b11dd17f3deb5b150b2b",
    "isolated_to_increasing": "7c81b27f9093b056c3cc1065c0f95caf8c06fb5e6ffe5b05104d772f196193d7",
    "prefix_action": "2730c264744bfabd3cb9e47805d26eea6562292298d33edb1648d5dfc6de720e",
    "remove_max_succession": "23a1b6fbea4ab1f13c581b7f837e3ed1381c9e40439f7fbc48accb0c99e6bdb5",
    "signature_insert": "d66cad91523fd5097bb29d68ef3d10166af9e5dabf90df52cbc7531fe2e6447c",
    "succession_compose": "9d83e8fa7edad10937f07da1fe6719fcbb0c10287210afa3a87b2ee5b1fb31c7",
    "succession_decompose": "f1753153dc5415623ab45c118fb483c039cc67bc0337c6e8989613d08ddc61bd",
}


@pytest.mark.parametrize("name", sorted(FROZEN_IMAGES))
def test_frozen_images(name):
    func = getattr(bijections, name)
    digest = hashlib.sha256()
    for args in _frozen_calls()[name]:
        try:
            out = repr(func(*args))
        except Exception as exc:  # the domain is part of what is frozen
            out = f"!{type(exc).__name__}"
        digest.update(f"{args!r} -> {out}\n".encode())
    assert digest.hexdigest() == FROZEN_IMAGES[name]
