"""Acceptance suite: every criterion at its stated tolerance and time limit.

Each test prints one ``ACCEPTANCE <k> (<name>): PASS/FAIL`` line (run pytest
with ``-s`` to see them).  All equalities are exact; the limits are wall
times for the criterion body.
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import pytest

import wreathperm.cli as cli
from wreathperm import enumeration
from wreathperm import (
    CIRCULAR,
    LINEAR,
    DomainError,
    build_table,
    bounded_matrix,
    check_recurrences,
    circular_pairs,
    circular_successions,
    colored_foata,
    colored_foata_inverse,
    derangement_insert,
    derangement_number,
    derangement_remove,
    distribution_matrix,
    egf_coefficient,
    enumerate_group,
    family_counts,
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
    remove_max_succession,
    rotate_right,
    skew_linear_pairs,
    succession_compose,
    succession_decompose,
)

from conftest import group
from test_bijections import TAU_TABLE_N3
from test_tables import D_TABLE_1, D_TABLE_2, G_TABLE_1, G_TABLE_2


@contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL"
    print(
        f"\nACCEPTANCE {num} ({name}): {verdict} "
        f"in {elapsed * 1000:.1f} ms (limit {limit_s * 1000:.0f} ms)"
    )
    if not ok:
        raise AssertionError(f"criterion {num} took {elapsed:.3f}s > {limit_s}s")


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction", 0.001):
        assert [list(r) for r in build_table(1, 5, "g").rows] == G_TABLE_1
        assert [list(r) for r in build_table(2, 5, "g").rows] == G_TABLE_2
        assert [list(r) for r in build_table(1, 5, "d").rows] == D_TABLE_1
        assert [list(r) for r in build_table(2, 5, "d").rows] == D_TABLE_2


def test_criterion_2_bounded_successions_count_g():
    with criterion(2, "bounded successions equal g entries, all k", 5.0):
        for ell in (1, 2, 3):
            for n in range(6):
                g = build_table(ell, n, "g")
                matrix = bounded_matrix(ell, n)
                for k in range(n + 1):
                    running = 0
                    for m in range(n + 1):
                        running += matrix[k][m]
                        if k <= m:
                            assert running == g.entry(n, m), (ell, n, k, m)


def test_criterion_3_three_term_relations():
    with criterion(3, "three-term relations for circular and linear counts", 5.0):
        circ = {}
        lin = {}
        for ell in (1, 2, 3):
            for size in range(6):
                circ[ell, size] = distribution_matrix(ell, size, CIRCULAR)
                if size >= 1:
                    lin[ell, size] = distribution_matrix(ell, size, LINEAR)
        for ell in (1, 2, 3):
            for n in range(1, 5):
                cur = circ[ell, n + 1]
                prev = [row + (0,) for row in circ[ell, n]]
                lcur = lin[ell, n + 1]
                for k in range(n + 1):
                    for m in range(n + 2):
                        rhs = cur[k][m] + prev[k][m] - (prev[k][m - 1] if m else 0)
                        assert cur[k + 1][m] == rhs, ("circ", ell, n, k, m)
                        assert lcur[k + 1][m] == rhs, ("lin", ell, n, k, m)


def test_criterion_4_succession_product_formula():
    with criterion(4, "succession counts factor through binomials", 5.0):
        for ell in (1, 2, 3):
            for n in range(6):
                g = build_table(ell, n, "g")
                matrix = distribution_matrix(ell, n, CIRCULAR)
                for m in range(n + 1):
                    for k in range(n - m + 1):
                        expected = math.comb(n - k, m) * g.entry(n - m, k)
                        assert matrix[k][m] == expected, (ell, n, k, m)


def test_criterion_5_family_counts_match_d():
    with criterion(5, "increasing/isolated families counted by d entries", 5.0):
        for ell in (1, 2, 3):
            for n in range(6):
                d = build_table(ell, n, "d")
                inc = family_counts(ell, n, "increasing")
                iso = family_counts(ell, n, "isolated")
                for m in range(n + 1):
                    assert inc[m] == d.entry(n, m), ("inc", ell, n, m)
                    assert iso[m] == d.entry(n, m), ("iso", ell, n, m)
        # literal five-element families
        inc_fam = {str(p) for p in group(2, 3) if is_increasing_fixed(p, 2)}
        assert inc_fam == {"1 2 3^1", "1 3 2", "1 3 2^1", "2 3 1", "2 3 1^1"}
        iso_fam = {p for p in group(2, 3) if is_isolated_fixed(p, 2)}
        assert iso_fam == {
            parse_cycles(t, 2, 3)
            for t in ["(1)(2)(3^1)", "(1 3)(2)", "(1 3^1)(2)", "(1)(2 3)", "(1)(2 3^1)"]
        }


def _roundtrip_foata():
    for sigma in itertools.permutations(range(1, 7)):
        assert foata_inverse(foata(sigma)) == sigma


def _roundtrip_colored_foata():
    fixture = parse_one_line("3^1 4 9^1 8^1 7 5^1 6 2^2 1^2", 4, 9)
    image = colored_foata(fixture)
    assert str(image) == "1^2 3^3 9 2^2 4^2 8^3 6 5^1 7^1"
    assert colored_foata_inverse(image) == fixture
    for ell in (1, 2, 3):
        for n in range(5):
            for p in group(ell, n):
                out = colored_foata(p)
                assert colored_foata_inverse(out) == p
                assert {(k, v) for k, v in circular_pairs(p) if k} == linear_pairs(out)
                if n:
                    shifted = {(k + 1, v) for k, v in circular_pairs(rotate_right(p))}
                    assert shifted == skew_linear_pairs(out)


def _roundtrip_max_succession():
    for ell, n in [(1, 4), (2, 4), (3, 4)]:
        for k in range(n):
            for m in range(k, n):
                for p in group(ell, n):
                    vals = circular_successions(p, k)
                    if not vals or max(vals) != m + 1:
                        continue
                    out = remove_max_succession(p, m, k)
                    assert all(v <= m for v in circular_successions(out, k))
                    assert insert_max_succession(out, m, k) == p


def _roundtrip_decomposition():
    for ell, n in [(1, 4), (2, 4), (3, 3)]:
        for k in range(n + 1):
            for p in group(ell, n):
                dec = succession_decompose(p, k)
                assert succession_compose(dec.positions, dec.reduced, k) == p
                if k <= dec.reduced.n:
                    assert not circular_successions(dec.reduced, k)


def _roundtrip_isolated_increasing():
    for ell, n in [(1, 4), (2, 4), (3, 3)]:
        for m in range(n + 1):
            images = set()
            for p in group(ell, n):
                if not is_isolated_fixed(p, m):
                    continue
                out = isolated_to_increasing(p, m)
                assert is_increasing_fixed(out, m)
                images.add(out)
                assert increasing_to_isolated(out, m) == p
            expected = {p for p in group(ell, n) if is_increasing_fixed(p, m)}
            assert images == expected


def _roundtrip_isolate():
    for ell, n in [(1, 4), (2, 4), (3, 3)]:
        for m in range(1, n + 1):
            dom = [p for p in group(ell, n - 1) if is_isolated_fixed(p, m - 1)]
            dom += [p for p in group(ell, n) if is_isolated_fixed(p, m - 1)]
            targets = {p for p in group(ell, n) if is_isolated_fixed(p, m)}
            images = set()
            for p in dom:
                eps, alpha, out = isolate_forward(p, m, n)
                assert out in targets
                images.add((eps, alpha, out))
                assert isolate_inverse(eps, alpha, out, m) == p
            assert len(images) == ell * m * len(targets)


def _roundtrip_derangement_insertion():
    columns = [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]
    for row, cells in TAU_TABLE_N3.items():
        p = parse_cycles(row, 2, 2)
        for (eps, k), cell in zip(columns, cells):
            if cell is None:
                with pytest.raises(DomainError):
                    derangement_insert(eps, k, p)
            else:
                assert derangement_insert(eps, k, p) == parse_cycles(cell, 2, 3)
    for ell in (1, 2, 3):
        for n in (1, 2, 3, 4):
            derangements = [p for p in group(ell, n - 1) if is_derangement(p)]
            images = set()
            for eps, k, p in itertools.product(
                range(ell), range(1, n + 1), derangements
            ):
                try:
                    out = derangement_insert(eps, k, p)
                except DomainError:
                    continue
                assert is_derangement(out)
                images.add(out)
                assert derangement_remove(out) == (eps, k, p)
            expected = len([q for q in group(ell, n) if is_derangement(q)])
            assert len(images) == expected - (1 if n % 2 == 0 else 0)


def _roundtrip_isolated_insertion():
    for ell in (1, 2):
        for n in (2, 3, 4):
            for m in range(1, n):
                dom = [p for p in group(ell, n - 1) if is_isolated_fixed(p, m)]
                images = set()
                for rho, alpha, p in itertools.product(
                    range(ell), range(1, n + 1), dom
                ):
                    out = isolated_insert(rho, alpha, p, m)
                    images.add(out)
                    assert isolated_remove(out, m, n) == (rho, alpha, p)
                big = {q for q in group(ell, n) if is_isolated_fixed(q, m)}
                small = {q for q in group(ell, n - 2) if is_isolated_fixed(q, m - 1)}
                assert images == big | small


def test_criterion_6_bijection_roundtrips():
    with criterion(6, "bijection roundtrips and codomains", 30.0):
        _roundtrip_foata()
        _roundtrip_colored_foata()
        _roundtrip_max_succession()
        _roundtrip_decomposition()
        _roundtrip_isolated_increasing()
        _roundtrip_isolate()
        _roundtrip_derangement_insertion()
        _roundtrip_isolated_insertion()


def test_criterion_7_closed_forms():
    with criterion(7, "closed forms, EGF coefficients, derangement numbers", 1.0):
        for ell in range(1, 6):
            table = build_table(ell, 25, "g")
            for n in range(26):
                for m in range(n + 1):
                    assert g_closed_form(ell, n, m) == table.entry(n, m)
                assert derangement_number(ell, n) == table.entry(n, 0)
        for ell in range(1, 5):
            table = build_table(ell, 12, "g")
            for m in range(13):
                for n in range(13 - m):
                    assert egf_coefficient(ell, m, n) == table.entry(n + m, m)


def test_criterion_8_recurrence_suite():
    with criterion(8, "recurrences and divisibility up to 30 rows", 1.0):
        for ell in range(1, 6):
            for result in check_recurrences(ell, 30):
                assert result.passed, (ell, result.check, result.counterexample)


def test_criterion_9_deterministic_reports(capsys, monkeypatch):
    with criterion(9, "verify reports identical at any worker count", 60.0):
        args = ["verify", "--suite", "all", "--colors-max", "2", "--n-max", "4"]
        assert cli.main(args + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert cli.main(args + ["--jobs", "3"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload and all(entry["status"] == "pass" for entry in payload)
        # counts merged from the worker pool are exact
        monkeypatch.setattr(enumeration, "_PARALLEL_THRESHOLD", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = distribution_matrix(3, 5, CIRCULAR, jobs=2)
        serial = distribution_matrix(3, 5, CIRCULAR, jobs=1)
        assert pooled == serial
