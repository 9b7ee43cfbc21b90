"""Every check ``verify`` runs can fail: one table of faults, each put into a counting kernel
through ``_faulty`` or into ``tables.table_rows``, and what e22 and e43 report of a fault."""

import inspect
import time
from functools import partial
from itertools import permutations

import pytest

from wreathperm import BudgetError, element_at, enumeration, tables, verify_suite

from conftest import _KERNELS, _counterexample, _failures, _force_pool, _sides_reference

_FAMILIES = enumeration._FAMILY_KERNELS


def _faulty(name, words, start, fault, sigma):
    """The kernel ``name``'s candidates, ``fault(candidates, n + 1, family)`` applied to those
    from ``start`` on when ``sigma`` is in ``words``.  ``partial(_faulty, ...)`` is a kernel
    the pool can pickle, and it reads the kernels as imported, not the registry."""
    candidates = _KERNELS[name](sigma)
    if sigma not in words:
        return candidates
    return candidates[:start] + fault(candidates[start:], len(sigma) + 1, name in _FAMILIES)


def _install(monkeypatch, name, words, start, fault):
    """Put ``_faulty`` in the registry in place of the kernel ``name``."""
    registry = next(r for r in (enumeration._SUCCESSION_KERNELS, _FAMILIES) if name in r)
    monkeypatch.setitem(registry, name, partial(_faulty, name, words, start, fault))


def _fault(shape, candidates, w, family):
    """``candidates`` with a fault of one ``shape``: ``drop`` the last; ``add`` a fixed
    point 2, or a 2-succession of value 2; move the last ``code`` one chain position later,
    or one k higher; move the last ``test`` to ``(0, 1)``, or to ``(0, 2)`` if it was that."""
    *kept, (test, code) = candidates
    return {
        "drop": kept,
        "add": candidates + [((0, 2), 2 if family else 2 * w + 2)],
        "code": kept + [(test, code - 1 if family else code + w)],
        "test": kept + [((0, 2) if test == (0, 1) else (0, 1), code)],
    }[shape]


def _zeros(ks, candidates, w, family):
    """``candidates`` and, at each k in ``ks``, one of value 0, which no kernel lists; its test
    ``(0, 1)`` passes at offset 0 of a block."""
    return candidates + [((0, 1), k * w) for k in ks]


# Every fault, by what it patches: a kernel and its fault's shape on 3 4 1 2, or a flavor and
# the coefficient of ``tables.table_rows`` whose 1 becomes 2.  Then the rows it fails in
# verify_suite("all", 2, 4), each check@n (a rec identity has no n), at ell 1 and 2 (a moved
# test at ell 2 only); and where e22 or e43 reports it: the offset in 3 4 1 2's block, the k.
_MATRIX = {
    ("circular", "drop"): ("t2@4 t3@3 c7@3 l45@4 e43@4", (0, 1)),
    ("circular", "add"): ("t3@3 c7@3 l45@4 e43@4", (0, 1)),
    ("circular", "code"): ("t2@4 t3@3 c7@3 l45@4 e43@4", (0, 1)),
    ("circular", "test"): ("e43@4", (1, 1)),
    ("linear", "drop"): ("c7@3 e22@4", (0, 1)),
    ("linear", "add"): ("c7@3 e22@4", (0, 2)),
    ("linear", "code"): ("c7@3 e22@4", (0, 1)),
    ("linear", "test"): ("e22@4", (4, 1)),
    ("skewLinear", "drop"): ("e22@4", (0, 1)),
    ("skewLinear", "add"): ("e22@4", (0, 2)),
    ("skewLinear", "code"): ("e22@4", (0, 1)),
    ("skewLinear", "test"): ("e22@4", (4, 1)),
    ("increasing", "drop"): ("t9@4", None),
    ("increasing", "add"): ("t9@4", None),
    ("increasing", "code"): ("t9@4", None),
    ("increasing", "test"): ("", None),
    ("isolated", "drop"): ("t11@4", None),
    ("isolated", "add"): ("t11@4", None),
    ("isolated", "code"): ("t11@4", None),
    ("isolated", "test"): ("t11@4", None),
    ("g", "top * ell * (n + 1)"): ("t2@1 t2@2 t2@3 t2@4 l45@1 l45@2 l45@3 l45@4 "
                                   "g_rec_two_prev_rows g_rec_prev_row_diag g_rec_three_term "
                                   "boundary_values g_equals_scaled_d", None),
    ("d", "ell * (m + 1) * x"): ("t9@1 t9@2 t9@3 t9@4 t11@1 t11@2 t11@3 t11@4 "
                                 "d_rec_two_prev_rows d_rec_three_term d_rec_column0_parity "
                                 "boundary_values g_equals_scaled_d", None),
}
# The faults no row fails.  The increasing kernel's moved test asks whether 1, not 4, is
# uncolored; each value is colored on its own, so every count stays, and no identity reads
# the increasing kernel twice.  Only a row comparing it with statistics.py could see it.
_UNCAUGHT = (("increasing", "test"),)


@pytest.mark.parametrize("target,fault", _MATRIX)
def test_fault_matrix(monkeypatch, target, fault):
    """Each fault fails exactly its rows, and one at least unless it is uncaught, alike at one
    worker and at two in a pool."""
    rows, found = _MATRIX[target, fault]
    if target in _KERNELS:
        _install(monkeypatch, target, {(3, 4, 1, 2)}, 0, partial(_fault, fault))
    else:
        source = inspect.getsource(tables.table_rows)
        assert source.count(fault) == 1, fault
        namespace, wrong = dict(vars(tables)), source.replace(fault, fault.replace("+ 1", "+ 2"))
        exec(compile(wrong, tables.__file__, "exec"), namespace)
        monkeypatch.setattr(tables, "table_rows", namespace["table_rows"])
    _force_pool(monkeypatch)
    failed = _failures("all")
    ells = (2,) if fault == "test" else (1, 2)  # every test passes at ell = 1
    named = [word.partition("@") for word in rows.split()]
    assert {row[:3] for row in failed} == {
        (check, ell, int(n) if n else None) for check, _, n in named for ell in ells}
    assert bool(failed) != ((target, fault) in _UNCAUGHT)
    for check, ell, _, counterexample in failed:
        if check in ("e22", "e43"):
            assert counterexample == _counterexample(ell, 4, 16 * ell**4 + found[0], found[1])


# Each side of e22 and e43 by the kernel it reads: its suite, that kernel, the permutation whose
# side it is, the word it reads the kernel on and the first candidate it keeps.  The rotated side
# is that of 2 4 1 3, which reads 3 2 4 1 less its first candidate: 3 4 1 2's rotation 2 3 4 1
# comes first and its own first side keeps every candidate, so it would report a fault there.
_SIDES = {
    "e22-skew": ("e22", "skewLinear", (3, 4, 1, 2), (3, 4, 1, 2), 0),
    "e22-linear": ("e22", "linear", (3, 4, 1, 2), (3, 4, 1, 2), 0),
    "e43-circular": ("e43", "circular", (3, 4, 1, 2), (3, 4, 1, 2), 0),
    "e43-rotated": ("e43", "circular", (2, 4, 1, 3), (3, 2, 4, 1), 1),
}


@pytest.mark.parametrize("fault", ["drop", "add", "code", "test"])
@pytest.mark.parametrize("side", _SIDES)
def test_side_faults_match_reference(monkeypatch, side, fault):
    """A fault in the candidates that one side of e22 or e43 of one permutation keeps, put in
    the kernel on the word that side reads, is reported at that permutation where an element-by-
    element scan of each side's own tests finds it, at every ell <= 3 and n <= 5 and at one and
    two workers.  A moved test still passes on the one-color group, where every test passes."""
    suite, name, owner, word, start = _SIDES[side]
    _install(monkeypatch, name, {word}, start, partial(_fault, fault))
    _force_pool(monkeypatch)
    sides = getattr(enumeration, f"_{suite}_sides")
    expected = [(ell, n, _sides_reference(sides, ell, n)) for ell in range(1, 4) for n in range(6)]
    failing = [ell for ell, _, found in expected if found]
    assert failing == ([2, 3] if fault == "test" else [1, 2, 3])
    assert all(element_at(ell, n, found["index"]).sigma == owner
               for ell, n, found in expected if found)
    for jobs in (1, 2):
        reports = verify_suite(suite, 3, 5, jobs=jobs)
        assert [(r.ell, r.n, r.counterexample) for r in reports] == expected


@pytest.mark.parametrize("suite,name,first_k,bad_indices", [
    ("e22", "skewLinear", 1, (100, 300)),  # one per partition
    ("e22", "skewLinear", 1, (300,)),  # second partition only
    ("e43", "circular", 0, (100, 300)),
    ("e43", "circular", 0, (300,)),
])
def test_counterexample_independent_of_jobs(monkeypatch, suite, name, first_k, bad_indices):
    """A kernel that gains a candidate at every k from ``first_k`` on the words of chosen elements
    of the 2-color group on 4 letters is reported at the first failing element at any number of
    workers.  The ell = 1 decision is split in two partitions of 12 permutations."""
    bad = {element_at(2, 4, i).sigma for i in bad_indices}
    _install(monkeypatch, name, bad, 0, partial(_zeros, range(first_k, 5)))
    _force_pool(monkeypatch)
    # e43 also sees a broken list when the rotated word is a bad one
    failing = bad | {w[1:] + w[:1] for w in bad} if suite == "e43" else bad
    rank = min(list(permutations(range(1, 5))).index(w) for w in failing)
    expected = [(suite, ell, 4, _counterexample(ell, 4, rank * ell**4, first_k)) for ell in (1, 2)]
    assert _failures(suite) == expected


@pytest.mark.parametrize("suite,name,broken_k,reported_k", [
    ("e22", "skewLinear", 2, 2),
    ("e43", "circular", 3, 2),  # e43 compares k + 1 of p with k of its rotation
])
def test_counterexample_reports_smallest_failing_k(monkeypatch, suite, name, broken_k, reported_k):
    """A kernel that gains a candidate at one k only is reported at that k, not at the first k
    the suite compares."""
    bad = element_at(2, 4, 256).sigma  # 3 4 1 2; its left rotation comes later
    _install(monkeypatch, name, {bad}, 0, partial(_zeros, [broken_k]))
    _force_pool(monkeypatch)
    expected = [(suite, ell, 4, _counterexample(ell, 4, 16 * ell**4, reported_k)) for ell in (1, 2)]
    assert _failures(suite) == expected


def test_sides_scan_bounded_by_budget(monkeypatch):
    """A skew kernel whose list is reversed makes e22's sides differ on every permutation with
    two candidates, yet keep the same codes, so no element fails.  The colorings of the
    permutations to scan are sized before any is read: 119 of the 120 on 5 letters, times 2^5,
    exceed a budget of 2000."""
    every = {s for n in range(7) for s in permutations(range(1, n + 1))}
    _install(monkeypatch, "skewLinear", every, 0, lambda candidates, w, family: candidates[::-1])
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^the scan of 3808 colorings with ell=2, n=5 exceeds"):
        verify_suite("e22", 3, 6, budget=2000)
    assert time.perf_counter() - start < 1
