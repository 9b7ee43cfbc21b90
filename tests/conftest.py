import functools
import sys
import tracemalloc

import hypothesis.strategies as st

from wreathperm import ColoredPermutation, element_at, enumerate_group, enumeration, verify_suite

# Every counting kernel as imported, before a test replaces one in its registry.
_KERNELS = {**enumeration._SUCCESSION_KERNELS, **enumeration._FAMILY_KERNELS}


@functools.lru_cache(maxsize=None)
def group(ell: int, n: int) -> tuple[ColoredPermutation, ...]:
    """Cached full enumeration, shared across tests."""
    return tuple(enumerate_group(ell, n))


def row_bytes(row: tuple[int, ...]) -> int:
    """Memory held by one table row: the tuple and its ints."""
    return sys.getsizeof(row) + sum(map(sys.getsizeof, row))


def traced_peak(run) -> int:
    """Peak bytes the Python allocator held while ``run()`` ran."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def at_k(pairs, k: int) -> tuple[int, ...]:
    """The sorted values of the ``(k, value)`` pairs at one ``k``."""
    return tuple(sorted(v for j, v in pairs if j == k))


def _codes(side, colors):
    """The codes of the candidates ``(test, code)`` of ``side`` whose test
    passes, in order: ``colors`` is indexed by value, with value 0 uncolored."""
    return [code for (a, b), code in side if colors[a] == colors[b]]


def _sides_reference(sides, ell, n):
    """The counterexample an element-by-element scan gives: the first element
    whose two sides ``sides(sigma)``, each asking its own tests, keep
    different codes, at their smallest k.  Each permutation's two lists are read once."""
    sides = functools.cache(sides)
    for index, p in enumerate(group(ell, n)):
        got, expected = (set(_codes(side, (0,) + p.colors)) for side in sides(p.sigma))
        if got != expected:
            return {"index": index, "perm": str(p), "k": min(got ^ expected) // (n + 1)}
    return None


def _force_pool(monkeypatch):
    """Pool every tally, in up to two workers, as on a host with two usable CPUs."""
    monkeypatch.setattr(enumeration, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(enumeration, "_usable_cpus", lambda: 2)


def _failures(suite):
    """``(check, ell, n, counterexample)`` of each failed check of ``suite`` on the
    1- and 2-color groups on up to 4 letters, the same at one and two workers."""
    reports = [verify_suite(suite, 2, 4, jobs=jobs) for jobs in (1, 2)]
    assert reports[0] == reports[1]
    return [(r.check, r.ell, r.n, r.counterexample) for r in reports[0] if not r.passed]


def _counterexample(ell, n, index, k):
    """The counterexample ``verify`` gives for the element at ``index``, failing at ``k``."""
    return {"index": index, "perm": str(element_at(ell, n, index)), "k": k}


@st.composite
def colored_perms(draw, max_ell=4, max_n=6, min_n=0):
    ell = draw(st.integers(1, max_ell))
    n = draw(st.integers(min_n, max_n))
    sigma = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n)))
    return ColoredPermutation(ell, sigma, colors)
