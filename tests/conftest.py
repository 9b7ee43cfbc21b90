import functools

import hypothesis.strategies as st

from wreathperm import ColoredPermutation, enumerate_group


@functools.lru_cache(maxsize=None)
def group(ell: int, n: int) -> tuple[ColoredPermutation, ...]:
    """Cached full enumeration, shared across tests."""
    return tuple(enumerate_group(ell, n))


def at_k(pairs, k: int) -> tuple[int, ...]:
    """The sorted values of the ``(k, value)`` pairs at one ``k``."""
    return tuple(sorted(v for j, v in pairs if j == k))


@st.composite
def colored_perms(draw, max_ell=4, max_n=6, min_n=0):
    ell = draw(st.integers(1, max_ell))
    n = draw(st.integers(min_n, max_n))
    sigma = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n)))
    return ColoredPermutation(ell, sigma, colors)
