"""Library-level workload steps that no single CLI call can express.

    python3 perfbench/libwork.py roundtrip ELL N
    python3 perfbench/libwork.py closed ELL MAX_N
    python3 perfbench/libwork.py stream ELL N

``roundtrip`` sends every element of the group with ``ELL`` colors on ``N``
letters forward and back through each bijection (trying every parameter
value, so maps reject what lies outside their domain) and through both text
forms and the group operations.  ``closed`` checks every ``g`` table entry up
to ``MAX_N`` against the alternating-sum closed form and the EGF coefficient.

Both print one JSON line: per map ``[attempted, in_domain, mismatches]``, the
number of elements or entries covered, and a digest of every forward output.
``stream`` times a plain pass of ``enumerate_range`` over (at most the first
``STREAM_ELEMENTS`` elements of) the group and prints the median nanoseconds
per element over a few passes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

from wreathperm import bijections as bij
from wreathperm.core import (
    ColoredPermutation,
    DomainError,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    rotate_left,
    rotate_right,
)
from wreathperm.enumeration import enumerate_group, enumerate_range, group_size
from wreathperm.tables import build_table, egf_coefficient, g_closed_form

BUDGET = 100_000_000
STREAM_ELEMENTS = 50_000
STREAM_PASSES = 3


class _Tally:
    def __init__(self):
        self.maps: dict[str, list[int]] = {}
        self.digest = hashlib.sha256()

    def record(self, name: str, fwd, check) -> None:
        """Count one attempt of map ``name``; ``fwd()`` may raise DomainError,
        ``check(out)`` says whether the way back restores the input."""
        row = self.maps.setdefault(name, [0, 0, 0])
        row[0] += 1
        try:
            out = fwd()
        except DomainError:
            return
        row[1] += 1
        self.digest.update(f"{name}:{_plain(out)};".encode())
        if not check(out):
            row[2] += 1


def _plain(value):
    """Canonical text of a map output without calling into the library."""
    if isinstance(value, ColoredPermutation):
        return (value.sigma, value.colors)
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    if isinstance(value, bij.SuccessionDecomposition):
        return (value.positions, _plain(value.reduced))
    return value


def roundtrip(ell: int, n: int) -> dict:
    t = _Tally()
    elements = 0
    for p in enumerate_group(ell, n, budget=BUDGET):
        elements += 1
        t.record("delta", lambda: rotate_right(p), lambda q: rotate_left(q) == p)
        t.record(
            "foata",
            lambda: bij.foata(p.sigma),
            lambda w: bij.foata_inverse(w) == p.sigma,
        )
        t.record(
            "phi",
            lambda: bij.colored_foata(p),
            lambda q: bij.colored_foata_inverse(q) == p,
        )
        for k in range(n):
            for m in range(k, n):
                t.record(
                    "rho",
                    lambda: bij.remove_max_succession(p, m, k),
                    lambda q: bij.insert_max_succession(q, m, k) == p,
                )
        for k in range(n + 1):
            t.record(
                "decompose",
                lambda: bij.succession_decompose(p, k),
                lambda d: bij.succession_compose(d.positions, d.reduced, k) == p,
            )
        for m in range(n + 1):
            t.record(
                "isolated",
                lambda: bij.isolated_to_increasing(p, m),
                lambda q: bij.increasing_to_isolated(q, m) == p,
            )
            t.record(
                "representative",
                lambda: bij.class_representative(p, m),
                lambda r: bij.signature_insert(
                    bij.class_core(p, m), bij.class_signature(p, m)
                )
                == p
                and bij.class_signature(r, m) == bij.class_signature(p, m),
            )
        for size in (n, n + 1):
            for m in range(1, size + 1):
                t.record(
                    "vartheta",
                    lambda: bij.isolate_forward(p, m, size),
                    lambda r: bij.isolate_inverse(r[0], r[1], r[2], m) == p,
                )
        for eps in range(ell):
            for k in range(1, n + 2):
                t.record(
                    "tau",
                    lambda: bij.derangement_insert(eps, k, p),
                    lambda q: bij.derangement_remove(q) == (eps, k, p),
                )
            for m in range(1, n + 1):
                for alpha in range(1, n + 2):
                    t.record(
                        "drec3",
                        lambda: bij.isolated_insert(eps, alpha, p, m),
                        lambda q: bij.isolated_remove(q, m, n + 1) == (eps, alpha, p),
                    )
        t.record(
            "one_line",
            lambda: format_one_line(p),
            lambda s: parse_one_line(s, ell, n) == p,
        )
        t.record(
            "cycles", lambda: format_cycles(p), lambda s: parse_cycles(s, ell, n) == p
        )
        identity = ColoredPermutation.identity(ell, n)
        t.record(
            "compose",
            lambda: p.inverse(),
            lambda q: p * q == identity and q * p == identity,
        )
    return {"elements": elements, "maps": t.maps, "digest": t.digest.hexdigest()}


def closed(ell: int, max_n: int) -> dict:
    t = _Tally()
    g = build_table(ell, max_n, "g")
    entries = 0
    for n in range(max_n + 1):
        for m in range(n + 1):
            entries += 1
            want = g.entry(n, m)
            t.record("g_closed_form", lambda: g_closed_form(ell, n, m), want.__eq__)
            t.record("egf_coefficient", lambda: egf_coefficient(ell, m, n - m), want.__eq__)
    return {"elements": entries, "maps": t.maps, "digest": t.digest.hexdigest()}


def stream(ell: int, n: int) -> dict:
    count = min(group_size(ell, n), STREAM_ELEMENTS)
    passes = []
    for _ in range(STREAM_PASSES):
        start = time.perf_counter_ns()
        for _ in enumerate_range(ell, n, 0, count, budget=BUDGET):
            pass
        passes.append((time.perf_counter_ns() - start) / count)
    return {"elements": count, "ns_per_element": statistics.median(passes)}


STEPS = {"roundtrip": roundtrip, "closed": closed, "stream": stream}


def main(argv: list[str]) -> int:
    step, ell, n = argv[0], int(argv[1]), int(argv[2])
    print(json.dumps(STEPS[step](ell, n), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
