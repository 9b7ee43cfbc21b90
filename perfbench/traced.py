"""Run one benchmark step with the layers of wreathperm wrapped from outside.

    python3 perfbench/traced.py OUT_DIR cli ARGS...   # like python -m wreathperm.cli ARGS
    python3 perfbench/traced.py OUT_DIR lib ARGS...   # like perfbench/libwork.py ARGS

Nothing under ``src/`` changes: public functions (and the two pool entry
points of ``enumeration``) are replaced by timing wrappers in every loaded
``wreathperm`` module before the step runs.  Each wrapper keeps per-name call
counts, inclusive time and self time (its time minus that of wrapped calls
inside it).  Coarse calls also keep a span ``[name, start_ns, end_ns,
parent]`` in memory; per-element calls keep only the aggregates, so memory
stays bounded on millions of elements.  At exit the process writes one JSON
file to OUT_DIR.  Pool workers forked by ``enumeration`` inherit the wrappers;
each writes its own file after every task.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import wreathperm.cli  # loads every layer module
from wreathperm.enumeration import group_size

_now = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes

# (module, attribute, metric name, keeps a span).  Calls made once per element
# keep aggregates only; the rest also keep spans.
_TARGETS = [
    ("core", "ColoredPermutation.__init__", "core.construct", False),
    ("core", "ColoredPermutation.__mul__", "core.compose", False),
    ("core", "ColoredPermutation.inverse", "core.inverse", False),
    ("core", "ColoredPermutation.cycles", "core.cycles", False),
    ("core", "parse_one_line", "core.parse_one_line", False),
    ("core", "format_one_line", "core.format_one_line", False),
    ("core", "parse_cycles", "core.parse_cycles", False),
    ("core", "format_cycles", "core.format_cycles", False),
    ("core", "rotate_right", "bijections.delta.fwd", False),
    ("core", "rotate_left", "bijections.delta.inv", False),
    ("statistics", "circular_successions", "statistics.circular", False),
    ("statistics", "linear_successions", "statistics.linear", False),
    ("statistics", "skew_linear_successions", "statistics.skew_linear", False),
    ("statistics", "is_increasing_fixed", "statistics.is_increasing_fixed", False),
    ("statistics", "is_isolated_fixed", "statistics.is_isolated_fixed", False),
    ("bijections", "foata", "bijections.foata.fwd", False),
    ("bijections", "foata_inverse", "bijections.foata.inv", False),
    ("bijections", "colored_foata", "bijections.phi.fwd", False),
    ("bijections", "colored_foata_inverse", "bijections.phi.inv", False),
    ("bijections", "remove_max_succession", "bijections.rho.fwd", False),
    ("bijections", "insert_max_succession", "bijections.rho.inv", False),
    ("bijections", "succession_decompose", "bijections.decompose.fwd", False),
    ("bijections", "succession_compose", "bijections.decompose.inv", False),
    ("bijections", "isolated_to_increasing", "bijections.isolated.fwd", False),
    ("bijections", "increasing_to_isolated", "bijections.isolated.inv", False),
    ("bijections", "class_representative", "bijections.representative.fwd", False),
    ("bijections", "signature_insert", "bijections.representative.inv", False),
    ("bijections", "isolate_forward", "bijections.vartheta.fwd", False),
    ("bijections", "isolate_inverse", "bijections.vartheta.inv", False),
    ("bijections", "derangement_insert", "bijections.tau.fwd", False),
    ("bijections", "derangement_remove", "bijections.tau.inv", False),
    ("bijections", "isolated_insert", "bijections.drec3.fwd", False),
    ("bijections", "isolated_remove", "bijections.drec3.inv", False),
    ("enumeration", "distribution", "enumeration.distribution", True),
    ("enumeration", "distribution_matrix", "enumeration.distribution_matrix", True),
    ("enumeration", "bounded_matrix", "enumeration.bounded_matrix", True),
    ("enumeration", "family_counts", "enumeration.family_counts", True),
    ("enumeration", "_map_reduce", "enumeration.map_reduce", True),
    ("enumeration", "_run_task", "enumeration.task", True),
    ("enumeration", "verify_suite", "enumeration.suite", True),
    ("tables", "build_table", "tables.build_table", True),
    ("tables", "check_recurrences", "tables.check_recurrences", True),
    ("tables", "g_closed_form", "tables.g_closed_form", True),
    ("tables", "egf_coefficient", "tables.egf_coefficient", True),
    ("reporting", "report_json", "reporting.report_json", True),
    ("cli", "main", "cli.main", True),
]


class Tracer:
    """Per-process span store and call aggregates."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.worker = False
        self.seq = 0
        self._clear()

    def _clear(self) -> None:
        self.stack: list[list[int]] = []  # [start_ns, child_ns, span index]
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.agg: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counts: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, span: bool, label=None):
        """``label(args)``, when given, names the call (and may count)."""
        task = name == "enumeration.task"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if task and os.getpid() != self.pid:  # first task in a forked worker
                self.pid, self.worker = os.getpid(), True
                self._clear()
            call = label(self, args) if label else name
            stack = self.stack
            index = -1
            if span:
                index = len(self.spans)
                self.spans.append([call, 0, 0, stack[-1][2] if stack else -1])
            frame = [_now(), 0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - frame[0]
                row = self.agg.get(call)
                if row is None:
                    row = self.agg[call] = [0, 0, 0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span:
                    self.spans[index][1:3] = [frame[0], end]
                if self.worker and not stack:
                    self.dump()
                    self._clear()

        return wrapper

    def dump(self) -> None:
        role = "worker" if self.worker else "main"
        path = os.path.join(self.out_dir, f"{role}-{self.pid}-{self.seq}.json")
        self.seq += 1
        with open(path, "w") as fh:
            json.dump(
                {"role": role, "spans": self.spans, "agg": self.agg, "counts": self.counts},
                fh,
            )


def _map_reduce_label(tracer: Tracer, args) -> str:
    tracer.count("enumeration.elements", group_size(args[1], args[2]))
    return "enumeration.map_reduce"


def _build_table_label(tracer: Tracer, args) -> str:
    max_n = args[1]
    tracer.count("tables.entries", (max_n + 1) * (max_n + 2) // 2)
    return "tables.build_table"


_LABELS = {
    "enumeration.map_reduce": _map_reduce_label,
    "enumeration.suite": lambda tracer, args: f"enumeration.suite.{args[0]}",
    "tables.build_table": _build_table_label,
}


def _replace(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(out_dir: str) -> Tracer:
    """Wrap every target in every loaded wreathperm module."""
    tracer = Tracer(out_dir)
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "wreathperm"]
    for short, attr, name, span in _TARGETS:
        owner = sys.modules[f"wreathperm.{short}"]
        cls_name, _, method = attr.rpartition(".")
        holder = getattr(owner, cls_name) if cls_name else owner
        original = getattr(holder, method, None)
        if original is None:  # a renamed internal only loses its metric
            continue
        wrapper = tracer.wrap(name, original, span, _LABELS.get(name))
        if cls_name:
            setattr(holder, method, wrapper)
        else:
            _replace(modules, original, wrapper)
    enumeration = sys.modules["wreathperm.enumeration"]
    for attr in ("enumerate_group", "enumerate_range"):
        original = getattr(enumeration, attr)
        _replace(modules, original, _count_stream(tracer, original))
    return tracer


def _count_stream(tracer: Tracer, original):
    """Generators return at once, so count the elements they are asked for."""

    @functools.wraps(original)
    def wrapper(ell, n, *rest, **kwargs):
        amount = rest[1] - rest[0] if rest else group_size(ell, n)
        tracer.count("enumeration.elements", amount)
        return original(ell, n, *rest, **kwargs)

    return wrapper


def main(argv: list[str]) -> int:
    out_dir, kind, rest = argv[0], argv[1], argv[2:]
    tracer = install(out_dir)
    try:
        if kind == "cli":
            code = wreathperm.cli.main(rest)
        else:
            import libwork

            code = libwork.main(rest)
        sys.stdout.flush()
    finally:
        tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
