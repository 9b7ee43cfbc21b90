"""The wreathperm benchmark: fixed exhaustive workloads, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  The
workloads are ``verify-all``, ``count-wide``, ``bijection-roundtrip`` and
``tables-deep`` (see ``perfbench/README.md``).  Every step runs as a fresh
interpreter, timed from outside; the workload repeats until ``--seconds``
have passed, and the seed only shuffles the order of steps within each
repetition.  Every output is checked against ``perfbench/golden.json`` and
against identities the benchmark computes itself.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced repetitions
(``perfbench/traced.py``); metric names and units come from
``BENCHMARK.json``.  Earlier lines say what ran, on what, and how it went.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUDGET = "100000000"
SUITES = ("t2", "t3", "c7", "l45", "t9", "t11", "e22", "e43", "rec")
SERIAL_SUITES = ("e22", "e43", "rec")  # these ignore --jobs
SETUP_ARGS = ("table", "--flavor", "g", "--colors", "1", "--max-n", "1")
SETUP_SAMPLES = 11
TABLE = ("3", "200")  # colors, max n of the tables-deep triangles
REC = ("3", "200")  # colors-max, n-max of tables-deep's recurrence check
COUNT = ("4", "6", "1")  # colors, n, k of the count-wide count
CLOSED = ("3", "40")  # colors, max n of the closed-form cross-check
ROUNDTRIP = ("2", "4")  # colors, n of the bijection-roundtrip group
BIJECTION_MAPS = ("delta", "foata", "phi", "rho", "decompose", "isolated",
                  "representative", "vartheta", "tau", "drec3")
NOT_CONTROLLED = "no CPU pinning, no page-cache drop, shared host"


def group_size(ell: int, n: int) -> int:
    return ell**n * math.factorial(n)


def triangle(max_n: int) -> int:
    return (max_n + 1) * (max_n + 2) // 2


@dataclass(frozen=True)
class Step:
    """One process of a workload: ``cli`` runs ``python -m wreathperm.cli``,
    ``lib`` runs ``perfbench/libwork.py``.  ``id`` keys the golden output."""

    id: str
    kind: str
    args: tuple[str, ...]

    def command(self, trace_dir: str | None = None) -> list[str]:
        if trace_dir is not None:
            return [sys.executable, str(BENCH / "traced.py"), trace_dir, self.kind, *self.args]
        if self.kind == "cli":
            return [sys.executable, "-m", "wreathperm.cli", *self.args]
        return [sys.executable, str(BENCH / "libwork.py"), *self.args]


@dataclass
class Workload:
    name: str
    steps: list[Step]
    elements: int  # group elements covered (table entries on tables-deep)
    check: Callable[[dict[str, bytes], Tally], None]  # identities on step outputs
    stream: tuple[str, str] | None = None  # group probed for enumerate_us


def verify_elements(colors_max: int, n_max: int) -> int:
    """Group elements enumerated by the eight enumerating suites."""
    total = 0
    for ell in range(1, colors_max + 1):
        for n in range(n_max + 1):
            total += 5 * group_size(ell, n)  # t2, l45, t9, t11, e22
            if n >= 1:
                total += group_size(ell, n)  # e43
            if 1 <= n <= n_max - 1:  # t3 and c7 at n+1 and n
                total += 3 * group_size(ell, n + 1) + 2 * group_size(ell, n)
    return total


def workloads(jobs: int) -> dict[str, Workload]:
    pinned = ("--jobs", str(jobs), "--budget", BUDGET)
    verify = [
        Step(f"verify {s}", "cli",
             ("verify", "--suite", s, "--colors-max", "2", "--n-max", "6", *pinned))
        for s in SUITES
    ]
    count = ("count", "--colors", COUNT[0], "--n", COUNT[1], "--stat", "lin", "--k", COUNT[2])
    tables = [
        Step(f"table {flavor} {fmt}", "cli",
             ("table", "--flavor", flavor, "--colors", TABLE[0], "--max-n", TABLE[1],
              "--format", fmt))
        for flavor in ("g", "d")
        for fmt in ("csv", "json", "text")
    ]
    tables.append(Step("verify rec", "cli",
                       ("verify", "--suite", "rec", "--colors-max", REC[0],
                        "--n-max", REC[1], *pinned)))
    tables.append(Step("closed", "lib", ("closed", *CLOSED)))
    return {
        "verify-all": Workload(
            "verify-all", verify, verify_elements(2, 6), check_reports, stream=("2", "6")),
        "count-wide": Workload(
            "count-wide", [Step("count", "cli", (*count, *pinned))],
            group_size(*map(int, COUNT[:2])), check_count, stream=COUNT[:2]),
        "bijection-roundtrip": Workload(
            "bijection-roundtrip", [Step("roundtrip", "lib", ("roundtrip", *ROUNDTRIP))],
            group_size(*map(int, ROUNDTRIP)), check_roundtrip, stream=ROUNDTRIP),
        "tables-deep": Workload(
            "tables-deep", tables,
            6 * triangle(int(TABLE[1])) + 2 * int(REC[0]) * triangle(int(REC[1]))
            + triangle(int(CLOSED[1])), check_tables),
    }


# -- running steps -------------------------------------------------------------


@dataclass
class Result:
    step: Step
    wall: float
    cpu: float
    rss_mb: float
    code: int
    err: str
    path: Path  # the step's stdout
    size: int
    sha256: str

    def out(self) -> bytes:
        return self.path.read_bytes()


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.record(1, 0 if ok else 1, note)


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = 0
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("PYTHON") and k != "WREATH_EULER_BUDGET"
        }
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, step: Step, trace_dir: str | None = None) -> Result:
        """Run one step to completion; its own rusage gives CPU and peak RSS
        (pool workers included, since the step waits for them).

        A child's peak RSS starts from the parent's at fork, so stdout goes
        to a file and the benchmark never holds a large output while
        children still run."""
        self.started += 1
        path = self.workdir / f"{self.started}.out"
        with open(path, "wb") as out, tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(step.command(trace_dir), stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read().decode(errors="replace")
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
        return Result(step, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      proc.returncode, message, path, path.stat().st_size, sha.hexdigest())


def discard(rep: Rep) -> None:
    for r in rep.results:
        r.path.unlink()


def matches_golden(golden: dict, r: Result) -> bool:
    if "stdout" in golden:
        return r.out().decode() == golden["stdout"]
    return r.sha256 == golden["sha256"]


def check_result(r: Result, golden: dict, tally: Tally) -> None:
    """Exit code and golden output; for library steps also every roundtrip."""
    detail = r.err.strip().splitlines()[-1:] or [""]
    tally.check(r.code == 0, f"{r.step.id}: exit {r.code} {detail[0]}")
    tally.check(r.step.id in golden and matches_golden(golden[r.step.id], r),
                f"{r.step.id}: output differs from golden")
    if r.step.kind == "lib" and r.code == 0:
        maps = json.loads(r.out())["maps"]
        for name, (_, in_domain, mismatches) in sorted(maps.items()):
            tally.record(in_domain, mismatches, f"{r.step.id}: {mismatches} {name} mismatches")


# -- independent checks ------------------------------------------------------------


def g_rows(ell: int, max_n: int) -> list[list[int]]:
    """The g triangle by its defining recurrence, independent of the program."""
    rows: list[list[int]] = []
    for n in range(max_n + 1):
        row = [0] * (n + 1)
        row[n] = group_size(ell, n)
        for m in range(n - 1, -1, -1):
            row[m] = row[m + 1] - rows[n - 1][m]
        rows.append(row)
    return rows


def check_reports(out: dict[str, bytes], tally: Tally) -> None:
    for step_id, text in out.items():
        if step_id.startswith("verify "):
            report = json.loads(text)
            tally.check(bool(report) and all(c["status"] == "pass" for c in report),
                        f"{step_id}: report has failing checks")


def check_count(out: dict[str, bytes], tally: Tally) -> None:
    ell, n, k = map(int, COUNT)
    counts = [int(c) for c in out["count"].split()]
    g = g_rows(ell, n)
    tally.check(sum(counts) == group_size(ell, n), "count: sum is not ell^n n!")
    # Linear k-successions are equidistributed with circular ones, whose
    # counts are C(n-k, m) g[n-m][k] (zero beyond m = n-k).
    expected = [math.comb(n - k, m) * g[n - m][k] if k <= n - m else 0
                for m in range(n + 1)]
    tally.check(counts == expected, f"count: {counts} != {expected}")


def check_roundtrip(out: dict[str, bytes], tally: Tally) -> None:
    elements = json.loads(out["roundtrip"])["elements"]
    tally.check(elements == group_size(*map(int, ROUNDTRIP)), "roundtrip: wrong group size")


def check_tables(out: dict[str, bytes], tally: Tally) -> None:
    check_reports(out, tally)
    ell, max_n = map(int, TABLE)
    g = json.loads(out["table g json"])["rows"]
    d = json.loads(out["table d json"])["rows"]
    tally.check(g == g_rows(ell, max_n), "table g: differs from the g recurrence")
    tally.check(
        all(d[n][n] == 1 for n in range(max_n + 1))
        and all(g[n][m] == ell**m * math.factorial(m) * d[n][m]
                for n in range(max_n + 1) for m in range(n + 1)),
        "table d: g[n][m] != ell^m m! d[n][m]")
    csv = out["table g csv"].decode().split("\n")[1:-1]
    tally.check([int(line.rsplit(",", 1)[1]) for line in csv]
                == [v for row in g for v in row], "table g: csv differs from json")


def check_identities(workload: Workload, results: list[Result], tally: Tally) -> None:
    """Cross-check one repetition's outputs by facts the benchmark derives
    itself, so a recorded-but-wrong golden output cannot hide a wrong count."""
    try:
        workload.check({r.step.id: r.out() for r in results}, tally)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        tally.check(False, f"{workload.name}: output does not parse: {exc!r}")


# -- measuring ------------------------------------------------------------------------


@dataclass
class Rep:
    wall: float
    cpu: float
    rss_mb: float
    results: list[Result]


def run_rep(runner: Runner, steps: list[Step], rng: random.Random,
            trace_dir: str | None = None) -> Rep:
    order = list(steps)
    rng.shuffle(order)
    results = [runner.run(s, trace_dir) for s in order]
    return Rep(sum(r.wall for r in results), sum(r.cpu for r in results),
               max(r.rss_mb for r in results), results)


def setup_samples(runner: Runner, count: int, golden: dict, tally: Tally) -> list[float]:
    """Wall times of a fresh interpreter importing wreathperm and running a
    trivial CLI command."""
    samples = []
    for _ in range(count):
        r = runner.run(Step("setup", "cli", SETUP_ARGS))
        check_result(r, golden, tally)
        samples.append(r.wall)
    return samples


def end_to_end(runner: Runner, workload: Workload, golden: dict, rng: random.Random,
               seconds: float, tally: Tally) -> dict[str, float]:
    runner.run(Step("setup", "cli", SETUP_ARGS))  # warms the bytecode cache
    # Set-up samples are split between both ends of the run, so a slow
    # stretch of a shared host weighs on the median less.
    setup = setup_samples(runner, SETUP_SAMPLES // 2, golden, tally)
    reps: list[Rep] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(runner, workload.steps, rng))
        for r in reps[-1].results:
            check_result(r, golden, tally)
        if len(reps) > 1:
            discard(reps[-1])
    setup += setup_samples(runner, SETUP_SAMPLES - len(setup), golden, tally)
    check_identities(workload, reps[0].results, tally)
    # Times are means over the run's repetitions: this host switches between
    # a fast and a slow speed for seconds at a time, and a median of short
    # repetitions jumps between the two, while the mean weighs them by time
    # as one long repetition does.
    wall = statistics.fmean(r.wall for r in reps)
    print(f"repetitions: {len(reps)}, wall_s per repetition: "
          + " ".join(f"{r.wall:.3f}" for r in reps))
    return {
        "wall_s": wall,
        "cpu_s": statistics.fmean(r.cpu for r in reps),
        "elements_per_s": workload.elements / wall,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "setup_s": statistics.median(setup),
    }


def takes_jobs(step: Step) -> bool:
    return "--jobs" in step.args


def serial_wall(runner: Runner, rep: Rep, tally: Tally) -> float:
    """Untimed: rerun every step that takes --jobs at --jobs 1, whose output
    must be byte-identical.  Returns the summed --jobs 1 wall time."""
    wall = 0.0
    for r in rep.results:
        if not takes_jobs(r.step):
            continue
        args = list(r.step.args)
        args[args.index("--jobs") + 1] = "1"
        serial = runner.run(Step(r.step.id, "cli", tuple(args)))
        wall += serial.wall
        tally.check(serial.code == 0 and serial.sha256 == r.sha256,
                    f"{r.step.id}: output differs at --jobs 1")
        serial.path.unlink()
    return wall


# -- per-layer metrics from traces -----------------------------------------------------


def load_trace(trace_dir: str) -> tuple[dict, dict, list, list]:
    agg: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    main_spans, worker_spans = [], []
    for path in sorted(Path(trace_dir).glob("*.json")):
        data = json.loads(path.read_text())
        for name, row in data["agg"].items():
            total = agg.setdefault(name, [0, 0, 0])
            for i in range(3):
                total[i] += row[i]
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        (worker_spans if data["role"] == "worker" else main_spans).extend(data["spans"])
    return agg, counts, main_spans, worker_spans


def layer_metrics(rep: Rep, trace_dir: str) -> dict[str, float]:
    agg, counts, main_spans, worker_spans = load_trace(trace_dir)

    def self_us(name: str) -> float:
        calls, _, self_ns = agg.get(name, (0, 0, 0))
        return self_ns / calls / 1e3 if calls else 0.0

    def incl_s(name: str) -> float:
        return agg.get(name, (0, 0, 0))[1] / 1e9

    def calls(name: str) -> int:
        return agg.get(name, (0, 0, 0))[0]

    m: dict[str, float] = {}
    for name in ("construct", "compose", "inverse", "cycles", "parse_one_line",
                 "format_one_line", "parse_cycles", "format_cycles"):
        m[f"core.{name}_us"] = self_us(f"core.{name}")
    kernels = ("circular", "linear", "skew_linear", "is_increasing_fixed", "is_isolated_fixed")
    for name in kernels:
        m[f"statistics.{name}_us"] = self_us(f"statistics.{name}")
    m["statistics.calls"] = sum(calls(f"statistics.{k}") for k in kernels)
    m["enumeration.elements"] = counts.get("enumeration.elements", 0)
    for name in ("distribution", "distribution_matrix", "bounded_matrix", "family_counts"):
        m[f"enumeration.{name}_s"] = incl_s(f"enumeration.{name}")
        m[f"enumeration.{name}.calls"] = calls(f"enumeration.{name}")
    suite_s = {s: incl_s(f"enumeration.suite.{s}") for s in SUITES}
    for s in SUITES:
        m[f"enumeration.suite.{s}_s"] = suite_s[s]
    total = sum(suite_s.values())
    m["enumeration.serial_share"] = (
        sum(suite_s[s] for s in SERIAL_SUITES) / total if total else 0.0)
    # Pool overhead: a parallel map-reduce's wall time beyond its longest task.
    overhead = 0
    for name, start, end, _ in main_spans:
        if name != "enumeration.map_reduce":
            continue
        tasks = [e - s for n, s, e, _ in worker_spans
                 if n == "enumeration.task" and start <= s and e <= end]
        if tasks:
            overhead += (end - start) - max(tasks)
    m["enumeration.pool_overhead_s"] = overhead / 1e9
    for name in BIJECTION_MAPS:
        m[f"bijections.{name}.fwd_us"] = self_us(f"bijections.{name}.fwd")
        m[f"bijections.{name}.inv_us"] = self_us(f"bijections.{name}.inv")
    tried = hits = 0
    for r in rep.results:
        if r.step.id == "roundtrip":
            for name, (attempted, in_domain, _) in json.loads(r.out())["maps"].items():
                if name in BIJECTION_MAPS:
                    tried += attempted
                    hits += in_domain
    m["bijections.domain_hit_ratio"] = hits / tried if tried else 0.0
    for name in ("build_table", "check_recurrences", "g_closed_form", "egf_coefficient"):
        m[f"tables.{name}_s"] = incl_s(f"tables.{name}")
    m["tables.entries"] = counts.get("tables.entries", 0)
    m["reporting.report_json_s"] = incl_s("reporting.report_json")
    m["cli.stdout_bytes"] = sum(r.size for r in rep.results if r.step.kind == "cli")
    return m


def per_layer(runner: Runner, workload: Workload, golden: dict, rng: random.Random,
              seconds: float, tally: Tally) -> dict[str, float]:
    """Alternate untraced and traced repetitions; per-layer values are medians
    over the traced ones, ``trace.overhead_s`` the difference of mean walls."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_rep(runner, workload.steps, rng))
        trace_dir = tempfile.mkdtemp(dir=runner.workdir)
        traced.append(run_rep(runner, workload.steps, rng, trace_dir))
        layers.append(layer_metrics(traced[-1], trace_dir))
        for r in plain[-1].results + traced[-1].results:
            check_result(r, golden, tally)
        if len(traced) > 1:
            discard(plain[-1])
            discard(traced[-1])
    wall = statistics.fmean(r.wall for r in plain)
    m = {name: statistics.median_low(layer[name] for layer in layers) for name in layers[0]}
    m["trace.overhead_s"] = statistics.fmean(r.wall for r in traced) - wall
    parallel = statistics.fmean(
        sum(r.wall for r in rep.results if takes_jobs(r.step)) for rep in plain)
    serial = serial_wall(runner, plain[0], tally)
    m["enumeration.parallel_speedup"] = serial / parallel if parallel else 0.0
    m["enumeration.enumerate_us"] = 0.0
    if workload.stream is not None:
        r = runner.run(Step("stream", "lib", ("stream", *workload.stream)))
        tally.check(r.code == 0, f"stream probe: exit {r.code}")
        if r.code == 0:
            m["enumeration.enumerate_us"] = json.loads(r.out())["ns_per_element"] / 1e3
    check_identities(workload, traced[0].results, tally)
    print(f"repetitions: {len(plain)} untraced, {len(traced)} traced")
    return m


# -- entry point --------------------------------------------------------------------


def context(jobs: int) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"jobs={jobs} python={sys.version.split()[0]} cpu={cpu!r} "
            f"not controlled: {NOT_CONTROLLED}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wreathperm" / "cli.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    jobs = min(2, len(os.sched_getaffinity(0)))
    table = workloads(jobs)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    recorded = json.loads((BENCH / "golden.json").read_text())
    golden = {"setup": recorded["setup"], **recorded[workload.name]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {context(jobs)}")
    rng = random.Random(args.seed)
    tally = Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        measure = per_layer if args.trace else end_to_end
        values = measure(runner, workload, golden, rng, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in tally.notes:
        print(f"FAILED {note}")
    print(f"error_rate: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    metrics = {}
    for spec_metric in wanted:
        name = spec_metric["name"]
        metrics[name] = {"value": values[name], "unit": spec_metric["unit"]}
        print(f"{name}: {values[name]} {spec_metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
