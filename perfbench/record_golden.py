"""Record ``perfbench/golden.json`` from the program in ``src/``.

    python3 perfbench/record_golden.py

Run it only for an intended change of output, and say so where the change is
described: the benchmark counts every output that differs from this file as
a failure.  Small outputs are kept verbatim, large ones as SHA-256 digests.
Outputs must first pass the benchmark's own identity checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

VERBATIM_BYTES = 4096


def entry(r: run.Result) -> dict:
    if r.code != 0:
        sys.exit(f"{r.step.id}: exit {r.code}: {r.err.decode(errors='replace')}")
    if r.size <= VERBATIM_BYTES:
        return {"stdout": r.out().decode()}
    return {"sha256": r.sha256}


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        runner = run.Runner(workdir)
        golden = {"setup": entry(runner.run(run.Step("setup", "cli", run.SETUP_ARGS)))}
        for name, workload in run.workloads(jobs=2).items():
            results = [runner.run(step) for step in workload.steps]
            tally = run.Tally()
            run.check_identities(workload, results, tally)
            if tally.failed:
                sys.exit(f"{name}: {tally.notes}")
            golden[name] = {r.step.id: entry(r) for r in results}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
