"""pinchjac benchmark: four seeded closed-loop workloads and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {wide,thick,edit,cli} --seed N \\
        --seconds S --trace {0,1}

With `--trace 0` the last stdout line carries the end-to-end metrics, timed
with tracing off: `ops_per_s`, `latency_p50_ms`, `setup_s` (median over
SETUP_REPEATS fresh interpreters, from just before `import pinchjac` to the
first timed operation) and `peak_rss_mb` (the worker process; for `cli` the
largest command process). Times are scaled to a reference machine speed
measured by a calibration kernel run around the timed work (calib.py); the
report keeps the raw figures next to them (`raw_*`). With `--trace 1` it
carries the per-layer metrics of the traced run (see spans.py). The line
before it is a report with the remaining figures: `latency_p90_ms` (only
when a run has at least 100 operations), `failed_ratio`, the SHA-256 digest
of the first cycle's canonical outputs, the context (Python version, nproc,
source line count) and, for traced runs, the workload-design predictions. The report is also
written to `.perfbench_out/result-<workload>-trace<k>.json`.

`--corrupt N` damages the output of operation N before its check; see
selftest.py. Tier-1 test wall time is not measured here on purpose: it
changes with the tests rather than with the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("wide", "thick", "edit", "cli")
SETUP_REPEATS = 5
DEADLINE_S = 170  # every run must end within 180 s
HERE = Path(__file__).resolve().parent


def call_worker(argv: list[str], deadline: float) -> dict:
    """Run one worker to completion; past the deadline it is killed and waited for."""
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 0))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def context() -> dict:
    lines = [line for path in sorted(Path("src/pinchjac").glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": len(lines), "src_nonblank_lines": sum(1 for x in lines if x.strip())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", type=int, default=-1)
    args = parser.parse_args()

    if not Path("src/pinchjac/__init__.py").is_file():
        sys.stderr.write("run from the root of a pinchjac checkout: src/pinchjac is missing\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
              str(args.seconds), "--corrupt", str(args.corrupt)]

    facts = context()
    if args.trace:
        report = call_worker(common + ["--mode", "trace"], deadline)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report.pop("metrics").items()}
        metrics["context.src_nonblank_lines"] = {"value": facts["src_nonblank_lines"],
                                                 "unit": "lines"}
    else:
        setups = [call_worker(common + ["--mode", "setup"], deadline)
                  for _ in range(SETUP_REPEATS - 1)]
        report = call_worker(common + ["--mode", "run"], deadline)
        setups.append(report)
        metrics = {
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": report["latency_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        report["setup_runs_s"] = [s["setup_s"] for s in setups]
        report["raw_setup_runs_s"] = [s["raw_setup_s"] for s in setups]
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, context=facts)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
