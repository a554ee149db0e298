"""One fresh interpreter running one workload; prints one JSON line.

Modes:
  setup  generate inputs, then time set-up only (import pinchjac, parse the
         curves, build each `jacobian_structure`)
  run    set-up, then the timed closed loop with tracing off
  trace  an untraced loop of about half the run, then the same cycles again
         under the span recorder; reports the per-layer metrics

Run from the root of a checkout: `src/` must hold the pinchjac sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import calib

SRC = Path("src").resolve()
OUT = Path(".perfbench_out")  # generated curve files, spans; ignored by git


def run_loop(workload, seconds: float, cycles: int | None = None, recorder=None,
             corrupt: int = -1) -> dict:
    """Whole cycles until the timed total reaches `seconds` (or `cycles` cycles).

    Only the operations themselves are timed; input preparation and checks
    run between them. The calibration kernel runs right before and after
    each operation, in this process or, for an operation that is a process of
    its own, in that one (`Workload.child_calibration`). The end-to-end
    figures use scaled times (see calib.py); the raw times are kept for the
    report.
    """
    for _ in range(3):
        calib.timed_kernel()  # warm-up
    raw, refs, kinds, cycle_sizes = [], [], [], []
    attempted = failed = bits = 0
    problems = []
    digest = hashlib.sha256()
    timed = 0.0
    k = 0
    while True:
        for op in workload.cycle(k):
            call = workload.prepare(op)
            before = calib.timed_kernel()
            span = None
            if recorder is not None:
                span = recorder.open(f"op.{op.kind}")
                recorder.active = True
            started = time.perf_counter()
            try:
                out, error = call(), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, exc
            elapsed = time.perf_counter() - started
            if recorder is not None:
                recorder.active = False
                recorder.close(span)
            after = calib.timed_kernel()
            child = workload.child_calibration()
            if child is not None:
                spent, before, after = child
                elapsed -= spent
            refs.append((before, after))
            if recorder is not None:
                workload.adopt_spans(recorder, span)
            if attempted == corrupt and error is None:
                out = workload.corrupt(op, out)
            attempted += 1
            if error is None:
                try:
                    workload.check(op, out)
                    bits = max(bits, workload.coeff_bits(op, out))
                except Exception as exc:  # any check error fails the operation
                    error = exc
            if error is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{op.kind} #{attempted - 1}: {type(error).__name__}: {error}")
            if k == 0:
                text = workload.canonical(op, out) if error is None else f"failed:{op.kind}"
                digest.update(text.encode("utf-8") + b"\n")
            raw.append(elapsed)
            kinds.append(op.kind)
            timed += elapsed
        cycle_sizes.append(len(raw) - sum(cycle_sizes))
        k += 1
        if (k >= cycles) if cycles is not None else (timed >= seconds):
            break
    scaled = [t * calib.REF_NOMINAL_S * 2 / (b + a) for t, (b, a) in zip(raw, refs)]
    by_kind = defaultdict(list)
    for kind, t in zip(kinds, scaled):
        by_kind[kind].append(t)
    cycle_rates, first = [], 0
    for size in cycle_sizes:
        cycle_rates.append(size / sum(scaled[first:first + size]))
        first += size
    return {"durations": scaled, "cycle_rates": cycle_rates, "raw_durations": raw, "by_kind": by_kind,
            "attempted": attempted, "failed": failed, "problems": problems,
            "digest": digest.hexdigest(), "timed_s": timed, "cycles": k,
            "kernel_p50_ms": statistics.median(x for pair in refs for x in pair) * 1e3,
            "peak_coeff_bits": bits}


def summary(loop: dict) -> dict:
    """End-to-end figures of one loop, from scaled times; the `raw_` figures
    are the unscaled ones. `ops_per_s` is the median over cycles of each
    cycle's rate: a cycle always holds the same mix, and a burst of machine
    noise that the calibration misses moves one cycle, not the median."""
    d = loop["durations"]
    out = {"ops": len(d), "cycles": loop["cycles"], "timed_s": loop["timed_s"],
           "ops_per_s": statistics.median(loop["cycle_rates"]),
           "raw_ops_per_s": len(d) / loop["timed_s"],
           "kernel_p50_ms": loop["kernel_p50_ms"],
           "latency_p50_ms": statistics.median(d) * 1e3,
           "raw_latency_p50_ms": statistics.median(loop["raw_durations"]) * 1e3,
           "failed_ratio": loop["failed"] / loop["attempted"],
           "digest": loop["digest"], "problems": loop["problems"]}
    if len(d) >= 100:  # a 90th percentile needs ten samples beyond it
        out["latency_p90_ms"] = statistics.quantiles(d, n=10)[8] * 1e3
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--corrupt", type=int, default=-1)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, OUT)  # input generation: before the set-up clock
    # set-up is scaled by the median kernel times just before and just after it
    ref_before = statistics.median(calib.timed_kernel() for _ in range(7))
    started = time.perf_counter()
    workload.setup()
    raw_setup_s = time.perf_counter() - started
    ref_after = statistics.median(calib.timed_kernel() for _ in range(7))
    setup_s = raw_setup_s * calib.REF_NOMINAL_S * 2 / (ref_before + ref_after)
    import pinchjac
    if Path(pinchjac.__file__).resolve().parent != SRC / "pinchjac":
        raise SystemExit(f"imported pinchjac from {pinchjac.__file__}, not {SRC}")
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    if args.mode == "run":
        loop = run_loop(workload, args.seconds, corrupt=args.corrupt)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                  "attempted": loop["attempted"], "failed": loop["failed"],
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024, **summary(loop)}
        print(json.dumps(result))
        return 0

    import spans

    plain = run_loop(workload, args.seconds / 2, corrupt=args.corrupt)
    traced_workload = cls(args.seed, OUT)
    traced_workload.setup()
    recorder = spans.Recorder()
    spans.install(recorder)
    traced_workload.recorder = recorder
    traced = run_loop(traced_workload, 0, cycles=plain["cycles"], recorder=recorder)
    overhead = plain["timed_s"] / traced["timed_s"]  # same cycles, so the ratio of rates
    cli_p50 = ({kind: statistics.median(d) * 1e3 for kind, d in plain["by_kind"].items()}
               if args.workload == "cli" else {})
    metrics, span_summary = spans.per_layer_metrics(
        recorder, overhead, cli_p50, max(plain["peak_coeff_bits"], traced["peak_coeff_bits"]))
    recorder.dump(OUT / f"spans-{args.workload}.bin")
    result = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "metrics": metrics,
              "predictions": spans.predictions(args.workload, metrics, span_summary),
              "untraced": summary(plain), "traced": summary(traced),
              "span_count": len(recorder.name)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
