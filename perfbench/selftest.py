"""Self-test: a deliberately corrupted result must count as a failed operation.

For each workload, runs one cycle with the output of operation 0 damaged
before it is checked (run.py --corrupt 0) and requires the result line to
say `correct: false` with at least one failure. In `wide` and `thick` an
`aj_eval` output is only checked through the divisor relation of its group,
so there the failure lands on that group's `divisor_class` operation.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def main() -> int:
    ok = True
    for workload in ("wide", "thick", "edit", "cli"):
        done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "0",
                               "--seconds", "0", "--trace", "0", "--corrupt", "0"],
                              capture_output=True, text=True, timeout=175)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        caught = result.get("correct") is False and result.get("failed", 0) >= 1
        problems = json.loads(lines[-2])["report"]["problems"] if caught else done.stderr[-500:]
        print(f"{workload}: {'PASS' if caught else 'FAIL'} {problems}")
        ok = ok and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
