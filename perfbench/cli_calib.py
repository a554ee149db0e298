"""Run one pinchjac CLI command between calibration-kernel calls (untraced `cli` runs).

Usage: cli_calib.py CALIB_FILE ARGV...

Does what `python -m pinchjac.cli ARGV...` does, import included, but times
the calibration kernel (calib.py) in this process just before the import and
just after the command. CALIB_FILE receives one JSON object: the two kernel
times and the seconds spent on calibration, which the parent subtracts from
the command's wall time. The exit code is the command's.
"""

import json
import sys
import time

import calib


def kernels() -> tuple[float, float]:
    """(one timed kernel call after a warm-up call, seconds spent in both)."""
    started = time.perf_counter()
    calib.kernel()
    sample = calib.timed_kernel()
    return sample, time.perf_counter() - started


def main() -> int:
    calib_file, argv = sys.argv[1], sys.argv[2:]
    before, spent_before = kernels()
    import pinchjac.cli
    try:
        code = pinchjac.cli.main(argv)
    finally:
        sys.stdout.flush()
        after, spent_after = kernels()
        with open(calib_file, "w", encoding="utf-8") as out:
            json.dump({"before": before, "after": after,
                       "spent": spent_before + spent_after}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
