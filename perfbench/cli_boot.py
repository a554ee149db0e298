"""Run one pinchjac CLI command under the span recorder (traced `cli` runs only).

Usage: cli_boot.py SPANS_FILE SPAWN_NS ARGV...

SPAWN_NS is the parent's perf_counter_ns() just before it started this
process, so interpreter start-up shows as span `cli.startup`. Import of the
CLI is span `cli.import`; the command itself runs inside span `cli.main`;
writing the spans and interpreter shutdown become `cli.exit` in the parent.
Spans go to SPANS_FILE and the exit code is the command's.
"""

import sys
import time

started = time.perf_counter_ns()


def main() -> int:
    spans_file, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    before_import = time.perf_counter_ns()
    import pinchjac.cli
    after_import = time.perf_counter_ns()
    # imported after the CLI, whose imports it shares, to keep tracing overhead small
    from spans import Recorder, install
    recorder = Recorder()
    install(recorder)
    recorder.add("cli.startup", spawn_ns, started)
    recorder.add("cli.import", before_import, after_import)
    main_span = recorder.open("cli.main")
    recorder.active = True
    try:
        code = pinchjac.cli.main(argv)
    finally:
        recorder.active = False
        recorder.close(main_span)
        sys.stdout.flush()
        recorder.dump(spans_file, exit_ns=time.perf_counter_ns())
    return code


if __name__ == "__main__":
    sys.exit(main())
