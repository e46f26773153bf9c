"""Launcher for one fracstab CLI command in a fresh interpreter.

    python3 bench/cli_child.py SPAWN_TIME TRACE_FILE SUBCOMMAND [CLI ARGS...]

SPAWN_TIME is the parent's time.monotonic() just before the spawn; the
launcher reports spawn-to-main seconds from it.  With TRACE_FILE other than
"-", the benchmark's wrappers are installed before main runs and the spans
and counts are written to TRACE_FILE as JSON.  The exit code is main's.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv):
    spawned = float(argv[0])
    trace_file = argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    from fracstab import cli

    ready = time.monotonic()
    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("fracstab")
        tracer.begin_item(argv[2])
    code = cli.main(argv[2:])
    if tracer is not None:
        dump = tracer.dump()
        dump["startup_s"] = ready - spawned
        Path(trace_file).write_text(json.dumps(dump), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
