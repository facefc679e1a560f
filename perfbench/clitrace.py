"""Run one promptlab CLI command with the span tracer installed, then save its spans.

Usage: python3 clitrace.py --spans FILE --command NAME -- <promptlab.cli arguments>

``import promptlab.cli`` is timed before the tracer is installed, so
``cli.import_s`` is the import cost a user pays, without tracing overhead.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="span file to write")
    parser.add_argument("--command", required=True, help="metric name of the command")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import promptlab.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer, install

    tracer = Tracer(args.command)
    install(tracer)
    tracer.begin_window()
    t1 = time.perf_counter()
    try:
        return promptlab.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t1
        tracer.end_window()
        tracer.save(args.spans, {"command": args.command, "import_s": import_s,
                                 "main_s": main_s})


if __name__ == "__main__":
    sys.exit(main())
