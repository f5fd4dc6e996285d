"""Run one repstat CLI invocation in a fresh interpreter.

Usage: python3 child.py SRC_DIR TRACE_PATH -- ARGV...

Imports ``repstat.cli`` from SRC_DIR, writes a set-up stamp line to
stderr (``perfbench-setup-ns <CLOCK_MONOTONIC ns>``, taken once the import
has finished), then runs the CLI as the ``repstat`` console script does.
A TRACE_PATH of ``-`` runs untraced; any other value wraps the public
functions first and writes the spans to TRACE_PATH when the CLI returns.
"""

import os
import sys
import time

STAMP = "perfbench-setup-ns"


def main() -> int:
    src, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC_DIR TRACE_PATH -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import repstat.cli

    stamp = time.monotonic_ns()
    # An installed copy must not stand in for the tree under test.
    if not os.path.realpath(repstat.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"repstat imported from {repstat.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.stderr.write(f"{STAMP} {stamp}\n")
    sys.stderr.flush()
    if trace_path == "-":
        sys.argv = ["repstat", *argv]
        repstat.cli.run()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = repstat.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
