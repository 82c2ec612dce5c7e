"""One CLI invocation in a fresh interpreter, timed from inside.

Usage: child.py RECORD_FD [--trace SPANS_FILE] -- CLI ARGS...

Imports ``wedge_crystal.cli``, optionally wraps the package's functions with
spans (``tracer``), calls ``cli.main`` with the given arguments and writes
one JSON record to the inherited file descriptor RECORD_FD: the monotonic
clock reading when the CLI was ready to be called, the wall and CPU time of
``cli.main`` (output flushed), the exit code and the peak resident set.
"""

import json
import os
import resource
import sys
import time


def main():
    record_fd = int(sys.argv[1])
    rest = sys.argv[2:]
    split = rest.index("--")
    flags, argv = rest[:split], rest[split + 1:]
    spans_file = flags[1] if flags[:1] == ["--trace"] else None

    from wedge_crystal import cli

    tracer = None
    if spans_file is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic_ns()
    cpu0 = time.process_time_ns()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    cpu = time.process_time_ns() - cpu0
    end = time.monotonic_ns()
    record = {"rc": rc, "ready_ns": ready, "main_ns": end - ready, "cpu_ns": cpu,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.write(spans_file)
    with os.fdopen(record_fd, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
