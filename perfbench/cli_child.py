"""Run one qchain CLI command with the tracer installed.

    python3 perfbench/cli_child.py TRACE_OUT JOB ARGV...

The command's report goes to stdout as usual and its exit code is this
process's exit code. TRACE_OUT receives the folded profile and the raw
spans, plus the interpreter start time (from PERFBENCH_SPAWN_T, the parent's
monotonic clock just before the spawn) and the time `import qchain.cli` took.
"""

import time

START = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

import paths  # noqa: E402


def main() -> int:
    trace_out, job, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    paths.use_checkout_source()
    import qchain.cli
    import_s = time.perf_counter() - t0

    import json

    from tracing import Tracer, add_count, fold

    tracer = Tracer()
    tracer.install()
    try:
        code = qchain.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    spans = tracer.take()
    profile = fold(spans, job)
    add_count(profile, "children", 1)
    add_count(profile, "python_start_s", START - float(os.environ["PERFBENCH_SPAWN_T"]))
    add_count(profile, "import_s", import_s)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"profile": profile, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
