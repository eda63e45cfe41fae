"""qchain benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload {scan,dense,cli} --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client in one process (the CLI workload
waits on one child process at a time) runs the workload's job list, one
"pass", again and again until S seconds have passed; the pass under way
finishes. Every job output is checked (see workloads.py).

--trace 0 prints the end-to-end metrics: setup_s, the median of
SETUP_REPEATS set-ups, each from process start, before `import qchain`, to
the inputs being ready; pass_s, the median pass time; peak_rss_mb, of this
process or, for the CLI workload, of the largest child; and ok_frac, the
share of jobs that ran and gave a correct output (1 - fail_frac).

setup_s and pass_s are scaled to a reference machine speed (see `probe`);
the unscaled wall times are printed next to them and kept in the run record.

--trace 1 alternates untraced and traced passes for S seconds, then times
the tensor kernels alone, and prints the per-layer metrics of
tracing.PER_LAYER. trace.overhead_s is the traced median pass time minus
the untraced one.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Run records and the spans of the first traced pass are written to
.perfbench/ in the checkout.
"""

import time

PROBE_LOOPS = 40_000
PROBE_REF_S = 0.002


def probe() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds.

    On a shared host the machine's speed drifts by tens of percent over
    seconds to minutes, for this loop and for qchain's work alike. A time t
    measured while the loop takes p seconds is reported as t * PROBE_REF_S / p:
    seconds on a machine where the loop takes PROBE_REF_S.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(wall: float, probe_before: float, probe_after: float) -> float:
    return wall * PROBE_REF_S * 2 / (probe_before + probe_after)


P0 = probe()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import paths  # noqa: E402
from tracing import ALL  # noqa: E402

SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "QCHAIN_THREADS")
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)
MAX_FAILURES_SHOWN = 20


@dataclass
class Passes:
    times: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    walls: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    profiles: list = field(default_factory=list)
    first_spans: dict | None = None


def run_pass(wl, out: Passes, tracer=None) -> None:
    """One pass over the workload's jobs, added to `out`."""
    from tracing import fold, merge

    pass_time = pass_scaled = 0.0
    before = probe()
    for job in wl.jobs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = job.run()
            else:
                with tracer.span("job." + job.name):
                    raw = job.run()
        except Exception as exc:  # a job that raises counts as failed
            dt = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            problems = None
        after = probe()
        if problems is None:
            try:
                problems = wl.verify(job, raw)
            except Exception as exc:  # an unreadable output counts as failed
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        pass_time += dt
        pass_scaled += scaled(dt, before, after)
        out.probes.append(after)
        before = after
        out.walls.setdefault(job.name, []).append(dt)
        out.attempted += 1
        if problems:
            out.failures.append((len(out.times), job.name, problems))
    out.times.append(pass_time)
    out.scaled.append(pass_scaled)
    if tracer is not None:
        spans = tracer.take()
        profile = fold(spans)
        children = {}
        if wl.cli is not None:
            for job_name, child_profile, child_spans in wl.cli.children:
                merge(profile, child_profile)
                children[job_name] = child_spans
            wl.cli.children.clear()
        out.profiles.append(profile)
        if out.first_spans is None:
            out.first_spans = {"spans": spans, "children": children}


def traced_pass(wl, out: Passes, tracer, workdir: Path) -> None:
    """One pass with the tracer installed, in CLI children too."""
    tracer.install()
    if wl.cli is not None:
        wl.cli.trace_dir = workdir
    try:
        run_pass(wl, out, tracer)
    finally:
        tracer.uninstall()
        if wl.cli is not None:
            wl.cli.trace_dir = None


def tail(values: list):
    """(level, value) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        if len(ordered) * (1 - level / 100) >= 10:
            return level, ordered[math.ceil(level / 100 * len(ordered)) - 1]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def getconf(name: str):
    try:
        text = subprocess.run(["getconf", name], capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(text) if text.isdigit() else None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def setup_probe(args) -> tuple[float, float]:
    """One more set-up, measured the same way in a fresh process:
    (wall seconds, scaled seconds)."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          capture_output=True, timeout=170, check=True)
    wall, scaled_s = proc.stdout.split()[-2:]
    return float(wall), float(scaled_s)


def report_failures(passes: Passes) -> None:
    for index, job, problems in passes.failures[:MAX_FAILURES_SHOWN]:
        print(f"FAIL pass {index} {job}: {'; '.join(problems[:3])}", file=sys.stderr)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(args, wl, setup: tuple[float, float]) -> tuple[dict, Passes]:
    runs = Passes()
    end = time.perf_counter() + args.seconds
    while not runs.times or time.perf_counter() < end:
        run_pass(wl, runs)
    who = resource.RUSAGE_CHILDREN if wl.cli is not None else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    failed = len(runs.failures)
    metrics = {"setup_s": statistics.median(s for _, s in setups),
               "pass_s": statistics.median(runs.scaled),
               "peak_rss_mb": peak_mb, "ok_frac": (runs.attempted - failed) / runs.attempted}
    q1, q3 = quartiles(runs.scaled)
    high = tail(runs.scaled)
    tail_text = (f"p{high[0]:g} {high[1]:.4f} s" if high
                 else f"no tail percentile: {len(runs.scaled)} passes, p50 needs 20")
    print(f"probe       {statistics.median(runs.probes) * 1e3:.3f} ms median "
          f"(scaled times are seconds at {PROBE_REF_S * 1e3:g} ms)")
    print(f"setup_s     {metrics['setup_s']:.4f} s  median of {len(setups)} set-ups "
          f"{[round(s, 4) for _, s in setups]}; wall {[round(w, 4) for w, _ in setups]}")
    print(f"pass_s      {metrics['pass_s']:.4f} s  q1 {q1:.4f} q3 {q3:.4f} "
          f"n={len(runs.scaled)} passes; {tail_text}; wall median "
          f"{statistics.median(runs.times):.4f} s")
    for job, walls in runs.walls.items():
        print(f"  job {job:<14} wall median {statistics.median(walls):.4f} s")
    print(f"peak_rss_mb {peak_mb:.1f} MB  "
          f"({'largest CLI child' if wl.cli is not None else 'benchmark process'})")
    print(f"fail_frac   {failed / runs.attempted:g}  ({failed} of {runs.attempted} jobs failed)")
    return metrics, runs


def per_layer(args, wl, workdir: Path) -> tuple[dict, Passes]:
    import kernels
    import workloads
    from tracing import CLI_JOBS, PER_LAYER, Tracer, summarize

    base, traced, tracer = Passes(), Passes(), Tracer()
    end = time.perf_counter() + args.seconds
    while not traced.times or time.perf_counter() < end:
        run_pass(wl, base)
        traced_pass(wl, traced, tracer, workdir)
    metrics, unsteady = summarize(traced.profiles)
    for job in CLI_JOBS:
        metrics[f"cli.{job}.wall_s"] = statistics.median(base.walls[job]) if job in base.walls else 0.0
    kernel_seed = workloads.derive_seed(args.seed, 30)
    metrics.update(kernels.kernel_times(kernel_seed))
    metrics["tensor.kernel.eigvalsh.d1024_1thread_s"] = kernels.one_thread_eigvalsh(kernel_seed)
    base_s, traced_s = statistics.median(base.times), statistics.median(traced.times)
    metrics["trace.overhead_s"] = traced_s - base_s

    spans_file = paths.OUT / f"spans-{args.workload}-s{args.seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "size"],
                                      **traced.first_spans}))
    print(f"trace overhead {metrics['trace.overhead_s']:.4f} s per pass "
          f"(traced {traced_s:.4f} s over {len(traced.times)} passes, "
          f"untraced {base_s:.4f} s over {len(base.times)})")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:<46} {metrics[name]!r} {unit}")
    absent = [name for name, _, _ in PER_LAYER if not metrics[name]]
    if absent:
        print(f"zero because the {args.workload} workload does not run these layers: "
              f"{', '.join(absent)}")
    if unsteady:
        print(f"WARNING counts that differed between traced passes: {', '.join(unsteady)}")
    print(f"spans of the first traced pass: {spans_file}")
    merged = Passes(times=base.times, walls=base.walls,
                    attempted=base.attempted + traced.attempted,
                    failures=base.failures + traced.failures)
    return metrics, merged


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="qchain benchmark")
    p.add_argument("--workload", required=True, choices=ALL)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        paths.use_checkout_source()
    except paths.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    paths.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=paths.OUT))
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup_wall = time.perf_counter() - T0
        setup = (setup_wall, scaled(setup_wall, P0, probe()))
        if args.setup_probe:
            print(*map(repr, setup))
            return 0
        env = environment(args)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env " + json.dumps(env))
        if args.trace:
            from tracing import PER_LAYER
            values, passes = per_layer(args, wl, workdir)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, passes = end_to_end(args, wl, setup)
            units = E2E_UNITS
        report_failures(passes)
        failed = len(passes.failures)
        record = {"env": env, "pass_wall_s": passes.times, "pass_scaled_s": passes.scaled,
                  "probe_s": passes.probes, "metrics": values,
                  "job_s": {job: statistics.median(w) for job, w in passes.walls.items()},
                  "failures": passes.failures[:MAX_FAILURES_SHOWN]}
        (paths.OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        print(json.dumps({"correct": failed == 0, "attempted": passes.attempted, "failed": failed,
                          "metrics": {name: {"value": values[name], "unit": unit}
                                      for name, unit in units.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
