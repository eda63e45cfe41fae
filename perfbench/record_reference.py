"""Record the reference outputs and the exact per-pass counts of the code.

    python3 perfbench/record_reference.py

Runs one untraced and one traced pass of every workload at DEFAULT_SEED and
writes two files next to this script:

- reference.json: every job's output, which each benchmark run compares
  against (workloads.py says when);
- METRICS.json: each workload's reason, which end-to-end metric each
  per-layer metric should move, and the exact counts of a traced pass.

Re-record only when a change of outputs is intended, and say so in the
change. Count changes are claimed against METRICS.json.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import paths

paths.use_checkout_source()

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ALL, EXACT, PER_LAYER, Tracer, summarize  # noqa: E402

JOB_SPANS = ("tensor.eigvalsh", "tensor.svd", "states.substream", "groupop.law")

END_TO_END = {
    "setup_s": "median of 3 set-ups, each from process start, before import qchain, "
               "to the inputs being ready (input generation included); scaled to the "
               "reference machine speed (run.probe)",
    "pass_s": "median time of one pass over the workload's jobs, each job's wall time "
              "scaled to the reference machine speed (run.probe)",
    "peak_rss_mb": "peak resident memory of the benchmark process; for cli, of the "
                   "largest child process",
    "ok_frac": "jobs that ran and gave a correct output / jobs attempted, i.e. 1 - fail_frac",
}


def calls_by_job(first_spans: dict) -> dict:
    """Calls of the JOB_SPANS per job of one traced pass."""
    out: dict = {}
    spans = first_spans["spans"]
    job_of: list = []
    for name, _, _, parent, _ in spans:
        job = name[4:] if name.startswith("job.") else (job_of[parent] if parent >= 0 else None)
        job_of.append(job)
        if name in JOB_SPANS:
            out.setdefault(job, dict.fromkeys(JOB_SPANS, 0))[name] += 1
    for job, child_spans in first_spans["children"].items():
        for span in child_spans:
            if span[0] in JOB_SPANS:
                out.setdefault(job, dict.fromkeys(JOB_SPANS, 0))[span[0]] += 1
    return out


def main() -> int:
    outputs, counts = {}, {}
    paths.OUT.mkdir(exist_ok=True)
    for name in ALL:
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=paths.OUT))
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir, reference=False)
            outputs[name] = {}
            for job in wl.jobs:
                out = job.output(job.run())
                problems = job.check(out)
                if problems:
                    print(f"{name}/{job.name}: {problems}", file=sys.stderr)
                    return 1
                outputs[name][job.name] = out
            traced = run.Passes()
            run.traced_pass(wl, traced, Tracer(), workdir)
            if traced.failures:
                print(f"{name}: traced pass failed: {traced.failures}", file=sys.stderr)
                return 1
            values, _ = summarize(traced.profiles)
            counts[name] = {k: v for k, v in values.items() if k in EXACT}
            counts[name]["by_job"] = calls_by_job(traced.first_spans)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    (paths.BENCH / "reference.json").write_text(json.dumps(
        {"seed": workloads.DEFAULT_SEED, "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    metrics = {
        "workloads": workloads.WHY,
        "end_to_end": END_TO_END,
        "per_layer": {n: {"unit": unit, "should_move": moves} for n, unit, moves in PER_LAYER},
        "counts_per_pass": {"seed": workloads.DEFAULT_SEED, **counts},
    }
    (paths.BENCH / "METRICS.json").write_text(json.dumps(metrics, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
