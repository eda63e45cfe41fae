"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

- Fault injection: one pass of a library workload runs with a qchain
  function patched in-process to return a wrong value, at a seed other than
  the reference seed, and must report fail_frac > 0; the same pass without
  the patch must report fail_frac = 0.
- BENCHMARK.json must name exactly the workloads and metrics run.py prints,
  with the same units and reasons.

Exits 0 when every check holds.
"""

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import paths

paths.use_checkout_source()

import qchain.measures  # noqa: E402
import qchain.monogamy  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ALL, PER_LAYER  # noqa: E402

SEED = 7


def _inflated_trace_norm(original):
    return lambda state: original(state) * 1.01


def _negative_residual(original):
    def wrong(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), residual=-1.0, satisfied=False)
    return wrong


FAULTS = [
    ("dense", qchain.measures, "pt_trace_norm", _inflated_trace_norm),
    ("scan", qchain.monogamy, "ckw_residual", _negative_residual),
]


def fail_frac(name: str, patch=None) -> float:
    workdir = Path(tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=paths.OUT))
    try:
        wl = workloads.build(name, SEED, workdir)
        passes = run.Passes()
        if patch is None:
            run.run_pass(wl, passes)
        else:
            module, attr, make_wrong = patch
            original = getattr(module, attr)
            setattr(module, attr, make_wrong(original))
            try:
                run.run_pass(wl, passes)
            finally:
                setattr(module, attr, original)
        return len(passes.failures) / passes.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_benchmark_json() -> list:
    doc = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
    problems = []
    workloads_json = {w["name"]: w["why"] for w in doc["workloads"]}
    if workloads_json != {name: workloads.WHY[name] for name in ALL}:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    if {m["name"]: m["unit"] for m in doc["end_to_end"]} != run.E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if [(m["name"], m["unit"]) for m in doc["per_layer"]] != [(n, u) for n, u, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    return problems


def main() -> int:
    paths.OUT.mkdir(exist_ok=True)
    problems = check_benchmark_json()
    for name, module, attr, make_wrong in FAULTS:
        clean = fail_frac(name)
        faulty = fail_frac(name, (module, attr, make_wrong))
        print(f"{name}: fail_frac {clean:g} clean, {faulty:g} with {attr} patched")
        if clean != 0.0:
            problems.append(f"{name}: clean pass has fail_frac {clean}")
        if not faulty > 0.0:
            problems.append(f"{name}: patched {attr} went unnoticed")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
