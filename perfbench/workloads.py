"""The benchmark's workloads: their seeded inputs, job lists and output checks.

A workload is a fixed list of jobs, one "pass", built from the seed. Every
job output is checked twice: by invariants that hold for any seed, and
against `reference.json`, which holds the outputs recorded at DEFAULT_SEED.
Outputs that do not depend on the seed are compared at every seed, the
others only at DEFAULT_SEED. Integers, strings and booleans must match
exactly, floats within FLOAT_TOL.

Library jobs call qchain through module attributes (`monogamy.sample_...`),
so the tracer's wrappers and a patched function are both seen.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np
from qchain import measures, monogamy, reports, states, swapping, tensor

import paths
from tracing import add_count

DEFAULT_SEED = 0
REFERENCE = paths.BENCH / "reference.json"
FLOAT_TOL = 1e-9
RELATION_TOL = 1e-12
PSD_TOL = 1e-10
FOCK_BOUND = 1e-8  # the bound acceptance criterion 03 puts on the cross-check
CHILD_TIMEOUT = 150

WHY = {
    "scan": "monogamy scans of 4x4 to 64x64 states: per-sample Python, Philox set-up and tiny "
            "LAPACK calls, not flops; shows batched scans, not dense-kernel work",
    "dense": "dense measures at dims 256 to 1681: nearly all eigvalsh on partial transposes; "
             "shows one-spectrum-per-state work and keeps large pure states on the Schmidt route",
    "cli": "every qchain subcommand as a child process, import included, as scripts and CI pay; "
           "the only place reports, groupop, gaussian, repro and cli run",
}

MIXED_KINDS = ("negativity", "log_negativity", "ratio")
PURE_KINDS = ("ratio", "concurrence", "g_concurrence")
SCANS = (("scan_222", (2, 2, 2), 1000), ("scan_224", (2, 2, 4), 1000),
         ("scan_2222", (2, 2, 2, 2), 1000), ("scan_222222", (2,) * 6, 200))
TMSVS_R = 1.0
CHAIN_LINKS = 200
SWEEP_LINKS = 50
SWEEP_G = 0.9
GAUSSIAN_R = 0.5


class JobError(Exception):
    """A job's output could not be read (non-zero exit, unreadable report)."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    seeded: bool
    plain: Callable[[Any], Any] = None

    def output(self, raw):
        """The job's result as plain JSON data."""
        return (self.plain or plain)(raw)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    cli: "Cli | None" = None
    reference: dict = field(default_factory=dict)

    def verify(self, job: Job, raw) -> list:
        """Problems with one job's output; empty when it is correct."""
        out = job.output(raw)
        problems = job.check(out)
        if job.name in self.reference and (not job.seeded or self.seed == DEFAULT_SEED):
            problems += compare(self.reference[job.name], out)
        return problems


def derive_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one input of the run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _jsonable(value):
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


def plain(value):
    return json.loads(json.dumps(_jsonable(value), default=lambda v: v.item()))


def compare(expected, actual, path: str = "$") -> list:
    """Differences between a recorded output and a new one."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(value, actual[key], f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}, got {actual!r}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(actual, expected, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r} (tolerance {FLOAT_TOL})"]
    if type(actual) is type(expected) and actual == expected:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


# ---- checks that hold for any seed ---------------------------------------

def _close(what: str, value: float, expected: float, tol: float, rel: bool = False) -> list:
    if rel:
        ok = math.isclose(value, expected, rel_tol=tol, abs_tol=0.0)
    else:
        ok = abs(value - expected) <= tol
    return [] if ok else [f"{what}: {value!r} != {expected!r} (tolerance {tol})"]


def check_scan(out: dict, dims, samples: int) -> list:
    # (2,2,2) scans append the known violating three-qubit state.
    evaluated = samples + (1 if tuple(dims) == (2, 2, 2) else 0)
    problems = []
    if out["dims"] != list(dims) or out["samples"] != samples:
        problems.append(f"scan ran {out['dims']} x {out['samples']}, asked {list(dims)} x {samples}")
    if not out["family_covered"]:
        problems.append(f"dims {dims} should be a covered family")
    if out["violation_count"] != 0:
        problems.append(f"{out['violation_count']} violations at the power threshold")
    if sum(out["histogram"]) != evaluated:
        problems.append(f"histogram holds {sum(out['histogram'])} samples, expected {evaluated}")
    return problems


def check_grid(out: dict) -> list:
    if out["violation_count"] != 0 or out["witness"] is not None:
        return [f"two-term inequality violated {out['violation_count']} times"]
    return []


def check_relations(results: list, kinds) -> list:
    """ratio = N/(N+1), log_negativity = log2(trace norm), and PPT exactly
    when N = 0, all from the trace norm every result reports."""
    problems = []
    if [r["measure"] for r in results] != list(kinds):
        problems.append(f"measures {[r['measure'] for r in results]}, expected {list(kinds)}")
    t = results[0]["trace_norm"]
    n = (t - 1.0) / 2.0
    n = 0.0 if -PSD_TOL < n < PSD_TOL else max(n, 0.0)
    expected = {"negativity": n, "log_negativity": math.log2(t), "ratio": n / (n + 1.0)}
    for r in results:
        problems += _close(f"{r['measure']} trace norm", r["trace_norm"], t, RELATION_TOL, rel=True)
        if r["ppt"] != (n == 0.0):
            problems.append(f"{r['measure']}: ppt={r['ppt']} with negativity {n!r}")
        if r["measure"] in expected:
            problems += _close(r["measure"], r["value"], expected[r["measure"]], RELATION_TOL)
    return problems


def check_pure(results: list, d: int) -> list:
    problems = check_relations(results, PURE_KINDS)
    values = {r["measure"]: r["value"] for r in results}
    if not 0.0 <= values["concurrence"] <= math.sqrt(2.0 * (1.0 - 1.0 / d)) + RELATION_TOL:
        problems.append(f"concurrence {values['concurrence']!r} outside its range for d={d}")
    if not 0.0 <= values["g_concurrence"] <= 1.0 + RELATION_TOL:
        problems.append(f"G-concurrence {values['g_concurrence']!r} outside [0, 1]")
    return problems


def check_tmsvs_ratio(results: list, r: float) -> list:
    """The truncated state's ratio is tanh r within the amplitude tail
    chi^(cutoff+1), the square root of the reported truncation deficit."""
    ratio = next(x for x in results if x["measure"] == "ratio")
    return _close("tmsvs ratio", ratio["value"], math.tanh(r),
                  math.sqrt(ratio["truncation_deficit"]))


def check_fock(out: dict) -> list:
    problems = []
    worst = max(out["deviation"].values())
    if not worst < FOCK_BOUND:
        problems.append(f"Fock cross-check deviation {worst!r} >= {FOCK_BOUND}")
    chi = math.tanh(0.5) ** 5
    return problems + _close("composite r", out["composite_r"], math.atanh(chi), RELATION_TOL, rel=True)


# ---- library workloads ---------------------------------------------------

def _late(module, name: str, *args):
    """A job that looks `module.name` up when it runs, so the tracer's
    wrappers and a patched function are what it calls."""
    return lambda: getattr(module, name)(*args)


def _measure_mixed(layout, matrix):
    dm = states.DensityMatrix(matrix, layout)  # untrusted: validation runs
    return [measures.evaluate_measure(measures.MeasureSpec(kind), dm) for kind in MIXED_KINDS]


def _measure_pure(make_state):
    psi = make_state()
    return [measures.evaluate_measure(measures.MeasureSpec(kind), psi) for kind in PURE_KINDS]


def scan_jobs(seed: int) -> list:
    alpha = monogamy.alpha_threshold()
    jobs = [Job(name, _late(monogamy, "sample_monogamy_scan", dims, samples, alpha,
                            derive_seed(seed, k)),
                partial(check_scan, dims=dims, samples=samples), seeded=True)
            for k, (name, dims, samples) in enumerate(SCANS)]
    jobs.append(Job("grid_xya", _late(monogamy, "check_ineq_xya_grid", 0.5, 0.5, alpha, 500),
                    check_grid, seeded=False))
    return jobs


def dense_jobs(seed: int) -> list:
    jobs = []
    for k, (name, dims, party_a) in enumerate((("mixed_256", (16, 16), (0,)),
                                               ("mixed_1024", (2, 16, 32), (0, 2)))):
        layout = tensor.SubsystemLayout(dims, party_a)
        matrix = states.random_density_matrix(layout, 8, derive_seed(seed, 10 + k)).matrix
        jobs.append(Job(name, partial(_measure_mixed, layout, matrix),
                        partial(check_relations, kinds=MIXED_KINDS), seeded=True))
    jobs.append(Job("fock", _late(swapping, "chain_fock_crosscheck", 0.5, 5, 40),
                    check_fock, seeded=False))
    haar = states.random_haar_pure(tensor.SubsystemLayout((32, 32), (0,)), derive_seed(seed, 12))
    jobs.append(Job("haar_32x32", partial(_measure_pure, lambda: haar),
                    partial(check_pure, d=32), seeded=True))
    spec = states.TmsvsSpec.from_r(TMSVS_R, cutoff=60)
    jobs.append(Job("tmsvs_60", partial(_measure_pure, _late(states, "tmsvs_truncated", spec)),
                    lambda out: check_pure(out, 61) + check_tmsvs_ratio(out, TMSVS_R),
                    seeded=False))
    return jobs


# ---- cli workload --------------------------------------------------------

class Cli:
    """Runs qchain CLI commands in child processes.

    Untraced, a child is `python -m qchain.cli ARGV`. With `trace_dir` set,
    it is cli_child.py, which traces the command and leaves its profile in
    `trace_dir`; the profiles collect in `children` as (job, profile, spans).
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        pythonpath = [str(paths.SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
        self.trace_dir: Path | None = None
        self.children: list = []

    def run(self, job: str, argv: list) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            return subprocess.run([sys.executable, "-m", "qchain.cli", *argv], capture_output=True,
                                  cwd=self.workdir, env=self.env, timeout=CHILD_TIMEOUT)
        trace_file = self.trace_dir / f"{job}.trace.json"
        env = {**self.env, "PERFBENCH_SPAWN_T": repr(time.monotonic())}
        proc = subprocess.run([sys.executable, str(paths.BENCH / "cli_child.py"), str(trace_file),
                               job, *argv], capture_output=True, cwd=self.workdir, env=env,
                              timeout=CHILD_TIMEOUT)
        doc = json.loads(trace_file.read_text())
        trace_file.unlink()
        profile = doc["profile"]
        if "--input" in argv:
            add_count(profile, "input_bytes",
                      os.path.getsize(self.workdir / argv[argv.index("--input") + 1]))
        add_count(profile, "output_bytes", len(proc.stdout))
        self.children.append((job, profile, doc["spans"]))
        return proc


def _stdout(proc: subprocess.CompletedProcess) -> str:
    if proc.returncode != 0:
        raise JobError(f"exit code {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return proc.stdout.decode()


def cli_report(proc: subprocess.CompletedProcess) -> dict:
    return reports.strip_meta(json.loads(_stdout(proc)))


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def cli_csv(proc: subprocess.CompletedProcess) -> dict:
    reader = csv.DictReader(io.StringIO(_stdout(proc)))
    rows = [{k: _number(v) for k, v in row.items()} for row in reader]
    return {"columns": list(reader.fieldnames or []), "rows": rows}


def check_measure_pure(out: dict) -> list:
    results = out["result"]["measures"]
    return check_relations(results, MIXED_KINDS) + check_tmsvs_ratio(results, TMSVS_R)


def check_measure_mixed(out: dict) -> list:
    return check_relations(out["result"]["measures"], MIXED_KINDS)


def check_chain(out: dict) -> list:
    res = out["result"]
    chi = math.tanh(TMSVS_R)
    problems = [] if res["length"] == CHAIN_LINKS else [f"chain length {res['length']}"]
    problems += [p for v in res["per_hop"] for p in _close("per-hop value", v, chi, RELATION_TOL)]
    return problems + _close("end-to-end value", res["end_to_end"], chi ** CHAIN_LINKS, FLOAT_TOL, rel=True)


def check_sweep(out: dict) -> list:
    problems = []
    if out["columns"] != list(reports.SWEEP_CSV_COLUMNS):
        problems.append(f"sweep columns {out['columns']}")
    if [row["l"] for row in out["rows"]] != list(range(1, SWEEP_LINKS + 1)):
        problems.append(f"sweep rows {[row['l'] for row in out['rows']]}")
    for row in out["rows"]:
        problems += _close(f"sweep value at l={row['l']}", row["value"], SWEEP_G ** row["l"],
                           1e-8, rel=True)
    return problems


def check_cli_monogamy(out: dict) -> list:
    res = out["result"]
    return check_scan(res["scan"], (2, 2, 2), 1000) + check_grid(res["two_term_grid"])


def check_groupop(out: dict) -> list:
    group = out["result"]["group_operation"]
    problems = []
    if group["law"] != "tanh_sum" or group["grid_n"] != 64:
        problems.append(f"groupop ran {group['law']} at grid {group['grid_n']}")
    for axiom in ("closure", "associativity", "identity"):
        if not group[axiom]["passed"]:
            problems.append(f"tanh_sum fails {axiom}: {group[axiom]['detail']}")
    if group["identity_element"] is None or abs(group["identity_element"]) > 1e-9:
        problems.append(f"tanh_sum identity element {group['identity_element']!r}, expected 0")
    return problems


def check_gaussian(out: dict) -> list:
    res = out["result"]
    problems = [] if res["valid"] else ["tmsvs covariance matrix reported invalid"]
    return problems + _close("Gaussian ratio negativity", res["ratio_negativity"],
                             math.tanh(GAUSSIAN_R), RELATION_TOL)


def check_repro(out: dict) -> list:
    res = out["result"]
    failed = [f["name"] for f in res["fixtures"] if not f["pass"]]
    if res["all_pass"] and not failed:
        return []
    return [f"repro fixtures failed: {failed}"]


def write_cli_inputs(workdir: Path, seed: int) -> None:
    """The CLI's input files; the mixed state is about 52 MB of JSON."""
    mixed = states.random_density_matrix(tensor.SubsystemLayout((2, 16, 32), (0, 2)), 8,
                                         derive_seed(seed, 21))
    docs = {
        "tmsvs.json": {"kind": "tmsvs", "r": TMSVS_R},
        "mixed.json": reports.state_to_json(mixed),
        "chain.json": {"kind": "tmsvs",
                       "links": {"identical": {"r": TMSVS_R}, "count": CHAIN_LINKS}},
        "sweep.json": {"kind": "qudit",
                       "links": {"identical": {"d": 8, "g_concurrence": SWEEP_G},
                                 "count": SWEEP_LINKS}},
    }
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc))


def cli_jobs(seed: int, cli: Cli) -> list:
    specs = [
        ("measure_pure", ["measure", "--input", "tmsvs.json"], check_measure_pure, False),
        ("measure_mixed", ["measure", "--input", "mixed.json"], check_measure_mixed, True),
        ("chain", ["chain", "--input", "chain.json"], check_chain, False),
        ("sweep", ["sweep", "--input", "sweep.json", "--format", "csv"], check_sweep, False),
        ("monogamy", ["monogamy", "--dims", "2,2,2", "--samples", "1000", "--alpha", "3.191",
                      "--seed", str(derive_seed(seed, 22))], check_cli_monogamy, True),
        ("groupop", ["groupop", "--law", "tanh_sum", "--grid", "64"], check_groupop, False),
        ("gaussian", ["gaussian", "--r", str(GAUSSIAN_R)], check_gaussian, False),
        ("repro", ["repro"], check_repro, False),
    ]
    return [Job(name, partial(cli.run, name, argv), check, seeded,
                plain=cli_csv if name == "sweep" else cli_report)
            for name, argv, check, seeded in specs]


def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        return {}
    doc = json.loads(REFERENCE.read_text())
    if doc["seed"] != DEFAULT_SEED:
        raise ValueError(f"{REFERENCE} was recorded at seed {doc['seed']}, not {DEFAULT_SEED}")
    return doc["outputs"].get(name, {})


def build(name: str, seed: int, workdir: Path, reference: bool = True) -> Workload:
    """The workload's inputs and job list; this is the timed set-up."""
    ref = load_reference(name) if reference else {}
    if name == "scan":
        return Workload(name, seed, scan_jobs(seed), reference=ref)
    if name == "dense":
        return Workload(name, seed, dense_jobs(seed), reference=ref)
    if name == "cli":
        write_cli_inputs(workdir, seed)
        cli = Cli(workdir)
        return Workload(name, seed, cli_jobs(seed, cli), cli=cli, reference=ref)
    raise ValueError(f"unknown workload {name!r}")
