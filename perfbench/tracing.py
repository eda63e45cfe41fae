"""Spans around calls into qchain's layers, recorded from outside the library.

`Tracer.install` replaces every public qchain function at each of its import
sites (the package namespace and every module that imported it by name) with
a wrapper that records a span: name, start, end, parent and a size. It also
wraps `numpy.linalg.eigvalsh` and `numpy.linalg.svd`, which qchain calls as
module attributes, so direct LAPACK calls such as the one in
`measures.is_ppt` are counted too. Spans stay in memory; `fold` turns the
spans of one pass into call counts, self times and derived counters.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import types
from contextlib import contextmanager

LAYERS = ("tensor", "states", "measures", "gaussian", "swapping", "monogamy",
          "groupop", "reports", "repro", "cli")

# Jobs whose dense eigensolves count towards measures.eigensolves_per_value.
MIXED_JOBS = frozenset({"mixed_256", "mixed_1024", "measure_mixed"})

# Spans whose inner calls some counters are restricted to.
SCAN_SPAN = "monogamy.sample_monogamy_scan"
GROUP_SPAN = "groupop.check_group_operation"

CLI_JOBS = ("measure_pure", "measure_mixed", "chain", "sweep", "monogamy",
            "groupop", "gaussian", "repro")
KERNELS = ("eigvalsh", "partial_transpose", "svd", "partial_trace")
KERNEL_DIMS = (4, 64, 256, 1024)

ALL = ("scan", "dense", "cli")

# Per-layer metrics: name, unit, and the end-to-end metrics (metric@workload)
# each one should explain. Counts and self times are per pass.
PER_LAYER = [
    ("tensor.eigvalsh.calls", "count", ["pass_s@dense", "pass_s@cli", "pass_s@scan"]),
    ("tensor.eigvalsh.calls_ge256", "count", ["pass_s@dense", "pass_s@cli"]),
    ("tensor.eigvalsh.self_s", "s", ["pass_s@dense", "pass_s@cli", "pass_s@scan"]),
    ("tensor.eigvalsh.n3", "count", ["pass_s@dense", "pass_s@cli"]),
    ("tensor.svd.calls", "count", ["pass_s@scan", "pass_s@dense", "pass_s@cli"]),
    ("tensor.svd.self_s", "s", ["pass_s@scan", "pass_s@dense", "pass_s@cli"]),
    ("tensor.partial_transpose.calls", "count", ["pass_s@dense", "pass_s@cli", "pass_s@scan"]),
    ("tensor.partial_transpose.self_s", "s", ["pass_s@dense", "pass_s@cli", "pass_s@scan"]),
    ("tensor.partial_transpose.bytes", "B", ["pass_s@dense", "pass_s@cli"]),
    ("tensor.partial_trace.calls", "count", ["pass_s@scan", "pass_s@cli"]),
    ("tensor.partial_trace.self_s", "s", ["pass_s@scan", "pass_s@cli"]),
    ("tensor.schmidt_decompose.calls", "count", ["pass_s@scan", "pass_s@dense", "pass_s@cli"]),
    ("tensor.schmidt_decompose.self_s", "s", ["pass_s@scan", "pass_s@dense", "pass_s@cli"]),
] + [
    (f"tensor.kernel.{k}.d{d}_s", "s", ["pass_s@dense"]) for k in KERNELS for d in KERNEL_DIMS
] + [
    ("tensor.kernel.eigvalsh.d1024_1thread_s", "s", ["pass_s@dense"]),
    ("states.substream.calls", "count", ["pass_s@scan", "pass_s@cli"]),
    ("states.substream.self_s", "s", ["pass_s@scan", "pass_s@cli"]),
    ("states.random_haar_pure.self_s", "s", ["pass_s@scan", "pass_s@cli"]),
    ("states.density_validate.calls", "count", ["pass_s@dense", "pass_s@cli"]),
    ("states.density_validate.self_s", "s", ["pass_s@dense", "pass_s@cli"]),
    ("measures.evaluate_measure.calls", "count", ["pass_s@dense", "pass_s@cli"]),
    ("measures.evaluate_measure.self_s", "s", ["pass_s@dense", "pass_s@cli"]),
    ("measures.pt_trace_norm.calls", "count", ["pass_s@dense", "pass_s@cli", "pass_s@scan"]),
    ("measures.is_ppt.calls", "count", ["pass_s@dense", "pass_s@cli"]),
    ("measures.eigensolves_per_value", "ratio", ["pass_s@dense", "pass_s@cli"]),
    ("monogamy.sample_monogamy_scan.self_s", "s", ["pass_s@scan", "pass_s@cli"]),
    ("monogamy.ckw_residual.calls", "count", ["pass_s@scan", "pass_s@cli"]),
    ("monogamy.ckw_residual.self_s", "s", ["pass_s@scan", "pass_s@cli"]),
    ("monogamy.generators_per_sample", "ratio", ["pass_s@scan", "pass_s@cli"]),
    ("monogamy.density_matrices_per_sample", "ratio",
     ["pass_s@scan", "peak_rss_mb@scan", "pass_s@cli"]),
    ("groupop.check_group_operation.self_s", "s", ["pass_s@cli"]),
    ("groupop.necessary_conditions_check.self_s", "s", ["pass_s@cli"]),
    ("groupop.law_calls", "count", ["pass_s@cli"]),
    ("groupop.law_calls_per_pair", "ratio", ["pass_s@cli"]),
    ("swapping.chain_fock_crosscheck.self_s", "s", ["pass_s@dense"]),
    ("swapping.chain_compose.calls", "count", ["pass_s@cli"]),
    ("swapping.chain_compose.self_s", "s", ["pass_s@cli"]),
    ("gaussian.cm_ratio_negativity.self_s", "s", ["pass_s@cli"]),
    ("reports.parse_s", "s", ["pass_s@cli", "peak_rss_mb@cli"]),
    ("reports.state_from_json.self_s", "s", ["pass_s@cli", "peak_rss_mb@cli"]),
    ("reports.dump_report.self_s", "s", ["pass_s@cli"]),
    ("reports.input_bytes", "B", ["pass_s@cli", "setup_s@cli"]),
    ("reports.output_bytes", "B", ["pass_s@cli"]),
    ("repro.run_fixtures.self_s", "s", ["pass_s@cli"]),
    ("cli.python_start_s", "s", ["pass_s@cli"]),
    ("cli.import_s", "s", ["pass_s@cli"]),
] + [
    (f"cli.{job}.wall_s", "s", ["pass_s@cli"]) for job in CLI_JOBS
] + [
    ("trace.overhead_s", "s", []),
]

# Metrics that must repeat exactly across passes. Report sizes are left out:
# each report's meta carries a timestamp and an elapsed time.
EXACT = {name for name, unit, _ in PER_LAYER
         if unit in ("count", "B", "ratio") and name != "reports.output_bytes"}


class Tracer:
    """In-memory span recorder for one process.

    Each span is (name, start, end, parent index, size); a span's parent
    always precedes it in `spans`.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._undo: list = []

    def _wrap(self, name, fn, size=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = size(args, kwargs) if size is not None else 0
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, n)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one job."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, 0)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy as np

        from qchain.groupop import DEFAULT_GRID, CompositionLaw
        from qchain.states import DensityMatrix

        def dim(args, kwargs):
            return int(args[0].shape[-1])

        def is_mixed(args, kwargs):
            return int(isinstance(kwargs.get("state", args[1] if len(args) > 1 else None),
                                  DensityMatrix))

        sizes = {
            "tensor.partial_transpose": dim,
            "measures.evaluate_measure": is_mixed,
            "groupop.check_group_operation":
                lambda a, k: int(k.get("grid_n", a[1] if len(a) > 1 else DEFAULT_GRID)),
        }
        modules = [importlib.import_module("qchain")]
        modules += [importlib.import_module(f"qchain.{m}") for m in LAYERS]
        wrappers: dict = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if not home.startswith("qchain."):
                    continue
                if value not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value, sizes.get(name))
                self._patch(mod, attr, wrappers[value])
        self._patch(np.linalg, "eigvalsh", self._wrap("tensor.eigvalsh", np.linalg.eigvalsh, dim))
        self._patch(np.linalg, "svd", self._wrap("tensor.svd", np.linalg.svd))
        self._patch(DensityMatrix, "__post_init__",
                    self._wrap("states.DensityMatrix", DensityMatrix.__post_init__))
        self._patch(DensityMatrix, "validate",
                    self._wrap("states.density_validate", DensityMatrix.validate))
        self._patch(CompositionLaw, "__call__",
                    self._wrap("groupop.law", CompositionLaw.__call__))
        self._patch(json, "load", self._wrap("reports.parse", json.load))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def empty_profile() -> dict:
    return {"calls": {}, "self_s": {}, "count": {}}


def add_count(profile: dict, key: str, value) -> None:
    profile["count"][key] = profile["count"].get(key, 0) + value


def merge(into: dict, other: dict) -> None:
    for part in ("calls", "self_s", "count"):
        for key, value in other[part].items():
            into[part][key] = into[part].get(key, 0) + value


def fold(spans: list, job: str | None = None) -> dict:
    """Calls, self time and counters of one pass's spans.

    `job` names the job the spans belong to when no `job.*` span encloses
    them (the spans of a CLI child process).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    profile = empty_profile()
    calls, self_s = profile["calls"], profile["self_s"]
    jobs = [None] * len(spans)
    scope = [None] * len(spans)
    for i, (name, t0, t1, parent, size) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
        if name.startswith("job."):
            jobs[i] = name[4:]
        else:
            jobs[i] = jobs[parent] if parent >= 0 else job
        if name in (SCAN_SPAN, GROUP_SPAN):
            scope[i] = name
        elif parent >= 0:
            scope[i] = scope[parent]
        if name == "tensor.eigvalsh":
            add_count(profile, "eigvalsh_n3", size ** 3)
            if size >= 256:
                add_count(profile, "eigvalsh_ge256", 1)
                if jobs[i] in MIXED_JOBS:
                    add_count(profile, "mixed_eigvalsh_ge256", 1)
        elif name == "tensor.partial_transpose":
            add_count(profile, "partial_transpose_bytes", 2 * 16 * size * size)
        elif name == "measures.evaluate_measure":
            add_count(profile, "mixed_values", size)
        elif name == GROUP_SPAN:
            add_count(profile, "law_pairs", size * size)
        elif scope[i] == GROUP_SPAN and name == "groupop.law":
            add_count(profile, "group_law_calls", 1)
        elif scope[i] == SCAN_SPAN and name == "states.substream":
            add_count(profile, "scan_generators", 1)
        elif scope[i] == SCAN_SPAN and name == "states.DensityMatrix":
            add_count(profile, "scan_density_matrices", 1)
        elif scope[i] == SCAN_SPAN and name == "monogamy.ckw_residual":
            add_count(profile, "scan_samples", 1)
    return profile


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_values(profile: dict) -> dict:
    """Per-layer metrics that one pass's profile determines."""
    calls, self_s, count = profile["calls"], profile["self_s"], profile["count"]
    special = {
        "tensor.eigvalsh.calls_ge256": count.get("eigvalsh_ge256", 0),
        "tensor.eigvalsh.n3": count.get("eigvalsh_n3", 0),
        "tensor.partial_transpose.bytes": count.get("partial_transpose_bytes", 0),
        "measures.eigensolves_per_value":
            _ratio(count.get("mixed_eigvalsh_ge256", 0), count.get("mixed_values", 0)),
        "monogamy.generators_per_sample":
            _ratio(count.get("scan_generators", 0), count.get("scan_samples", 0)),
        "monogamy.density_matrices_per_sample":
            _ratio(count.get("scan_density_matrices", 0), count.get("scan_samples", 0)),
        "groupop.law_calls": count.get("group_law_calls", 0),
        "groupop.law_calls_per_pair":
            _ratio(count.get("group_law_calls", 0), count.get("law_pairs", 0)),
        "reports.parse_s": self_s.get("reports.parse", 0.0),
        "reports.input_bytes": count.get("input_bytes", 0),
        "reports.output_bytes": count.get("output_bytes", 0),
        "cli.python_start_s": _ratio(count.get("python_start_s", 0.0), count.get("children", 0)),
        "cli.import_s": _ratio(count.get("import_s", 0.0), count.get("children", 0)),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s") and not name.startswith("cli."):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
    return out


def summarize(profiles: list) -> tuple[dict, list]:
    """Median over passes of each per-pass metric, and the counts that
    differed between passes (they should repeat exactly)."""
    per_pass = [layer_values(p) for p in profiles]
    result, unsteady = {}, []
    for name in per_pass[0]:
        values = [v[name] for v in per_pass]
        if name in EXACT and len(set(values)) == 1:
            result[name] = values[0]
        else:
            result[name] = statistics.median(values)
            if name in EXACT:
                unsteady.append(name)
    return result, unsteady
