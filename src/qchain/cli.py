"""Command-line front end.

Subcommands: measure, chain, sweep, monogamy, groupop, gaussian, repro.
Reports are JSON (or CSV for sweeps) written to --output or stdout. No
interactive mode: the intended users are scripts and CI.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(tolerance breach), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__
from .gaussian import cm_ratio_negativity, symplectic_eigenvalues, tmsvs_cm, validate_cm
from .groupop import (
    ASSOC_TOL,
    DEFAULT_GRID,
    LAW_REGISTRY,
    check_group_operation,
    necessary_conditions_check,
)
from .measures import MeasureSpec, _check_alpha, evaluate_measure
from .monogamy import check_ineq_xya_grid, sample_monogamy_scan
from .reports import (
    SWEEP_CSV_COLUMNS,
    cm_to_json,
    dump_report,
    make_report,
    state_from_json,
)
from .states import PSD_TOL
from .swapping import chain_compose, qubit_link, qudit_link, tmsvs_link

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_MEASURES = "negativity,log_negativity,ratio"


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _finite(text: str, ok, rule: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and ok(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number {rule}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _finite(text, lambda v: v >= 0, ">= 0")


def _positive(text: str) -> float:
    return _finite(text, lambda v: v > 0, "> 0")


def _file_integer(value, what: str) -> int:
    """An integer field of an input file: a JSON integer (a number with no
    fractional part, as the JSON Schemas read "integer"), never a boolean
    or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _file_alpha(value) -> float:
    """A power alpha from an input file: a JSON number, finite and > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"alpha must be a number, got {value!r}")
    try:
        alpha = float(value)
    except OverflowError:  # an integer literal beyond the float range
        alpha = math.inf
    _check_alpha(alpha)
    return alpha


def _links_from_spec(doc: dict):
    kind = doc.get("kind")
    raw = doc.get("links")
    if kind not in ("tmsvs", "qubit", "qudit"):
        raise ValueError(f"chain kind must be tmsvs|qubit|qudit, got {kind!r}")
    if isinstance(raw, dict):
        params = raw["identical"]
        count = _file_integer(raw["count"], "links.count")
        if count < 1:
            raise ValueError(f"links.count must be an integer >= 1, got {count}")
        entries = [params] * count
    elif isinstance(raw, list) and raw:
        entries = raw
    else:
        raise ValueError("links must be a non-empty list or {identical, count}")
    links = []
    for p in entries:
        if kind == "tmsvs":
            links.append(tmsvs_link(float(p["r"])))
        elif kind == "qubit":
            links.append(qubit_link(lam=p.get("lambda"),
                                    concurrence=p.get("concurrence")))
        else:
            links.append(qudit_link(lam=p.get("lambda"), d=p.get("d"),
                                    g_concurrence=p.get("g_concurrence")))
    return links


def cmd_measure(args) -> tuple[int, dict]:
    doc = _read_json(args.input)
    if isinstance(doc, dict) and doc.get("kind") == "tmsvs" and args.cutoff is not None:
        doc = {**doc, "cutoff": args.cutoff}
    state = state_from_json(doc, args.tol_psd)
    results = []
    for kind in [m.strip() for m in args.measures.split(",") if m.strip()]:
        spec = MeasureSpec(kind=kind, alpha=args.alpha)
        results.append(evaluate_measure(spec, state, psd_tol=args.tol_psd).to_json())
    config = {"input": args.input, "measures": args.measures, "alpha": args.alpha,
              "cutoff": args.cutoff, "tol_psd": args.tol_psd}
    return EXIT_OK, {"config": config, "result": {"measures": results}}


def _chain_result(args):
    doc = _read_json(args.input)
    links = _links_from_spec(doc)
    alpha = _file_alpha(doc.get("alpha", args.alpha))
    measure = doc.get("measure")
    return chain_compose(links, measure=measure, alpha=alpha), doc, alpha


def cmd_chain(args) -> tuple[int, dict]:
    result, doc, alpha = _chain_result(args)
    config = {"input": args.input, "alpha": alpha, "spec": doc}
    return EXIT_OK, {"config": config, "result": result.to_json()}


def cmd_sweep(args) -> tuple[int, dict | str]:
    doc = _read_json(args.input)
    links = _links_from_spec(doc)
    if len({lk.kind for lk in links}) > 1:
        raise ValueError("sweep requires a homogeneous chain")
    alpha = _file_alpha(doc.get("alpha", args.alpha))
    measure = doc.get("measure")
    rows = []
    for l in range(1, len(links) + 1):
        res = chain_compose(links[:l], measure=measure, alpha=alpha)
        rows.append({"l": l, "value": res.end_to_end,
                     "xi": "inf" if math.isinf(res.characteristic_length)
                     else res.characteristic_length,
                     "alpha": alpha, "kind": res.kind})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        return EXIT_OK, buf.getvalue()
    config = {"input": args.input, "alpha": alpha, "spec": doc}
    return EXIT_OK, {"config": config, "result": {"rows": rows}}


def cmd_monogamy(args) -> tuple[int, dict]:
    if args.input:
        doc = _read_json(args.input)
        dims = [_file_integer(d, "dims entry") for d in doc["dims"]]
        samples = _file_integer(doc["samples"], "samples")
        alpha = _file_alpha(doc["alpha"])
        seed = _file_integer(doc["seed"], "seed")
    else:
        if args.dims is None:
            raise ValueError("monogamy needs --input or --dims")
        dims = [int(d) for d in args.dims.split(",")]
        samples, alpha, seed = args.samples, args.alpha, args.seed
    grid = check_ineq_xya_grid(0.5, 0.5, alpha, args.grid).to_json()
    report = sample_monogamy_scan(dims, samples, alpha, seed,
                                  violation_tol=args.tol_violation)
    config = {"dims": dims, "samples": samples, "alpha": alpha, "seed": seed,
              "tol_violation": args.tol_violation, "grid": args.grid}
    return EXIT_OK, {"config": config,
                     "result": {"scan": report.to_json(), "two_term_grid": grid}}


def cmd_groupop(args) -> tuple[int, dict]:
    group = check_group_operation(args.law, grid_n=args.grid, assoc_tol=args.tol_assoc)
    necessary = necessary_conditions_check(args.law, grid_n=args.grid)
    config = {"law": args.law, "grid": args.grid, "tol_assoc": args.tol_assoc}
    return EXIT_OK, {"config": config,
                     "result": {"group_operation": group.to_json(),
                                "necessary_conditions": necessary.to_json()}}


def cmd_gaussian(args) -> tuple[int, dict]:
    cm = tmsvs_cm(args.r)
    validation = validate_cm(cm)
    chi = cm_ratio_negativity(cm, (0,))
    nu = symplectic_eigenvalues(cm.gamma)
    config = {"r": args.r}
    return EXIT_OK, {"config": config, "result": {
        "covariance_matrix": cm_to_json(cm),
        "valid": validation.ok,
        "symplectic_eigenvalues": [float(v) for v in nu],
        "ratio_negativity": chi,
    }}


def cmd_repro(args) -> tuple[int, dict]:
    from .repro import run_fixtures

    fixtures = run_fixtures(args.only)
    all_pass = all(f.passed for f in fixtures)
    for f in fixtures:
        status = "PASS" if f.passed else "FAIL"
        print(f"[{status}] {f.name}", file=sys.stderr)
        if not f.passed:
            for c in f.checks:
                if not c.passed:
                    print(f"         {c.name}: computed {c.computed!r}, "
                          f"expected {c.expected!r} (tol {c.tolerance!r})", file=sys.stderr)
    config = {"only": args.only}
    result = {"fixtures": [f.to_json() for f in fixtures], "all_pass": all_pass}
    return (EXIT_OK if all_pass else EXIT_NUMERICAL), {"config": config, "result": result}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Entanglement measures and 1D entanglement-swapping chains.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("measure", help="evaluate measures on a state file")
    p.add_argument("--input", required=True, help="state JSON file")
    p.add_argument("--measures", default=DEFAULT_MEASURES,
                   help=f"comma-separated measure kinds (default {DEFAULT_MEASURES})")
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff override for tmsvs inputs")
    p.add_argument("--tol-psd", type=_tolerance, default=PSD_TOL,
                   help="eigenvalues of a mixed input down to -tol-psd are accepted, and "
                        "negativities below it read 0")
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("chain", help="compose a chain spec")
    p.add_argument("--input", required=True, help="chain JSON file")
    p.add_argument("--alpha", type=_positive, default=1.0)
    common(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("sweep", help="per-length chain values (plot-ready)")
    p.add_argument("--input", required=True, help="chain JSON file")
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("monogamy", help="Monte-Carlo monogamy scan")
    p.add_argument("--input", default=None, help="scan config JSON file")
    p.add_argument("--dims", default=None, help="comma-separated party dimensions")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=500)
    p.add_argument("--tol-violation", type=_tolerance, default=1e-9)
    common(p)
    p.set_defaults(fn=cmd_monogamy)

    p = sub.add_parser("groupop", help="group-operation analysis of a registry law")
    p.add_argument("--law", required=True, help=f"one of {sorted(LAW_REGISTRY)}")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol-assoc", type=_tolerance, default=ASSOC_TOL)
    common(p)
    p.set_defaults(fn=cmd_groupop)

    p = sub.add_parser("gaussian", help="covariance-matrix route for a squeezed state")
    p.add_argument("--r", type=_positive, required=True, help="squeezing parameter")
    common(p)
    p.set_defaults(fn=cmd_gaussian)

    p = sub.add_parser("repro", help="run the built-in verification fixtures")
    p.add_argument("--only", default=None, help="run a single fixture by name")
    common(p)
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the validation code.
        return int(exc.code) if exc.code else EXIT_OK
    t0 = time.perf_counter()
    try:
        code, payload = args.fn(args)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    elapsed = time.perf_counter() - t0
    try:
        if isinstance(payload, str):
            _write_text(args.output, payload)
        else:
            report = make_report(args.command, payload["config"], payload["result"], elapsed)
            _write_text(args.output, dump_report(report))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
