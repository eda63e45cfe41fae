"""Command-line front end.

Subcommands: measure, chain, sweep, monogamy, groupop, gaussian, repro.
Reports are JSON (or CSV for sweeps) written to --output or stdout. No
interactive mode: the intended users are scripts and CI.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(tolerance breach, or a NaN or infinite report value, which strict JSON
cannot hold), 4 I/O error, 5 out of memory (an allocation failed, such
as a grid too large for the memory available; the message names it).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from . import __version__
from .gaussian import cm_ratio_negativity, symplectic_eigenvalues, tmsvs_cm
from .groupop import (
    ASSOC_TOL,
    DEFAULT_GRID,
    LAW_REGISTRY,
    check_group_operation,
    necessary_conditions_check,
)
from .measures import MeasureSpec, evaluate_measure
from .monogamy import DEFAULT_GRID_N, VIOLATION_TOL, check_ineq_xya_grid, sample_monogamy_scan
from .reports import (
    SWEEP_CSV_COLUMNS,
    chain_from_json,
    cm_to_json,
    dump_report,
    make_report,
    read_json,
    read_state,
)
from .states import PSD_TOL
from .swapping import chain_compose, chain_prefixes
from .tensor import require_positive, require_tolerance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_MEMORY = 5

DEFAULT_MEASURES = "negativity,log_negativity,ratio"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _number(rule, name: str):
    """argparse type: float(text) if rule(value, name) accepts it, else the rule's message."""
    def parse(text: str) -> float:
        try:
            return rule(float(text), name)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


_alpha = _number(require_positive, "alpha")


def _dims(text: str) -> list[int]:
    try:
        return [int(d) for d in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r} ({exc})") from None


def cmd_measure(args) -> tuple[int, dict]:
    kinds = [m.strip() for m in args.measures.split(",") if m.strip()]
    if not kinds:
        raise ValueError(f"--measures names no measure, got {args.measures!r}")
    if args.alpha is not None and "alpha_ratio" not in kinds:
        raise ValueError("--alpha applies only to the alpha_ratio measure; "
                         f"--measures {args.measures!r} does not name it")
    alpha = 1.0 if args.alpha is None else args.alpha
    # Built first, so that a bad kind or alpha is refused before the file is read.
    specs = [MeasureSpec(k, alpha) if k == "alpha_ratio" else MeasureSpec(k) for k in kinds]
    state = read_state(args.input, args.tol_psd)
    results = [evaluate_measure(spec, state, psd_tol=args.tol_psd).to_json() for spec in specs]
    # A cutoff is set in the state file; perfbench/reference.json pins this null field.
    config = {"input": args.input, "measures": args.measures, "alpha": alpha,
              "cutoff": None, "tol_psd": args.tol_psd}
    return EXIT_OK, {"config": config, "result": {"measures": results}}


def _chain_input(args):
    """The chain file read once: its links, measure and alpha, and the
    report config, which keeps the file as written."""
    doc = read_json(args.input)
    links, measure, alpha = chain_from_json(doc)
    return links, measure, alpha, {"input": args.input, "alpha": alpha, "spec": doc}


def cmd_chain(args) -> tuple[int, dict]:
    links, measure, alpha, config = _chain_input(args)
    result = chain_compose(links, measure=measure, alpha=alpha)
    return EXIT_OK, {"config": config, "result": result.to_json()}


def cmd_sweep(args) -> tuple[int, dict | str]:
    links, measure, alpha, config = _chain_input(args)
    rows = []
    for prefix in chain_prefixes(links, measure=measure, alpha=alpha):
        res = prefix.to_json()
        rows.append({"l": res["length"], "value": res["end_to_end"],
                     "xi": res["characteristic_length"], "alpha": alpha, "kind": res["kind"]})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SWEEP_CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        return EXIT_OK, buf.getvalue()
    return EXIT_OK, {"config": config, "result": {"rows": rows}}


def cmd_monogamy(args) -> tuple[int, dict]:
    grid = check_ineq_xya_grid(0.5, 0.5, args.alpha, args.grid).to_json()
    report = sample_monogamy_scan(args.dims, args.samples, args.alpha, args.seed,
                                  violation_tol=args.tol_violation)
    config = {"dims": args.dims, "samples": args.samples, "alpha": args.alpha, "seed": args.seed,
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
    # cm_ratio_negativity refuses an invalid matrix, so a report is valid.
    chi = cm_ratio_negativity(cm)
    nu = symplectic_eigenvalues(cm)
    return EXIT_OK, {"config": {"r": args.r}, "result": {
        "covariance_matrix": cm_to_json(cm),
        "valid": True,
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
    p.add_argument("--alpha", type=_alpha, default=None,
                   help="power of alpha_ratio (default 1); only with alpha_ratio")
    p.add_argument("--tol-psd", type=_number(require_tolerance, "psd_tol"), default=PSD_TOL,
                   help="eigenvalues of a mixed input down to -tol-psd are accepted, and "
                        "negativities below it read 0")
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("chain", help="compose a chain spec")
    p.add_argument("--input", required=True, help="chain JSON file")
    common(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("sweep", help="per-length chain values (plot-ready)")
    p.add_argument("--input", required=True, help="chain JSON file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("monogamy", help="Monte-Carlo monogamy scan")
    p.add_argument("--dims", type=_dims, required=True, help="comma-separated party dimensions")
    p.add_argument("--samples", type=int, default=1000, help="default %(default)s")
    p.add_argument("--alpha", type=_alpha, default=1.0, help="default %(default)s")
    p.add_argument("--seed", type=int, default=0, help="default %(default)s")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_N)
    p.add_argument("--tol-violation", type=_number(require_tolerance, "violation_tol"),
                   default=VIOLATION_TOL)
    common(p)
    p.set_defaults(fn=cmd_monogamy)

    p = sub.add_parser("groupop", help="group-operation analysis of a registry law")
    p.add_argument("--law", required=True, help=f"one of {sorted(LAW_REGISTRY)}")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--tol-assoc", type=_number(require_tolerance, "assoc_tol"), default=ASSOC_TOL)
    common(p)
    p.set_defaults(fn=cmd_groupop)

    p = sub.add_parser("gaussian", help="covariance-matrix route for a squeezed state")
    p.add_argument("--r", type=_number(require_positive, "squeezing parameter r"), required=True,
                   help="squeezing parameter")
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
    try:
        return _run(args)
    except MemoryError as exc:
        # numpy's message names the allocation: its size, shape and dtype.
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_MEMORY


def _run(args) -> int:
    t0 = time.perf_counter()
    try:
        code, payload = args.fn(args)
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    elapsed = time.perf_counter() - t0
    if isinstance(payload, str):
        text = payload
    else:
        report = make_report(args.command, payload["config"], payload["result"], elapsed)
        try:
            text = dump_report(report)
        except ValueError as exc:
            print(f"numerical error: the report holds a NaN or infinite value ({exc})",
                  file=sys.stderr)
            return EXIT_NUMERICAL
    try:
        _write_text(args.output, text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
