"""Numerical criteria for composition laws g(x, y).

A strictly monotone reparametrization f with f(g(x, y)) = f(x) f(y)
exists exactly when g is a continuous group operation on its interval, so
this module grid-checks the group axioms (closure, associativity,
identity, solvability in each argument as the numerical stand-in for
inverses) and verifies supplied candidate f's. It never synthesizes f
from g; constructing one requires one-parameter-subgroup machinery far
beyond what a grid check can support.

The identity search runs 7 scans of 512 candidates, each a 512 x grid
array, so associativity's g(y, z) stays the only whole grid x grid array;
the other checks walk the grid in slabs.

All checks are deterministic: same law, same grid, same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import _slab_max, require_tolerance

ASSOC_TOL = 1e-9
IDENTITY_TOL = 1e-9
CLOSURE_TOL = 1e-9
SOLVE_TOL = 1e-10
F_CHECK_TOL = 1e-9
DEFAULT_GRID = 64


@dataclass(frozen=True)
class CompositionLaw:
    """A binary law on [lo, hi]; open endpoints are sampled half a grid
    step inside. The callable must be pure and must broadcast over numpy
    arrays; errors it raises propagate."""

    name: str
    fn: Callable
    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def grid(self, n: int = DEFAULT_GRID) -> np.ndarray:
        if n < 2:
            raise ValueError(f"grid needs at least 2 points, got {n}")
        lo, hi = self.lo, self.hi
        step = (hi - lo) / (n + 1)
        if self.open_lo:
            lo = lo + step / 2
        if self.open_hi:
            hi = hi - step / 2
        return np.linspace(lo, hi, n)

    def __call__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        out = np.asarray(self.fn(x, y), dtype=float)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if out.shape != shape:
            raise ValueError(f"law {self.name!r} returned shape {out.shape} for arguments of "
                             f"shapes {x.shape} and {y.shape}; expected {shape}")
        return out


LAW_REGISTRY = {
    "product": CompositionLaw("product", lambda x, y: x * y, 0.0, 1.0, open_lo=True),
    "tanh_sum": CompositionLaw("tanh_sum", lambda x, y: (x + y) / (1.0 + x * y), 0.0, 1.0, open_hi=True),
    "min": CompositionLaw("min", lambda x, y: np.minimum(x, y), 0.0, 1.0),
    "sum": CompositionLaw("sum", lambda x, y: x + y, 0.0, 1.0),
}


def get_law(law: CompositionLaw | str) -> CompositionLaw:
    """The registry law of that name, or the law itself when given one."""
    if isinstance(law, CompositionLaw):
        return law
    try:
        return LAW_REGISTRY[law]
    except KeyError:
        raise ValueError(f"unknown law {law!r}; registry: {sorted(LAW_REGISTRY)}") from None


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    detail: str
    max_deviation: float = 0.0
    witness: tuple | None = None


@dataclass(frozen=True)
class GroupOperationReport:
    law: str
    grid_n: int
    closure: AxiomResult
    associativity: AxiomResult
    identity: AxiomResult
    identity_element: float | None
    solvability: AxiomResult
    is_group: bool

    def to_json(self) -> dict:
        def ax(a: AxiomResult) -> dict:
            # A non-applicable solvability test reports an infinite deviation.
            dev = "inf" if math.isinf(a.max_deviation) else a.max_deviation
            return {"passed": a.passed, "detail": a.detail, "max_deviation": dev,
                    "witness": list(a.witness) if a.witness is not None else None}
        return {"law": self.law, "grid_n": self.grid_n, "closure": ax(self.closure),
                "associativity": ax(self.associativity), "identity": ax(self.identity),
                "identity_element": self.identity_element, "solvability": ax(self.solvability),
                "is_group": self.is_group}


def _check_closure(law: CompositionLaw, xs: np.ndarray, tol: float) -> AxiomResult:
    def excess(start, stop):
        vals = law(xs[start:stop, None], xs[None, :])
        return np.maximum(vals - law.hi, law.lo - vals)

    worst, (x, y) = _slab_max((xs, xs), excess, "law produced a non-finite value")
    if worst > tol:
        return AxiomResult(False, f"g({x:.6g}, {y:.6g}) = {float(law(x, y)):.6g} leaves "
                                  f"[{law.lo}, {law.hi}]", worst, (x, y))
    return AxiomResult(True, "all grid compositions stay in the domain", max(0.0, worst))


def _check_associativity(law: CompositionLaw, xs: np.ndarray, tol: float) -> AxiomResult:
    """Max of |g(g(x,y),z) - g(x,g(y,z))| over the grid's (x, y, z) triples.

    g(y, z) is computed once; the triples run through _slab_max as rows of
    (x, y) pairs with z along the row, so memory grows with n^2, not n^3.
    """
    yz = law(xs[:, None], xs[None, :])

    def defect(start, stop):
        i, j = np.divmod(np.arange(start, stop), len(xs))
        x = xs[i][:, None]
        return np.abs(law(law(x, xs[j][:, None]), xs[None, :]) - law(x, yz[j]))

    worst, (x, y, z) = _slab_max((xs, xs, xs), defect,
                                 "law produced a non-finite associativity defect")
    if worst > tol:
        return AxiomResult(False, f"|g(g(x,y),z) - g(x,g(y,z))| = {worst:.3e} at "
                                  f"({x:.6g}, {y:.6g}, {z:.6g})", worst, (x, y, z))
    return AxiomResult(True, f"max associativity defect {worst:.3e}", worst)


def _identity_residuals(law: CompositionLaw, xs: np.ndarray, es) -> np.ndarray:
    """max over x of |g(x, e) - x| and |g(e, x) - x| for each candidate e in
    es. A non-finite residual counts as +inf, so a candidate at which the
    law is undefined, as it may be at an open endpoint, is never an
    identity."""
    es = np.asarray(es, dtype=float)[:, None]
    res = np.maximum(np.max(np.abs(law(xs, es) - xs), axis=1),
                     np.max(np.abs(law(es, xs) - xs), axis=1))
    return np.where(np.isfinite(res), res, np.inf)


def _find_identity(law: CompositionLaw, xs: np.ndarray, tol: float):
    """Minimize the identity residual over candidate e in 7 scans of 512:
    one over the domain, then 6 across the two steps of the last scan
    around the best candidate so far, so the last bracket is (2/511)^6
    (3.6e-15) of the domain. A candidate replaces the best only with a
    smaller residual, so the domain endpoints, which the first scan tries
    exactly and where identities of bounded laws usually sit, win ties."""
    candidates = np.linspace(law.lo, law.hi, 512)
    res = _identity_residuals(law, xs, candidates)
    k = int(np.argmin(res))
    e, r = float(candidates[k]), float(res[k])
    for _ in range(6):
        step = candidates[1] - candidates[0]
        candidates = np.linspace(max(law.lo, e - step), min(law.hi, e + step), 512)
        res = _identity_residuals(law, xs, candidates)
        k = int(np.argmin(res))
        if res[k] < r:
            e, r = float(candidates[k]), float(res[k])
    if r <= tol:
        return AxiomResult(True, f"identity e = {e:.12g} with residual {r:.3e}", r), e
    return AxiomResult(False, f"no identity found (best candidate {e:.6g}, residual {r:.3e})",
                       r, (e,)), None


def _check_solvability(law: CompositionLaw, xs: np.ndarray, tol: float) -> AxiomResult:
    """For each grid pair (x, z), try to solve g(x, w) = z for w in the
    domain by bisection. Requires monotonicity in the second argument.

    Quasigroup stand-in for the inverse axiom: failures are split into
    interior unsolvability (fatal) and target values outside the range of
    g(x, .) at the domain endpoints (reported, and fatal for the verdict
    since the axiom asks for solutions inside the domain).
    """
    probe = law(xs[len(xs) // 2], xs)
    diffs = np.diff(probe)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        return AxiomResult(False, "law is not monotone in its second argument; "
                                  "solvability test not applicable", math.inf)
    increasing = bool(diffs[0] > 0)
    w_lo, w_hi = float(xs[0]), float(xs[-1])
    g_lo, g_hi = law(xs, w_lo), law(xs, w_hi)
    lo_val, hi_val = (g_lo, g_hi) if increasing else (g_hi, g_lo)
    z = xs[None, :]
    outside_count = interior_count = 0
    first_failing = None

    def residuals(start, stop):
        # The residuals of the x rows start:stop, 0 where z is out of range.
        nonlocal outside_count, interior_count, first_failing
        x = xs[start:stop, None]
        outside = (z < lo_val[start:stop, None] - tol) | (z > hi_val[start:stop, None] + tol)
        # Each pair stops once its own bracket is below 1e-14, as a scalar
        # bisection would; a shared step count would move a, b and the residuals.
        a, b, live = np.full(outside.shape, w_lo), np.full(outside.shape, w_hi), ~outside
        for _ in range(100):
            if not live.any():
                break
            mid = (a + b) / 2.0
            below = (law(x, mid) < z) == increasing
            a = np.where(live & below, mid, a)
            b = np.where(live & ~below, mid, b)
            live &= ~(b - a < 1e-14)
        residual = np.where(outside, 0.0, np.abs(law(x, (a + b) / 2.0) - z))
        interior = residual > math.sqrt(tol)
        failing = outside | interior
        outside_count += int(np.count_nonzero(outside))
        interior_count += int(np.count_nonzero(interior))
        if first_failing is None and failing.any():
            # The witness is the first failing pair in (x, z) row-major order.
            i, k = np.unravel_index(np.argmax(failing), failing.shape)
            first_failing = (float(xs[start + i]), float(xs[k]))
        return residual

    worst, _ = _slab_max((xs, xs), residuals,
                         "law produced a non-finite residual solving g(x, w) = z for (x, z)")
    total = len(xs) ** 2
    if first_failing is None:
        return AxiomResult(True, f"g(x, .) = z solvable for all {total} grid pairs "
                                 f"(max residual {worst:.3e})", worst)
    detail = (f"{interior_count} interior failures, {outside_count} targets outside "
              f"the range of g(x, .) on the domain ({total} pairs)")
    return AxiomResult(False, detail, worst, first_failing)


def check_group_operation(law: CompositionLaw | str, grid_n: int = DEFAULT_GRID,
                          assoc_tol: float = ASSOC_TOL) -> GroupOperationReport:
    """Grid check of the four group axioms; the verdict requires all four.

    Bounded half-open intervals routinely fail only the solvability axiom
    at the endpoints; the per-axiom results let the caller judge such
    boundary cases.
    """
    require_tolerance(assoc_tol, "assoc_tol")
    law = get_law(law)
    xs = law.grid(grid_n)
    closure = _check_closure(law, xs, CLOSURE_TOL)
    assoc = _check_associativity(law, xs, assoc_tol)
    identity, e = _find_identity(law, xs, IDENTITY_TOL)
    solvability = _check_solvability(law, xs, SOLVE_TOL)
    return GroupOperationReport(law=law.name, grid_n=grid_n, closure=closure,
                                associativity=assoc, identity=identity, identity_element=e,
                                solvability=solvability,
                                is_group=all(a.passed for a in (closure, assoc, identity, solvability)))


@dataclass(frozen=True)
class MultiplicativeFReport:
    law: str
    grid_n: int
    direction: str
    max_deviation: float
    witness: tuple | None
    passed: bool


def verify_multiplicative_f(law: CompositionLaw | str, f: Callable,
                            grid_n: int = DEFAULT_GRID) -> MultiplicativeFReport:
    """Max over the grid of |f(g(x, y)) - f(x) f(y)|; f passes when it is
    at most F_CHECK_TOL.

    f must be strictly monotone on the grid; decreasing candidates are
    accepted and labeled (only measures built directly on the negativity
    need the increasing direction).
    """
    law = get_law(law)
    xs = law.grid(grid_n)
    f_of = np.vectorize(lambda v: float(f(v)), otypes=[float])
    fx = f_of(xs)
    diffs = np.diff(fx)
    if np.all(diffs > 0):
        direction = "increasing"
    elif np.all(diffs < 0):
        direction = "decreasing"
    else:
        raise ValueError("candidate f is not strictly monotone on the grid")

    def deviation(start, stop):
        fg = f_of(law(xs[start:stop, None], xs[None, :]))
        return np.abs(fg - fx[start:stop, None] * fx[None, :])

    worst, at = _slab_max((xs, xs), deviation, "f(g(x, y)) - f(x) f(y) is not finite")
    passed = worst <= F_CHECK_TOL
    return MultiplicativeFReport(law=law.name, grid_n=grid_n, direction=direction,
                                 max_deviation=worst, witness=None if passed else at,
                                 passed=passed)


@dataclass(frozen=True)
class NecessaryConditionsReport:
    law: str
    grid_n: int
    strictly_increasing: AxiomResult
    zero_annihilation: AxiomResult
    min_bound: AxiomResult

    def all_passed(self) -> bool:
        return all(a.passed for a in (self.strictly_increasing, self.zero_annihilation, self.min_bound))

    def to_json(self) -> dict:
        def ax(a: AxiomResult) -> dict:
            return {"passed": a.passed, "detail": a.detail,
                    "witness": list(a.witness) if a.witness is not None else None}
        return {"law": self.law, "grid_n": self.grid_n,
                "strictly_increasing": ax(self.strictly_increasing),
                "zero_annihilation": ax(self.zero_annihilation),
                "min_bound": ax(self.min_bound), "all_passed": self.all_passed()}


def necessary_conditions_check(law: CompositionLaw | str,
                               grid_n: int = DEFAULT_GRID) -> NecessaryConditionsReport:
    """Grid checks of the properties any swap-output measure composition
    must have: strict increase in each argument, vanishing exactly when an
    argument vanishes, and never exceeding the smaller argument."""
    law = get_law(law)
    xs = law.grid(grid_n)
    # Zero annihilation: g(0, y) = g(x, 0) = 0 on the zero edges (when the
    # domain contains 0) and g > 0 away from them.
    zero_in_domain = law.lo == 0.0 and not law.open_lo
    away = xs > 1e-12 if zero_in_domain else np.ones_like(xs, dtype=bool)
    increasing = interior_positive = True
    last = -math.inf  # the row above the slab: -inf above the first row, so it passes

    def bound_gap(start, stop):
        nonlocal increasing, interior_positive, last
        vals = law(xs[start:stop, None], xs[None, :])
        increasing &= bool(np.all(np.diff(vals, axis=0, prepend=last) > 0)
                           and np.all(np.diff(vals, axis=1) > 0))
        interior_positive &= bool(np.all(vals[np.ix_(away[start:stop], away)] > 0))
        last = vals[-1:]
        return vals - np.minimum(xs[start:stop, None], xs[None, :])

    worst, (x, y) = _slab_max((xs, xs), bound_gap, "law produced a non-finite value")
    mono = AxiomResult(increasing, "strictly increasing in both arguments on the grid" if increasing
                       else "not strictly increasing in at least one argument")
    zero_edges_ok = not zero_in_domain or bool(np.max(np.abs(law(0.0, xs))) <= 1e-9
                                               and np.max(np.abs(law(xs, 0.0))) <= 1e-9)
    if zero_edges_ok and interior_positive:
        detail = ("g vanishes exactly on the zero edges" if zero_in_domain
                  else "g is positive on the whole (zero-free) domain")
        anni = AxiomResult(True, detail)
    else:
        anni = AxiomResult(False, "zero annihilation fails "
                                  f"(edges zero: {zero_edges_ok}, interior positive: {interior_positive})")
    if worst > 1e-12:
        min_bound = AxiomResult(False, f"g({x:.6g}, {y:.6g}) = {float(law(x, y)):.6g} exceeds "
                                       f"min(x, y) = {min(x, y):.6g}", worst, (x, y))
    else:
        min_bound = AxiomResult(True, "g never exceeds min(x, y) on the grid", max(0.0, worst))
    return NecessaryConditionsReport(law=law.name, grid_n=grid_n, strictly_increasing=mono,
                                     zero_annihilation=anni, min_bound=min_bound)
