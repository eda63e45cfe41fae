import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.groupop import (
    ASSOC_TOL,
    LAW_REGISTRY,
    SOLVE_TOL,
    CLOSURE_TOL,
    F_CHECK_TOL,
    IDENTITY_TOL,
    AxiomResult,
    CompositionLaw,
    MultiplicativeFReport,
    NecessaryConditionsReport,
    _check_associativity,
    _check_closure,
    _check_solvability,
    _find_identity,
    check_group_operation,
    get_law,
    necessary_conditions_check,
    verify_multiplicative_f,
)


class TestProductLaw:
    def test_associativity_and_identity(self):
        report = check_group_operation("product", grid_n=64)
        assert report.associativity.passed
        assert report.associativity.max_deviation <= 1e-10
        assert report.identity.passed
        assert abs(report.identity_element - 1.0) < 1e-9

    def test_solvability_fails_with_named_axiom(self):
        # z > x has no w in (0, 1] with x w = z, so the interval carries
        # no inverses and the verdict is negative on that axiom alone.
        report = check_group_operation("product", grid_n=32)
        assert report.closure.passed
        assert not report.solvability.passed
        assert report.solvability.witness is not None
        x, z = report.solvability.witness
        assert z > x
        assert not report.is_group


class TestTanhSumLaw:
    def test_associativity_and_identity(self):
        report = check_group_operation("tanh_sum", grid_n=64)
        assert report.associativity.passed
        assert report.associativity.max_deviation <= 1e-10
        assert report.identity.passed
        assert abs(report.identity_element) < 1e-9

    def test_solvability_fails_below_x(self):
        report = check_group_operation("tanh_sum", grid_n=32)
        assert not report.solvability.passed
        x, z = report.solvability.witness
        assert z < x


class TestOtherRegistryLaws:
    def test_min_is_associative_with_identity_one(self):
        report = check_group_operation("min", grid_n=32)
        assert report.associativity.passed
        assert report.identity.passed
        assert abs(report.identity_element - 1.0) < 1e-9
        assert not report.solvability.passed

    def test_sum_fails_closure(self):
        report = check_group_operation("sum", grid_n=32)
        assert not report.closure.passed
        assert report.closure.witness is not None

    def test_unknown_law(self):
        with pytest.raises(ValueError, match="unknown law"):
            get_law("geometric_mean")


class TestIdentityOnNonFiniteLaws:
    def test_candidate_where_the_law_is_nan_is_not_an_identity(self):
        # Undefined at x = 0, the closed end of the candidate range; the
        # open grid never samples it. A NaN term must not read as residual 0.
        law = CompositionLaw("nan_left_zero", lambda x, y: np.where(x == 0.0, np.nan, x + y),
                             0.0, 1.0, open_lo=True)
        xs = law.grid(16)
        result, e = _find_identity(law, xs, IDENTITY_TOL)
        assert e != 0.0
        assert np.all(np.isfinite(law(xs, e))) and np.all(np.isfinite(law(e, xs)))
        assert result.max_deviation == max(np.max(np.abs(law(xs, e) - xs)),
                                           np.max(np.abs(law(e, xs) - xs)))

    def test_law_nan_everywhere_has_no_identity(self):
        law = CompositionLaw("nan", lambda x, y: np.full(np.broadcast(x, y).shape, np.nan), 0.0, 1.0)
        result, e = _find_identity(law, law.grid(16), IDENTITY_TOL)
        assert e is None and not result.passed
        assert result.max_deviation == math.inf
        assert "residual inf" in result.detail


def _shift_law(c):
    """x + y - c on [0, 1], with identity c."""
    return CompositionLaw("shift", lambda x, y: x + y - c, 0.0, 1.0)


def _tanh_shift_law(c):
    """tanh(atanh x + atanh y - atanh c) on [0, 1), with identity c. The
    atanh arguments are clipped below 1, so the candidate e = 1 gives a
    finite value, not a divide-by-zero warning."""
    below_one = np.nextafter(1.0, 0.0)

    def fn(x, y):
        return np.tanh(np.arctanh(np.minimum(x, below_one))
                       + np.arctanh(np.minimum(y, below_one)) - math.atanh(c))
    return CompositionLaw("tanh_shift", fn, 0.0, 1.0, open_hi=True)


class TestIdentitySearch:
    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.01, 0.99))
    @pytest.mark.parametrize("make_law", [_shift_law, _tanh_shift_law])
    def test_interior_identity(self, make_law, c):
        law = make_law(c)
        result, e = _find_identity(law, law.grid(64), IDENTITY_TOL)
        assert abs(e - c) <= 1e-14
        assert result.passed and result.max_deviation <= IDENTITY_TOL

    @pytest.mark.parametrize("grid_n", [2, 3, 17, 64, 1024])
    @pytest.mark.parametrize("name, identity", [("product", 1.0), ("tanh_sum", 0.0),
                                                ("min", 1.0), ("sum", 0.0)])
    def test_registry_identity_is_the_exact_endpoint(self, name, identity, grid_n):
        # The first scan tries the endpoints exactly, and a rescan candidate
        # replaces one only with a residual below its 0.
        law = get_law(name)
        result, e = _find_identity(law, law.grid(grid_n), IDENTITY_TOL)
        assert e == identity
        assert result.passed and result.max_deviation == 0.0

    def test_identity_outside_the_domain_is_not_found(self):
        # x + y + 0.001 has identity -0.001, less than the first scan's
        # step 1/511 below lo = 0: a rescan that left [lo, hi] would find it.
        law = _shift_law(-0.001)
        result, e = _find_identity(law, law.grid(16), IDENTITY_TOL)
        assert e is None and not result.passed
        assert result.witness == (0.0,)

    def test_wide_domain_returns(self):
        # Near 3e6 adjacent floats are 4.7e-10 apart, so a search that stops
        # on an absolute bracket width of 1e-14 never returned on this law.
        law = CompositionLaw("shift_3e6", lambda x, y: x + y - 3e6, 0.0, 1e7)
        result, e = _find_identity(law, law.grid(16), IDENTITY_TOL)
        assert result.passed
        assert abs(e - 3e6) <= 2 * math.ulp(3e6)


class TestCustomLaws:
    def test_wiggly_law_fails_associativity_with_witness(self):
        law = CompositionLaw("wiggly",
                             lambda x, y: x + y + x * y * np.sin(1.0 / (x + y + 0.1)),
                             0.0, 1.0)
        report = check_group_operation(law, grid_n=24)
        assert not report.associativity.passed
        assert report.associativity.max_deviation > 1e-6
        x, y, z = report.associativity.witness
        g = law.fn
        assert abs(g(g(x, y), z) - g(x, g(y, z))) > 1e-6

    def test_scalar_only_callable_raises_its_own_error(self):
        law = CompositionLaw("scalar_product", lambda x, y: float(x) * float(y),
                             0.0, 1.0, open_lo=True)
        with pytest.raises(TypeError):
            check_group_operation(law, grid_n=16)

    def test_non_broadcasting_law_rejected_by_name(self):
        law = CompositionLaw("constant", lambda x, y: 0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="'constant'"):
            check_group_operation(law, grid_n=16)

    @pytest.mark.parametrize("check", [check_group_operation, necessary_conditions_check,
                                       lambda law, grid_n: verify_multiplicative_f(law, math.exp, grid_n)],
                             ids=["check_group_operation", "necessary_conditions_check",
                                  "verify_multiplicative_f"])
    @pytest.mark.parametrize("grid_n", [1, 0])
    def test_grid_below_two_rejected(self, check, grid_n):
        with pytest.raises(ValueError, match="at least 2 points"):
            check("product", grid_n=grid_n)

    def test_non_finite_law_rejected(self):
        law = CompositionLaw("bad", lambda x, y: x / (y - y), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                check_group_operation(law, grid_n=16)

    def test_nan_associativity_defect_rejected(self):
        # Every grid composition is finite, so closure passes, but
        # g(g(x, y), z) is NaN once x * y < 1e-3.
        law = CompositionLaw("nanprod", lambda x, y: np.where(x < 1e-3, np.nan, x * y),
                             0.0, 1.0, open_lo=True)
        xs = law.grid(16)
        assert _check_closure(law, xs, CLOSURE_TOL).passed
        with pytest.raises(ValueError, match="non-finite associativity defect at") as info:
            check_group_operation(law, grid_n=16)
        x, y, z = (float(v) for v in str(info.value).split("at (")[1].rstrip(")").split(", "))
        assert {x, y, z} <= set(xs.tolist())
        assert math.isnan(law(law(x, y), z)) or math.isnan(law(x, law(y, z)))


class TestVerifyMultiplicativeF:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_powers_on_product(self, alpha):
        report = verify_multiplicative_f("product", lambda x: x ** alpha)
        assert report.passed
        assert report.max_deviation <= 1e-12
        assert report.direction == "increasing"

    def test_moebius_on_tanh_sum(self):
        # (1 - g)/(1 + g) factorizes as ((1-x)(1-y)) / ((1+x)(1+y)).
        report = verify_multiplicative_f("tanh_sum", lambda x: (1 - x) / (1 + x))
        assert report.passed
        assert report.max_deviation <= 1e-12
        assert report.direction == "decreasing"

    def test_min_admits_no_multiplicative_f(self):
        report = verify_multiplicative_f("min", lambda x: math.exp(x - 1.0))
        assert not report.passed
        assert report.max_deviation > 1e-3
        assert report.witness is not None

    def test_non_monotone_candidate_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            verify_multiplicative_f("product", lambda x: (x - 0.5) ** 2)


class TestNecessaryConditions:
    def test_product_passes_all(self):
        report = necessary_conditions_check("product")
        assert report.strictly_increasing.passed
        assert report.zero_annihilation.passed
        assert report.min_bound.passed
        assert report.all_passed()

    def test_sum_fails_min_bound_with_witness(self):
        report = necessary_conditions_check("sum")
        assert not report.min_bound.passed
        x, y = report.min_bound.witness
        assert x + y > min(x, y)

    def test_tanh_sum_exceeds_min(self):
        # (0.5 + 0.5)/(1 + 0.25) = 0.8 > 0.5: composition of tensor-type
        # rules can exceed the smaller argument.
        report = necessary_conditions_check("tanh_sum")
        assert not report.min_bound.passed
        law = get_law("tanh_sum")
        assert float(law(0.5, 0.5)) == pytest.approx(0.8)

    def test_min_is_not_strictly_increasing(self):
        report = necessary_conditions_check("min")
        assert not report.strictly_increasing.passed


class TestDeterminismAndConsistency:
    def test_reports_are_byte_identical(self):
        a = check_group_operation("tanh_sum", grid_n=24).to_json()
        b = check_group_operation("tanh_sum", grid_n=24).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_group_verdict_implies_multiplicative_f_exists(self):
        # Paired fixtures: any registry law passing the full group check
        # must admit its known multiplicative reparametrization. On these
        # bounded intervals the solvability axiom fails for every law, so
        # this is currently vacuous; it pins the contract nonetheless.
        candidates = {"product": lambda x: x, "tanh_sum": lambda x: (1 - x) / (1 + x)}
        for name, f in candidates.items():
            report = check_group_operation(name, grid_n=24)
            if report.is_group:
                assert verify_multiplicative_f(name, f).passed


def _scalar_solvability(law, xs, tol):
    """Per-pair scalar bisection: the reference `_check_solvability` must equal."""
    probe = law(xs[len(xs) // 2], xs)
    diffs = np.diff(probe)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        return AxiomResult(False, "law is not monotone in its second argument; "
                                  "solvability test not applicable", math.inf)
    increasing = bool(diffs[0] > 0)
    endpoint_failures = 0
    interior_failures = 0
    witness = None
    worst = 0.0
    w_lo, w_hi = float(xs[0]), float(xs[-1])
    for x in xs:
        g_lo = float(law(x, w_lo))
        g_hi = float(law(x, w_hi))
        lo_val, hi_val = (g_lo, g_hi) if increasing else (g_hi, g_lo)
        for z in xs:
            if z < lo_val - tol or z > hi_val + tol:
                endpoint_failures += 1
                if witness is None:
                    witness = (float(x), float(z))
                continue
            a, b = w_lo, w_hi
            for _ in range(100):
                mid = (a + b) / 2.0
                val = float(law(x, mid))
                if (val < z) == increasing:
                    a = mid
                else:
                    b = mid
                if b - a < 1e-14:
                    break
            residual = abs(float(law(x, (a + b) / 2.0)) - z)
            worst = max(worst, residual)
            if residual > math.sqrt(tol):
                interior_failures += 1
                if witness is None:
                    witness = (float(x), float(z))
    total = len(xs) ** 2
    if interior_failures == 0 and endpoint_failures == 0:
        return AxiomResult(True, f"g(x, .) = z solvable for all {total} grid pairs "
                                 f"(max residual {worst:.3e})", worst)
    detail = (f"{interior_failures} interior failures, {endpoint_failures} targets outside "
              f"the range of g(x, .) on the domain ({total} pairs)")
    return AxiomResult(False, detail, worst, witness)


class TestSolvabilityMatchesScalarReference:
    @pytest.mark.parametrize("grid_n", [2, 3, 17, 32])
    @pytest.mark.parametrize("law", ["product", "tanh_sum", "min", "sum",
                                     CompositionLaw("one_minus_product", lambda x, y: 1.0 - x * y,
                                                    0.0, 1.0)],
                             ids=lambda law: getattr(law, "name", law))
    def test_exact_match(self, law, grid_n):
        law = get_law(law)
        xs = law.grid(grid_n)
        assert _check_solvability(law, xs, SOLVE_TOL) == _scalar_solvability(law, xs, SOLVE_TOL)


def _whole_grid_associativity(law, xs, tol):
    """The associativity check over the whole n x n x n grid at once: the
    reference that the slab loop must equal."""
    x, y, z = xs[:, None, None], xs[None, :, None], xs[None, None, :]
    dev = np.abs(law(law(x, y), z) - law(x, law(y, z)))
    worst = float(np.max(dev))
    if worst > tol:
        i, j, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
        return AxiomResult(False, f"|g(g(x,y),z) - g(x,g(y,z))| = {worst:.3e} at "
                                  f"({xs[i]:.6g}, {xs[j]:.6g}, {xs[k]:.6g})",
                           worst, (float(xs[i]), float(xs[j]), float(xs[k])))
    return AxiomResult(True, f"max associativity defect {worst:.3e}", worst)


# Fails associativity with defect |x - z| / 4, so its maximum is tied
# between x = lo and x = hi: the witness must be the first in row-major order.
MEAN_LAW = CompositionLaw("mean", lambda x, y: (x + y) / 2.0, 0.0, 1.0)


class TestAssociativitySlabs:
    @pytest.mark.parametrize("grid_n", [2, 3, 17, 64, 127, 128])
    @pytest.mark.parametrize("law", [*LAW_REGISTRY.values(), MEAN_LAW], ids=lambda law: law.name)
    @pytest.mark.parametrize("slab_bytes", [1, 1 << 14], ids=["rows", "16KB"])
    def test_equals_whole_grid(self, slab_budget, law, grid_n, slab_bytes):
        # A budget of 1 byte makes every slab a single (x, y) row; 16 KB
        # gives slabs of several rows and a shorter last slab at grid 17.
        rows = slab_budget(slab_bytes)
        xs = law.grid(grid_n)
        assert _check_associativity(law, xs, ASSOC_TOL) == \
            _whole_grid_associativity(law, xs, ASSOC_TOL)
        if slab_bytes == 1:
            assert rows == [1] * grid_n ** 2

    def test_tied_maximum_reports_first_witness(self, slab_budget):
        rows = slab_budget(1)
        result = _check_associativity(MEAN_LAW, MEAN_LAW.grid(17), ASSOC_TOL)
        assert not result.passed
        assert result.witness == (0.0, 0.0, 1.0)
        assert set(rows) == {1}

    def test_memory_does_not_grow_with_the_cube(self):
        # One whole 128^3 float64 array alone takes 16.8 MB.
        law = get_law("tanh_sum")
        xs = law.grid(128)
        tracemalloc.start()
        try:
            _check_associativity(law, xs, ASSOC_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def _whole_grid_closure(law, grid_n):
    """The closure check over the whole n x n grid at once."""
    xs = law.grid(grid_n)
    vals = law(xs[:, None], xs[None, :])
    excess = np.maximum(vals - law.hi, law.lo - vals)
    worst = float(np.max(excess))
    if worst > CLOSURE_TOL:
        i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
        return AxiomResult(False, f"g({xs[i]:.6g}, {xs[j]:.6g}) = {vals[i, j]:.6g} leaves "
                                  f"[{law.lo}, {law.hi}]", worst, (float(xs[i]), float(xs[j])))
    return AxiomResult(True, "all grid compositions stay in the domain", max(0.0, worst))


def _whole_grid_necessary(law, grid_n):
    """necessary_conditions_check over the whole n x n grid at once."""
    xs = law.grid(grid_n)
    vals = law(xs[:, None], xs[None, :])
    if np.all(np.diff(vals, axis=0) > 0) and np.all(np.diff(vals, axis=1) > 0):
        mono = AxiomResult(True, "strictly increasing in both arguments on the grid")
    else:
        mono = AxiomResult(False, "not strictly increasing in at least one argument")
    zero_in_domain = law.lo == 0.0 and not law.open_lo
    if zero_in_domain:
        edges = np.concatenate([law(np.zeros_like(xs), xs), law(xs, np.zeros_like(xs))])
        zero_edges_ok = bool(np.max(np.abs(edges)) <= 1e-9)
        mask = xs > 1e-12
        interior_positive = bool(np.all(vals[np.ix_(mask, mask)] > 0))
    else:
        zero_edges_ok = True
        interior_positive = bool(np.all(vals > 0))
    if zero_edges_ok and interior_positive:
        anni = AxiomResult(True, "g vanishes exactly on the zero edges" if zero_in_domain
                           else "g is positive on the whole (zero-free) domain")
    else:
        anni = AxiomResult(False, "zero annihilation fails (edges zero: "
                                  f"{zero_edges_ok}, interior positive: {interior_positive})")
    gap = vals - np.minimum(xs[:, None], xs[None, :])
    worst = float(np.max(gap))
    if worst > 1e-12:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        bound = AxiomResult(False, f"g({xs[i]:.6g}, {xs[j]:.6g}) = {vals[i, j]:.6g} exceeds "
                                   f"min(x, y) = {min(xs[i], xs[j]):.6g}",
                            worst, (float(xs[i]), float(xs[j])))
    else:
        bound = AxiomResult(True, "g never exceeds min(x, y) on the grid", max(0.0, worst))
    return NecessaryConditionsReport(law.name, grid_n, mono, anni, bound)


def _identity_f(x):
    return x


def _whole_grid_f(law, grid_n):
    """verify_multiplicative_f(law, _identity_f) over the whole n x n grid at once."""
    xs = law.grid(grid_n)
    dev = np.abs(law(xs[:, None], xs[None, :]) - xs[:, None] * xs[None, :])
    worst = float(np.max(dev))
    witness = None
    if worst > F_CHECK_TOL:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        witness = (float(xs[i]), float(xs[j]))
    return MultiplicativeFReport(law.name, grid_n, "increasing", worst, witness,
                                 worst <= F_CHECK_TOL)


@functools.lru_cache(maxsize=None)
def _scalar_solvability_on_grid(law, grid_n):
    return _scalar_solvability(law, law.grid(grid_n), SOLVE_TOL)


# Check under test and its reference, each called as (law, grid_n).
SLAB_CHECKS = {
    "closure": (lambda law, n: _check_closure(law, law.grid(n), CLOSURE_TOL), _whole_grid_closure),
    "solvability": (lambda law, n: _check_solvability(law, law.grid(n), SOLVE_TOL),
                    _scalar_solvability_on_grid),
    "necessary_conditions": (necessary_conditions_check, _whole_grid_necessary),
    "multiplicative_f": (lambda law, n: verify_multiplicative_f(law, _identity_f, n), _whole_grid_f),
}

# 2|x - y| leaves [0, 1], exceeds min(x, y) and differs from x y most at
# (0, 1) and (1, 0), a tie that the first witness in row-major order breaks.
SPREAD_LAW = CompositionLaw("spread", lambda x, y: 2.0 * np.abs(x - y), 0.0, 1.0)


class TestGridChecksInSlabs:
    @pytest.mark.parametrize("grid_n", [2, 3, 17, 64, 127])
    @pytest.mark.parametrize("law", [*LAW_REGISTRY.values(), MEAN_LAW, SPREAD_LAW],
                             ids=lambda law: law.name)
    @pytest.mark.parametrize("slab_bytes", [1, 1 << 14], ids=["rows", "16KB"])
    @pytest.mark.parametrize("check", SLAB_CHECKS)
    def test_equals_reference(self, slab_budget, check, law, grid_n, slab_bytes):
        rows = slab_budget(slab_bytes)
        checked, reference = SLAB_CHECKS[check]
        assert checked(law, grid_n) == reference(law, grid_n)
        if slab_bytes == 1:
            # A solvability check that is not applicable walks no grid.
            assert rows == [1] * grid_n or (check == "solvability" and not rows)

    @pytest.mark.parametrize("check", ["closure", "necessary_conditions", "multiplicative_f"])
    def test_tied_maximum_reports_first_witness(self, slab_budget, check):
        slab_budget(1)
        result = SLAB_CHECKS[check][0](SPREAD_LAW, 17)
        assert (result.min_bound if check == "necessary_conditions" else result).witness == (0.0, 1.0)

    def test_grid_1024_memory(self):
        # Whole n x n grids took 51 MB in solvability alone; g(y, z), which
        # associativity holds whole, is the largest array left (8.4 MB).
        tracemalloc.start()
        try:
            check_group_operation("tanh_sum", grid_n=1024)
            necessary_conditions_check("tanh_sum", 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000


def _nan_where(bad, open_lo=False):
    return CompositionLaw("nan_where", lambda x, y: np.where(bad(x, y), np.nan, x * y), 0.0, 1.0,
                          open_lo=open_lo)


class TestNonFiniteValuesRefused:
    @pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf])
    def test_law_value_names_the_point(self, value):
        # NaN and -inf at (1, 1) passed min_bound and +inf failed it as a
        # value; check_group_operation's closure refused all three.
        law = CompositionLaw("bad_corner",
                             lambda x, y: np.where((x == 1.0) & (y == 1.0), value, x * y), 0.0, 1.0)
        for check in (necessary_conditions_check, check_group_operation):
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match=re.escape("non-finite value at (1.0, 1.0)")):
                    check(law, grid_n=64)

    def test_first_point_in_row_major_order(self):
        # x + y > 1.5 first holds on the grid i/63 at (32/63, 1).
        law = _nan_where(lambda x, y: x + y > 1.5)
        with pytest.raises(ValueError, match=re.escape(f"non-finite value at ({32 / 63}, 1.0)")):
            necessary_conditions_check(law, 64)

    def test_f_between_grid_points_names_the_pair(self):
        # f is x on the grid points, so it passes the monotone check, and
        # NaN between them: it gave max_deviation nan, no witness.
        law = get_law("product")
        xs = law.grid(64)
        on_grid = set(xs.tolist())

        def f(v):
            return v if v in on_grid or not 0.3 < v < 0.31 else math.nan
        first = next((x, y) for x in xs.tolist() for y in xs.tolist() if math.isnan(f(x * y)))
        with pytest.raises(ValueError, match=re.escape(f"is not finite at {first}")):
            verify_multiplicative_f(law, f, 64)

    def test_solvability_residual_names_the_pair(self):
        # Row x0 is NaN off the domain endpoints, which the bisection's
        # midpoints never reach: it reported max_deviation nan.
        law = get_law("product")
        xs = law.grid(17)
        x0 = float(xs[5])
        ends = (xs[0], xs[-1])
        bad = _nan_where(lambda x, y: (x == x0) & (y != ends[0]) & (y != ends[1]), open_lo=True)
        z0 = next(z for z in xs.tolist() if x0 * ends[0] - SOLVE_TOL <= z <= x0 * ends[1] + SOLVE_TOL)
        with pytest.raises(ValueError, match=re.escape(f"for (x, z) at {(x0, z0)}")):
            _check_solvability(bad, xs, SOLVE_TOL)
