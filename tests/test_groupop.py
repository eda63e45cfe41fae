import json
import math
import tracemalloc

import numpy as np
import pytest

from qchain import groupop
from qchain.groupop import (
    ASSOC_TOL,
    LAW_REGISTRY,
    SOLVE_TOL,
    CLOSURE_TOL,
    AxiomResult,
    CompositionLaw,
    _check_associativity,
    _check_closure,
    _check_solvability,
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
        if isinstance(law, str):
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
    def test_equals_whole_grid(self, monkeypatch, law, grid_n, slab_bytes):
        # A budget of 1 byte makes every slab a single x row; 16 KB gives
        # slabs of several rows and a shorter last slab at grid 17.
        monkeypatch.setattr(groupop, "GRID_SLAB_BYTES", slab_bytes)
        xs = law.grid(grid_n)
        assert _check_associativity(law, xs, ASSOC_TOL) == \
            _whole_grid_associativity(law, xs, ASSOC_TOL)

    def test_tied_maximum_reports_first_witness(self, monkeypatch):
        monkeypatch.setattr(groupop, "GRID_SLAB_BYTES", 1)
        result = _check_associativity(MEAN_LAW, MEAN_LAW.grid(17), ASSOC_TOL)
        assert not result.passed
        assert result.witness == (0.0, 0.0, 1.0)

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
