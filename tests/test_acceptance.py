"""Acceptance gate: one test per criterion, each printing its own
pass/fail line through pytest.

Criterion 1 pins the Fock cutoff at 60 and demands 1e-8 agreement with
the analytic ratio negativity of the state the cutoff-60 route builds.
That state keeps levels n <= c and is renormalized, so with amplitude
tail t = chi^{c+1} its exact ratio negativity is (chi - t)/(1 - chi t),
and it lies below tanh r by the truncation error
sech^2 r * chi^{c+1}/(1 - chi^{c+2}): 2.56e-8 at r = 1.0 and 4.15e-4 at
r = 1.5 for c = 60. Every r is checked against the exact truncated value,
and against tanh r itself wherever that error is below the tolerance
(see test_criterion_01_companion for tanh r at truncation-adequate
cutoffs).
"""

import math
import time

import numpy as np

from qchain.cli import EXIT_OK, main
from qchain.groupop import check_group_operation, verify_multiplicative_f
from qchain.measures import negativity, ratio_negativity
from qchain.monogamy import (
    alpha_threshold,
    aux_g,
    check_ineq_xya_grid,
    ckw_residual,
    ckw_violation_state,
    sample_monogamy_scan,
)
from qchain.states import (
    DensityMatrix,
    TmsvsSpec,
    apply_kraus_branches,
    bell_state,
    cutoff_for_amplitude_tail,
    pure_from_schmidt,
    random_density_matrix,
    substream,
    tmsvs_truncated,
)
from qchain.swapping import chain_compose, chain_fock_crosscheck, tmsvs_link
from qchain.tensor import SubsystemLayout, kron

R_GRID = (0.1, 0.5, 1.0, 1.5)
QUBIT_PAIR = SubsystemLayout((2, 2), (0,))


def test_criterion_01_tmsvs_ratio_negativity_cutoff60():
    """Ratio negativity of the cutoff-60 state vs its analytic value, 1e-8
    each, < 5 s; vs tanh r too wherever truncation allows."""
    cutoff, tol = 60, 1e-8
    t0 = time.perf_counter()
    failures = []
    for r in R_GRID:
        chi = math.tanh(r)
        tail = chi ** (cutoff + 1)
        exact = (chi - tail) / (1 - chi * tail)
        truncation_error = tail / (1 - chi * tail) / math.cosh(r) ** 2
        value = ratio_negativity(tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff)))
        if not abs(value - exact) < tol or (
                truncation_error < tol and not abs(value - chi) < tol):
            failures.append((r, value, exact, truncation_error))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert not failures, "; ".join(
        f"r={r}: value={v!r}, exact truncated={e!r}, truncation error={err:.3e}"
        for r, v, e, err in failures)


def test_criterion_01_companion_adequate_cutoffs():
    """Same comparison with cutoffs sized to the tolerance: the analytic
    value is reproduced once truncation is controlled."""
    for r in R_GRID:
        chi = math.tanh(r)
        state = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff_for_amplitude_tail(chi, 1e-10)))
        assert abs(ratio_negativity(state) - chi) < 1e-9


def test_criterion_02_tmsvs_negativity_analytic():
    """Negativity vs (e^{2r}-1)/2 on the same r grid, 1e-7 each.

    The criterion does not pin a cutoff; 220 keeps the amplitude tail
    below 2.8e-10 for every r in the grid.
    """
    for r in R_GRID:
        state = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=220))
        assert abs(negativity(state) - (math.exp(2 * r) - 1) / 2) < 1e-7


def test_criterion_03_swap_multiplicativity():
    report = chain_fock_crosscheck(0.5, 5, cutoff=40)
    assert report.deviation[1.0] < 1e-8
    res = chain_compose([tmsvs_link(0.5)] * 20)
    assert math.isclose(res.end_to_end, math.tanh(0.5) ** 20, rel_tol=1e-12)


def test_criterion_04_nonconvexity_fixture():
    rho1 = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex), QUBIT_PAIR)
    rho2 = bell_state().density_matrix()
    mix = DensityMatrix((rho1.matrix + rho2.matrix) / 2, QUBIT_PAIR)
    f_mix = math.sqrt(negativity(mix))
    f_avg = (math.sqrt(negativity(rho1)) + math.sqrt(negativity(rho2))) / 2
    assert abs(f_mix - 0.5) < 1e-10
    assert abs(f_avg - math.sqrt(2) / 4) < 1e-10


def test_criterion_05_povm_branch_fixture():
    psi = pure_from_schmidt([0.1, 0.9], (2, 2))
    m1 = kron(np.diag([math.sqrt(0.8), math.sqrt(0.2)]).astype(complex), np.eye(2))
    m2 = kron(np.diag([math.sqrt(0.2), math.sqrt(0.8)]).astype(complex), np.eye(2))
    (p1, out1), (p2, out2) = apply_kraus_branches(psi, [m1, m2])
    assert abs(p1 - 0.26) < 1e-10
    assert abs(p2 - 0.74) < 1e-10
    assert abs(negativity(out1) - 6 / 13) < 1e-10
    assert abs(negativity(out2) - 6 / 37) < 1e-10
    assert abs(negativity(psi) ** 4 - 1296 / 160000) < 1e-10
    average = p1 * negativity(out1) ** 4 + p2 * negativity(out2) ** 4
    assert abs(average - (1296 / 109850 + 1296 / 2532650)) < 1e-10


def test_criterion_06_ckw_violation_fixture():
    rep1 = ckw_residual(ckw_violation_state(), 1.0)
    assert abs(rep1.rhs_terms[0] - 0.2) < 1e-10
    assert abs(rep1.rhs_terms[1] - 0.2) < 1e-10
    assert abs(rep1.lhs - 1 / 3) < 1e-10
    assert rep1.residual < 0
    assert ckw_residual(ckw_violation_state(), 3.191).residual > 0


def test_criterion_07_threshold_constant():
    thr = alpha_threshold()
    assert thr == math.log(2) / math.log(3 * (math.sqrt(2) - 1))
    assert abs(thr - aux_g(1 / math.sqrt(2), 1 / math.sqrt(2))) < 1e-12
    assert round(thr, 3) == 3.191


def test_criterion_08_monogamy_scans():
    t0 = time.perf_counter()
    alpha = alpha_threshold()
    for dims in ((2, 2, 2), (2, 2, 3), (2, 2, 4)):
        report = sample_monogamy_scan(dims, 1000, alpha, seed=7)
        assert report.violation_count == 0, f"dims {dims}: {report.violation_count} violations"
        assert report.min_residual >= -1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_inequality_grid():
    above = check_ineq_xya_grid(0.5, 0.5, 3.191, 500)
    assert above.violation_count == 0
    assert above.max_violation <= 1e-12
    below = check_ineq_xya_grid(0.5, 0.5, 1.0, 500)
    assert below.violation_count >= 1
    assert below.witness is not None


def test_criterion_10_subadditivity_identity():
    layout = SubsystemLayout((2, 2, 2, 2), (0, 2))
    strict_checked = 0
    for i in range(200):
        r1 = random_density_matrix(QUBIT_PAIR, 4, substream(1010, 2 * i))
        r2 = random_density_matrix(QUBIT_PAIR, 4, substream(1010, 2 * i + 1))
        chi1, chi2 = ratio_negativity(r1), ratio_negativity(r2)
        product = DensityMatrix(kron(r1.matrix, r2.matrix), layout)
        lhs = ratio_negativity(product)
        rhs = (chi1 + chi2) / (1 + chi1 * chi2)
        assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-14)
        if chi1 > 0 and chi2 > 0:
            assert lhs < chi1 + chi2
            strict_checked += 1
    assert strict_checked > 50  # random two-qubit states are mostly entangled


def test_criterion_11_group_operation_suite():
    for name in ("product", "tanh_sum"):
        report = check_group_operation(name, grid_n=64)
        assert report.associativity.passed
        assert report.associativity.max_deviation <= 1e-10
        assert report.identity.passed
        e = report.identity_element
        assert abs(e - (1.0 if name == "product" else 0.0)) < 1e-9
    f1 = verify_multiplicative_f("product", lambda x: x ** 2)
    f2 = verify_multiplicative_f("tanh_sum", lambda x: (1 - x) / (1 + x))
    assert f1.passed and f1.max_deviation <= 1e-9
    assert f2.passed and f2.max_deviation <= 1e-9
    from qchain.groupop import necessary_conditions_check
    sum_report = necessary_conditions_check("sum")
    assert not sum_report.min_bound.passed
    assert sum_report.min_bound.witness is not None


def test_criterion_12_gaussian_cross_oracle():
    from qchain.gaussian import cm_ratio_negativity, tmsvs_cm
    for r in R_GRID:
        fock = ratio_negativity(tmsvs_truncated(TmsvsSpec.from_r(r)))
        assert abs(cm_ratio_negativity(tmsvs_cm(r)) - fock) < 1e-6


def test_criterion_13_repro_command(tmp_path):
    t0 = time.perf_counter()
    code = main(["repro", "--output", str(tmp_path / "repro.json")])
    assert code == EXIT_OK
    assert time.perf_counter() - t0 < 30.0
