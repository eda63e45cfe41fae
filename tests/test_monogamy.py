import dataclasses
import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchain import monogamy
from qchain.gaussian import CovarianceMatrix, cm_ratio_negativity, tmsvs_cm
from qchain.monogamy import (
    HISTOGRAM_BINS,
    HISTOGRAM_RANGE,
    VIOLATION_TOL,
    alpha_threshold,
    aux_g,
    check_ineq_xya_grid,
    ckw_residual,
    ckw_residuals,
    ckw_violation_state,
    sample_monogamy_scan,
)
from qchain.measures import MeasureSpec, evaluate_measure, negativity
from qchain.states import (
    PSD_TOL,
    DensityMatrix,
    PureState,
    random_density_matrix,
    random_haar_pure,
    substream,
)
from qchain.tensor import SubsystemLayout, group_subsystems, partial_trace

from conftest import lossy_tmsvs_amplitudes, lossy_tmsvs_cm


def mp_aux_g(r, u, dps=50):
    with mpmath.workdps(dps):
        base = (1 + mpmath.mpf(r)) * mpmath.mpf(u) / (1 + mpmath.mpf(r) * mpmath.mpf(u))
        return float(2 * mpmath.log(u) / mpmath.log(base))


class TestAlphaThreshold:
    def test_closed_form(self):
        expected = math.log(2) / math.log(3 * (math.sqrt(2) - 1))
        assert alpha_threshold() == expected
        assert abs(alpha_threshold() - 3.1907168257766) < 1e-12

    def test_matches_aux_g_at_symmetric_point(self):
        u = 1 / math.sqrt(2)
        assert abs(alpha_threshold() - aux_g(u, u)) < 1e-12

    def test_base_identity(self):
        assert abs((3 * (math.sqrt(2) - 1)) ** alpha_threshold() - 2.0) < 1e-12

    def test_rounds_to_published_digits(self):
        assert round(alpha_threshold(), 3) == 3.191


class TestAuxG:
    def test_high_precision_values(self):
        for r, u in [(0.5, 0.6), (0.9, 0.3), (1 / math.sqrt(2), 1 / math.sqrt(2))]:
            assert abs(aux_g(r, u) - mp_aux_g(r, u)) < 1e-12

    def test_increasing_in_r(self):
        h = 1e-6
        assert aux_g(0.5 + h, 0.6) > aux_g(0.5 - h, 0.6)

    def test_near_one_limit(self):
        # g(r, u) -> 2 (1 + r) as u -> 1; at u = 0.999 the 50-digit value
        # sits within 1e-3 of the limit and our double agrees with it.
        val = aux_g(0.5, 0.999)
        assert abs(val - mp_aux_g(0.5, 0.999)) < 1e-10
        assert abs(val - 3.0) < 1e-3

    def test_grid_monotonicity(self):
        rs = np.linspace(0.05, 0.95, 100)
        us = np.linspace(0.05, 0.95, 100)
        g = np.array([[aux_g(r, u) for u in us] for r in rs])
        assert np.min(np.diff(g, axis=0)) >= -1e-8   # d/dr
        assert np.min(np.diff(g, axis=1)) >= -1e-8   # d/du

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            aux_g(0.5, 1.0)
        with pytest.raises(ValueError):
            aux_g(-0.1, 0.5)
        with pytest.raises(ValueError, match="base"):
            aux_g(0.5, 1.0 - 5e-15)
        for r, u in ((math.nan, 0.5), (math.inf, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError):
                aux_g(r, u)


class TestCkwResidual:
    def test_violation_state_at_alpha_one(self):
        rep = ckw_residual(ckw_violation_state(), 1.0)
        assert abs(rep.lhs - 1 / 3) < 1e-10
        assert abs(rep.rhs_terms[0] - 0.2) < 1e-10
        assert abs(rep.rhs_terms[1] - 0.2) < 1e-10
        assert rep.residual < 0
        assert not rep.satisfied

    def test_violation_state_above_threshold(self):
        # Expected values from a 50-digit evaluation of (1/3)^a - 2 (1/5)^a.
        alpha = 3.191
        with mpmath.workdps(50):
            lhs = mpmath.mpf(1) / mpmath.mpf(3) ** mpmath.mpf("3.191")
            rhs = 2 * (mpmath.mpf(1) / mpmath.mpf(5) ** mpmath.mpf("3.191"))
            expected = float(lhs - rhs)
        rep = ckw_residual(ckw_violation_state(), alpha)
        assert abs(rep.residual - expected) < 1e-12
        assert rep.satisfied

    def test_ghz_marginals_are_ppt(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / math.sqrt(2)
        ghz = PureState(amps, SubsystemLayout((2, 2, 2), (0,)))
        for alpha in (1.0, 3.191):
            rep = ckw_residual(ghz, alpha)
            assert rep.rhs_terms == (0.0, 0.0)
            assert abs(rep.lhs - (1 / 3) ** alpha) < 1e-10
            assert rep.satisfied

    def test_composite_party_a(self):
        psi = random_haar_pure(SubsystemLayout((2, 2, 2, 2), (0,)), 99)
        rep = ckw_residual(PureState(psi.amplitudes, SubsystemLayout((2, 2, 2, 2), (0, 1))), 2.0)
        assert len(rep.rhs_terms) == 2  # B partners: subsystems 2 and 3

    # The residuals' one measure; naming it keeps these tests' ids.
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 4), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("measure", ["ratio"])
    def test_lhs_is_the_measure_bit_for_bit(self, dims, measure):
        """The left side and evaluate_measure take their Schmidt
        coefficients from one kernel, so they agree in every bit."""
        for i in range(30):
            psi = random_haar_pure(SubsystemLayout(dims, (0,)), substream(23, i))
            for party_a in ((0,), (len(dims) - 1,), (0, 1)):
                split = PureState(psi.amplitudes, SubsystemLayout(dims, party_a))
                expected = evaluate_measure(MeasureSpec(measure), split).value
                assert ckw_residual(split, 1.0).lhs == expected

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 4), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("measure", ["ratio"])
    def test_rhs_is_the_measure_bit_for_bit(self, dims, measure):
        """Each pairwise term and evaluate_measure on its reduced state take
        their (w, neg) pairs from one kernel, so they agree in every bit; the
        witness state's reduced partial transposes split into blocks."""
        states = [random_haar_pure(SubsystemLayout(dims, (0,)), substream(24, i)) for i in range(30)]
        if dims == (2, 2, 2):
            states.append(ckw_violation_state())
        for psi in states:
            for party_a in ((0,), (len(dims) - 1,), (0, 1)):
                rep = ckw_residual(PureState(psi.amplitudes, SubsystemLayout(dims, party_a)), 1.0)
                partners = [b for b in range(len(dims)) if b not in party_a]
                assert len(rep.rhs_terms) == len(partners)
                for term, b in zip(rep.rhs_terms, partners):
                    keep = sorted(party_a + (b,))
                    m = group_subsystems(psi.amplitudes, dims, keep)
                    pair = SubsystemLayout([dims[i] for i in keep], [keep.index(i) for i in party_a])
                    reduced = DensityMatrix(m @ m.conj().T, pair)
                    assert term == evaluate_measure(MeasureSpec(measure), reduced).value

    def test_mixed_input_rejected(self):
        dm = random_density_matrix(SubsystemLayout((2, 2, 2), (0,)), 2, 1)
        with pytest.raises(ValueError, match="mixed"):
            ckw_residual(dm, 1.0)

    def test_bipartite_input_rejected(self):
        psi = random_haar_pure(SubsystemLayout((2, 2), (0,)), 1)
        with pytest.raises(ValueError, match="3 parties"):
            ckw_residual(psi, 1.0)

    @pytest.mark.parametrize("state", [tmsvs_cm(0.5), ckw_violation_state().amplitudes],
                             ids=["covariance", "amplitudes"])
    def test_only_pure_states_accepted(self, state):
        # A covariance matrix ended in an AttributeError on its missing layout.
        message = f"ckw_residual needs a PureState, got {type(state).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ckw_residual(state, 1.0)

    @pytest.mark.parametrize("party_a", [(1,), (2,)])
    def test_the_split_is_the_states(self, party_a):
        # A residual took its split from an argument that defaulted to (0,)
        # and read -1/15 here, whatever party A the state's layout named.
        layout = SubsystemLayout((2, 2, 2), party_a)
        amps = ckw_violation_state().amplitudes
        report = ckw_residual(PureState(amps, layout))
        assert report.party_a == party_a
        assert report.residual == ckw_residuals(amps[None, :], layout)[2][0]
        assert round(report.residual, 5) == 0.00833

    def test_amplitude_shape_checked(self):
        layout = SubsystemLayout((2, 2, 2), (0,))
        for amps in (ckw_violation_state().amplitudes, np.zeros((1, 4))):
            with pytest.raises(ValueError, match=r"amplitudes must have shape \(n, 8\)"):
                monogamy.ckw_residuals(amps, layout)

    def test_reduced_states_respect_qubit_bound(self):
        # Any 2 x d state has negativity at most 1/2.
        for i in range(60):
            psi = random_haar_pure(SubsystemLayout((2, 2, 4), (0,)), substream(41, i))
            rho = psi.density_matrix()
            for keep, kept_dims in ([ (0, 1), (2, 2)], [(0, 2), (2, 4)]):
                reduced = partial_trace(rho.matrix, psi.layout, keep=keep)
                dm = DensityMatrix(reduced, SubsystemLayout(kept_dims, (0,)))
                assert negativity(dm) <= 0.5 + 1e-9


class TestGridInequality:
    def test_no_violations_above_threshold(self):
        report = check_ineq_xya_grid(0.5, 0.5, 3.191, 500)
        assert report.max_violation <= 1e-12
        assert report.violation_count == 0
        assert report.witness is None

    def test_witness_found_at_alpha_one(self):
        report = check_ineq_xya_grid(0.5, 0.5, 1.0, 500)
        assert report.violation_count > 0
        assert report.witness is not None
        x, y = report.witness
        lhs = (x / (x + 1)) + (y / (y + 1))
        c = math.hypot(x, y)
        assert lhs > c / (c + 1)

    def test_zero_edge_never_violates(self):
        for alpha in (0.5, 1.0, 2.0):
            y = np.linspace(0.0, 0.5, 200)
            lhs = (y / (y + 1)) ** alpha
            rhs = (np.sqrt(y ** 2) / (np.sqrt(y ** 2) + 1)) ** alpha
            assert np.max(lhs - rhs) <= 1e-15

    def test_threshold_matches_aux_g_parameterisation(self):
        # For a = b the binding corner is (a, b); no violations exactly
        # from alpha = g(c, b/c) upward, violations strictly below.
        a = b = 0.5
        c = math.hypot(a, b)
        alpha_star = aux_g(c, b / c)
        assert check_ineq_xya_grid(a, b, alpha_star + 1e-9, 200).violation_count == 0
        assert check_ineq_xya_grid(a, b, alpha_star - 0.05, 200).violation_count > 0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            check_ineq_xya_grid(0.6, 0.5, 1.0, 500)   # a > b
        with pytest.raises(ValueError):
            check_ineq_xya_grid(0.5, 0.5, 1.0, 50)    # grid too coarse
        with pytest.raises(ValueError):
            check_ineq_xya_grid(0.5, 0.5, 0.0, 500)   # bad alpha

    @pytest.mark.parametrize("a,b", [(0.5, math.inf), (math.inf, math.inf),
                                     (math.nan, 0.5), (0.5, math.nan)])
    def test_non_finite_bounds_rejected(self, a, b):
        # An infinite bound would fill the grid with NaN and report a
        # clean verdict (max_violation 0, no violations).
        with pytest.raises(ValueError, match=r"finite 0 < a <= b, got a=.*, b="):
            check_ineq_xya_grid(a, b, 2.0, 100)

    @pytest.mark.parametrize("a,b", [(0.5, 1e160), (1e200, 1e200)])
    def test_overflowing_bounds_rejected(self, a, b):
        # c = sqrt(x^2 + y^2) would be infinite and its term NaN, which the
        # running maximum over slabs, like a whole-grid maximum, cannot report.
        with pytest.raises(ValueError, match=r"a\^2 \+ b\^2 overflows float64 at a=.*, b="):
            check_ineq_xya_grid(a, b, 2.0, 100)

    def test_memory_does_not_grow_with_the_grid(self):
        # One whole 2000 x 2000 float64 grid alone takes 32 MB.
        tracemalloc.start()
        try:
            check_ineq_xya_grid(0.5, 0.5, 1.0, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


def meshgrid_reference(a, b, alpha, grid_n, tol=1e-12):
    """The two-term grid over full grid_n x grid_n meshgrids: the formula
    check_ineq_xya_grid evaluates per axis and broadcasts."""
    x = np.linspace(0.0, a, grid_n)
    y = np.linspace(0.0, b, grid_n)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    cc = np.sqrt(xx ** 2 + yy ** 2)
    gap = (xx / (xx + 1.0)) ** alpha + (yy / (yy + 1.0)) ** alpha - (cc / (cc + 1.0)) ** alpha
    max_violation = float(np.max(gap))
    witness = None
    if max_violation > tol:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        witness = (float(x[i]), float(y[j]))
    return max(0.0, max_violation), witness, int(np.count_nonzero(gap > tol))


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.2, 0.7), (1e-3, 2.0)])
@pytest.mark.parametrize("alpha", [1.0, alpha_threshold() - 0.05, alpha_threshold(), 3.191])
@pytest.mark.parametrize("grid_n", [100, 257, 500])
def test_grid_on_axes_equals_meshgrid(a, b, alpha, grid_n):
    report = check_ineq_xya_grid(a, b, alpha, grid_n)
    expected = meshgrid_reference(a, b, alpha, grid_n)
    assert (report.max_violation, report.witness, report.violation_count) == expected


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.2, 0.7), (1e-3, 2.0)])
@pytest.mark.parametrize("alpha", [1.0, alpha_threshold() - 0.05, alpha_threshold(), 3.191])
@pytest.mark.parametrize("grid_n", [100, 257, 500])
def test_grid_in_single_row_slabs_equals_meshgrid(slab_budget, a, b, alpha, grid_n):
    # A budget of 1 byte makes every slab a single x row.
    rows = slab_budget(1)
    report = check_ineq_xya_grid(a, b, alpha, grid_n)
    expected = meshgrid_reference(a, b, alpha, grid_n)
    assert (report.max_violation, report.witness, report.violation_count) == expected
    assert rows == [1] * grid_n


def test_iterated_inequality_on_random_vectors():
    """N-term version: for x >= 0 with sum x^2 <= 1/2 the combined value
    dominates the term sum at the threshold power (100k random vectors)."""
    rng = substream(43, 0)
    alpha = alpha_threshold()
    worst = math.inf
    for _ in range(100_000):
        n = int(rng.integers(2, 7))
        x = rng.uniform(0.0, 1.0, n)
        scale = math.sqrt(float(rng.uniform(0.0, 0.5))) / float(np.linalg.norm(x))
        x *= scale
        big = float(np.linalg.norm(x))
        lhs = (big / (big + 1)) ** alpha
        rhs = float(np.sum((x / (x + 1)) ** alpha))
        worst = min(worst, lhs - rhs)
    assert worst >= -1e-12


class TestScan:
    def test_three_qubits_above_threshold(self):
        report = sample_monogamy_scan((2, 2, 2), 300, alpha_threshold(), seed=7)
        assert report.violation_count == 0
        assert report.min_residual >= -1e-9
        assert report.family_covered
        # The known violating state is appended to three-qubit scans.
        assert sum(report.histogram) == 301

    def test_three_qubits_at_alpha_one_finds_violation(self):
        report = sample_monogamy_scan((2, 2, 2), 100, 1.0, seed=7)
        assert report.violation_count >= 1
        assert report.min_residual < -1e-9

    def test_qubit_qubit_ququart(self):
        report = sample_monogamy_scan((2, 2, 4), 200, alpha_threshold(), seed=11)
        assert report.violation_count == 0
        assert report.family_covered

    def test_uncovered_family_warns_but_runs(self):
        report = sample_monogamy_scan((3, 3, 3), 50, alpha_threshold(), seed=3)
        assert not report.family_covered
        assert report.warning is not None
        assert sum(report.histogram) == 50

    def test_deterministic(self):
        a = sample_monogamy_scan((2, 2, 3), 50, 3.2, seed=5)
        b = sample_monogamy_scan((2, 2, 3), 50, 3.2, seed=5)
        assert a == b

    def test_thread_count_does_not_change_results(self, monkeypatch):
        base = sample_monogamy_scan((2, 2, 2), 64, 3.2, seed=9)
        monkeypatch.setenv("QCHAIN_THREADS", "4")
        threaded = sample_monogamy_scan((2, 2, 2), 64, 3.2, seed=9)
        assert base == threaded

    def test_witness_residual_read_through_the_module(self, monkeypatch):
        # perfbench/selfcheck.py injects its scan fault by patching
        # monogamy.ckw_residual; the (2, 2, 2) witness must go through it.
        original = monogamy.ckw_residual
        monkeypatch.setattr(monogamy, "ckw_residual",
                            lambda *args: dataclasses.replace(original(*args), residual=-1.0))
        report = sample_monogamy_scan((2, 2, 2), 50, alpha_threshold(), seed=7)
        assert report.min_residual == -1.0
        assert report.violation_count == 1

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            sample_monogamy_scan((2, 2, 2), 0, 1.0, seed=1)


class TestBatchedScan:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 3, 3), (2, 2, 2, 2)])
    @pytest.mark.parametrize("alpha", [1.0, alpha_threshold()])
    def test_matches_per_sample_reference(self, monkeypatch, dims, alpha):
        # A small chunk budget makes a 37-sample scan span several chunks.
        monkeypatch.setattr(monogamy, "SCAN_CHUNK_BYTES", 4096)
        chunks = []
        draw = monogamy.haar_amplitude_rows

        def counted(dim, seed, indices):
            chunks.append(indices)
            return draw(dim, seed, indices)

        monkeypatch.setattr(monogamy, "haar_amplitude_rows", counted)
        seed, samples = 21, 37
        report = sample_monogamy_scan(dims, samples, alpha, seed)
        assert len(chunks) > 1
        assert [i for c in chunks for i in c] == list(range(samples))

        layout = SubsystemLayout(dims, (0,))
        residuals = [ckw_residual(random_haar_pure(layout, substream(seed, i)), alpha).residual
                     for i in range(samples)]
        if dims == (2, 2, 2):
            residuals.append(ckw_residual(ckw_violation_state(), alpha).residual)
        arr = np.asarray(residuals)
        hist, _ = np.histogram(np.clip(arr, *HISTOGRAM_RANGE), bins=HISTOGRAM_BINS,
                               range=HISTOGRAM_RANGE)
        assert abs(report.min_residual - arr.min()) < 1e-12
        assert report.histogram == tuple(int(h) for h in hist)
        assert report.violation_count == int(np.count_nonzero(arr < -VIOLATION_TOL))


class TestScanArgumentGuards:
    @pytest.mark.parametrize("dims,alpha", [
        ((2, 2), 3.2),           # fewer than 3 parties
        ((2, 2, 2), 0.0),
        ((2, 2, 2), -1.0),
        ((2, 2, 2), math.inf),
        ((2, 2, 2), math.nan),
    ])
    def test_rejected_before_any_sample(self, monkeypatch, dims, alpha):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(monogamy, "haar_amplitude_rows", refuse)
        monkeypatch.setattr(monogamy, "ckw_residual", refuse)
        with pytest.raises(ValueError):
            sample_monogamy_scan(dims, 10, alpha, seed=1)

    @pytest.mark.parametrize("samples", [True, 2.5, "10"])
    def test_samples_must_be_an_integer(self, samples):
        # True ran one sample and reported "samples": true; 2.5 ended in a
        # bare TypeError.
        with pytest.raises(ValueError, match=f"^{re.escape(f'samples must be an integer, got {samples!r}')}$"):
            sample_monogamy_scan((2, 2, 2), samples, 1.0, 0)

    @pytest.mark.parametrize("seed,message", [
        (2.5, "seed must be an integer, got 2.5"),
        (-1, "seed must lie in [0, 2**64), got -1"),
        (2**65 - 1, f"seed must lie in [0, 2**64), got {2**65 - 1}"),
    ])
    def test_seed_refused_where_it_enters(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_monogamy_scan((2, 2, 2), 50, 1.0, seed)

    def test_largest_seed_is_its_own_scan(self):
        # -1 and 2**65 - 1 gave this scan, apart from the echoed seed.
        top = sample_monogamy_scan((2, 2, 2), 50, 1.0, 2**64 - 1)
        assert top.seed == 2**64 - 1
        assert top.min_residual != sample_monogamy_scan((2, 2, 2), 50, 1.0, 0).min_residual


@st.composite
def split_layouts(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=3, max_size=4)))
    party_a = draw(st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1))
    return dims, tuple(sorted(party_a))


@settings(max_examples=60, deadline=None)
@given(split=split_layouts(), seed=st.integers(0, 2**32), alpha=st.floats(1.0, 4.0))
@example(split=((2, 3, 2), (0, 2)), seed=1, alpha=3.191)
def test_amplitude_marginals_match_dense_route(split, seed, alpha):
    """ckw_residual against the full density matrix and partial_trace, and
    against ckw_residuals on the state's own split, field for field."""
    dims, party_a = split
    layout = SubsystemLayout(dims, party_a)
    psi = PureState(random_haar_pure(SubsystemLayout(dims, (0,)), substream(seed, 0)).amplitudes, layout)
    report = ckw_residual(psi, alpha)
    lhs, rhs, residual = ckw_residuals(psi.amplitudes[None], psi.layout, alpha)
    assert report == monogamy.MonogamyReport(
        dims=dims, party_a=party_a, alpha=alpha, lhs=float(lhs[0]),
        rhs_terms=tuple(float(v) for v in rhs[0]), residual=float(residual[0]),
        satisfied=residual[0] >= -VIOLATION_TOL)

    def powered(neg):
        return (neg / (neg + 1.0)) ** alpha

    lam = psi.schmidt_coefficients
    lhs = powered(max(0.0, (float(np.sum(np.sqrt(lam)) ** 2) - 1.0) / 2.0))
    rho = psi.density_matrix().matrix
    terms = []
    for b in layout.party_b:
        keep = sorted(set(party_a) | {b})
        pair = SubsystemLayout([dims[i] for i in keep], [keep.index(i) for i in party_a])
        dm = DensityMatrix(partial_trace(rho, psi.layout, keep), pair)
        terms.append(powered(negativity(dm)))
    assert abs(report.lhs - lhs) < 1e-12
    assert len(report.rhs_terms) == len(terms)
    assert np.max(np.abs(np.subtract(report.rhs_terms, terms))) < 1e-12
    assert abs(report.residual - (lhs - sum(terms))) < 1e-12


class TestFamilySupport:
    @pytest.mark.parametrize("dims,expected", [
        ((2, 2, 2), True),
        ((2, 2, 2, 2, 2), True),
        ((2, 2, 3), True),
        ((2, 2, 4), True),
        ((2, 2, 16), True),
        ((2, 2, 5), False),
        ((2, 3, 2), False),
        ((3, 3, 3), False),
        ((2, 2, 3, 2), False),
    ])
    def test_families(self, dims, expected):
        assert monogamy._family_supported(dims) is expected

    def test_scan_converts_its_dims_once(self, monkeypatch):
        # The scan's layout converts its dims (tensor._integer), and the
        # family check reads them as they are; the scan's own one call
        # converts its sample count.
        real, calls = monogamy._integer, []

        def counting(value, what):
            calls.append(value)
            return real(value, what)

        monkeypatch.setattr(monogamy, "_integer", counting)
        monogamy.sample_monogamy_scan((2, 2, 3), 5, 1.0, 0)
        assert calls == [5]


@pytest.mark.parametrize("party_a,message", [
    ((), "party A must be non-empty"),
    ((0, 1, 2), "party A must be a strict subset"),
    ((3,), "out of range"),
])
def test_party_a_follows_the_layout_rule(party_a, message):
    # The residuals take SubsystemLayout's party-A rule, not a copy of it.
    with pytest.raises(ValueError, match=message):
        ckw_residual(PureState(ckw_violation_state().amplitudes, SubsystemLayout((2, 2, 2), party_a)))
    with pytest.raises(ValueError, match=message):
        monogamy.ckw_residuals(ckw_violation_state().amplitudes[None, :], SubsystemLayout((2, 2, 2), party_a))


def test_party_a_is_sorted_without_repeats():
    report = ckw_residual(PureState(ckw_violation_state().amplitudes, SubsystemLayout((2, 2, 2), (2, 0, 2))))
    assert report.party_a == (0, 2)


class TestReportJson:
    """to_json writes every dataclass field under its own name, tuples as lists."""

    @pytest.mark.parametrize("witness", [None, (0.25, 0.5)])
    def test_grid_check_report(self, witness):
        report = monogamy.GridCheckReport(a=0.5, b=0.75, alpha=1.5, grid_n=100,
                                          max_violation=0.125, witness=witness,
                                          violation_count=3)
        expected = {"a": 0.5, "b": 0.75, "alpha": 1.5, "grid_n": 100, "max_violation": 0.125,
                    "violation_count": 3, "witness": None if witness is None else [0.25, 0.5]}
        assert report.to_json() == expected
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("warning", [None, "dims (2, 2, 5) lie outside the families"])
    def test_scan_report(self, warning):
        report = monogamy.ScanReport(dims=(2, 2, 5), samples=4, alpha=3.191, seed=7,
                                     family_covered=warning is None, min_residual=-0.0625,
                                     violation_count=1, histogram=(1, 0, 3),
                                     histogram_edges=(-1.0, 0.0, 0.5, 1.0), warning=warning)
        expected = {"dims": [2, 2, 5], "samples": 4, "alpha": 3.191, "seed": 7,
                    "family_covered": warning is None, "min_residual": -0.0625,
                    "violation_count": 1, "histogram": [1, 0, 3],
                    "histogram_edges": [-1.0, 0.0, 0.5, 1.0], "warning": warning}
        assert report.to_json() == expected
        assert json.dumps(report.to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestLossyThreeModeFamily:
    """A two-mode squeezed vacuum on A-B whose B is split on a beam splitter
    of transmissivity eta, with vacuum on C, has a closed form on every
    split: R(A|BC) = tanh r, since the splitter is local to BC, and R(A|B),
    R(A|C) are the covariance values of the lossy state at eta and 1 - eta.
    The Fock state of c levels a mode meets them within the amplitude tail
    chi^c, times alpha for E^alpha (|a^2 - b^2| <= 2|a - b| on [0, 1]), plus
    PSD_TOL: both routes read a negativity below PSD_TOL as 0."""

    @staticmethod
    def residuals(r, eta, c, alpha):
        psi = lossy_tmsvs_amplitudes(r, eta, c)
        return ckw_residuals(psi.reshape(1, -1), SubsystemLayout((c, c, c), (0,)), alpha)

    @staticmethod
    def closed_forms(r, eta, alpha):
        pair = [cm_ratio_negativity(CovarianceMatrix(lossy_tmsvs_cm(r, e))) for e in (eta, 1 - eta)]
        return math.tanh(r) ** alpha, [p ** alpha for p in pair]

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(0.05, 1.0), eta=st.floats(0.0, 1.0), c=st.integers(4, 16))
    @example(r=0.5, eta=0.6, c=16)
    @example(r=0.3, eta=0.9, c=16)
    @example(r=0.05, eta=9.999993936194823e-11, c=16)  # R(A|B) at the clamp
    def test_residuals_meet_the_closed_forms(self, r, eta, c):
        for alpha in (1.0, 2.0):
            (lhs,), (rhs,), (residual,) = self.residuals(r, eta, c, alpha)
            want_lhs, want_rhs = self.closed_forms(r, eta, alpha)
            tol = alpha * math.tanh(r) ** c + PSD_TOL + 1e-12
            assert abs(lhs - want_lhs) <= tol
            assert np.all(np.abs(rhs - want_rhs) <= tol)
            assert abs(residual - (want_lhs - sum(want_rhs))) <= 3 * tol

    def test_alpha_one_violates_ckw(self):
        # At (r, eta) = (0.5, 0.6) the first power violates the inequality.
        want_lhs, want_rhs = self.closed_forms(0.5, 0.6, 1.0)
        assert round(want_lhs - sum(want_rhs), 3) == -0.091
        (residual,) = self.residuals(0.5, 0.6, 16, 1.0)[2]
        assert residual < 0
        assert abs(residual - (want_lhs - sum(want_rhs))) <= 3 * (math.tanh(0.5) ** 16 + 1e-12)
