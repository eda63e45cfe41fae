import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchain.gaussian import (
    CM_MAX_R,
    CovarianceMatrix,
    cm_partial_transpose,
    cm_ratio_negativity,
    symplectic_eigenvalues,
    symplectic_form,
    tmsvs_cm,
    validate_cm,
)
from qchain.measures import (
    PURE_ONLY_KINDS,
    MeasureSpec,
    evaluate_measure,
    negativity,
    pt_trace_norm,
    ratio_negativity,
)
from qchain.states import PSD_TOL, DensityMatrix, TmsvsSpec, tmsvs_truncated
from qchain.tensor import SubsystemLayout

from conftest import lossy_tmsvs_cm, lossy_tmsvs_matrix, moment_oracle_cm

R_GRID = (0.1, 0.3, 0.5, 1.0, 1.5)


def tmsvs_amplitude_matrix(r, cutoff=60):
    st = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff))
    d = cutoff + 1
    return np.asarray(st.amplitudes).reshape(d, d)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def random_symplectic(rng):
    """Product of per-mode rotations, squeezers, and a mode-mixing block."""
    def per_mode(block1, block2):
        out = np.zeros((4, 4))
        out[:2, :2] = block1
        out[2:, 2:] = block2
        return out

    t1, t2, t3, t4 = rng.uniform(0, 2 * math.pi, 4)
    z1, z2 = rng.uniform(-0.8, 0.8, 2)
    theta = rng.uniform(0, 2 * math.pi)
    mix = np.block([[math.cos(theta) * np.eye(2), math.sin(theta) * np.eye(2)],
                    [-math.sin(theta) * np.eye(2), math.cos(theta) * np.eye(2)]])
    s = per_mode(rotation(t1), rotation(t2))
    s = s @ per_mode(np.diag([math.exp(z1), math.exp(-z1)]),
                     np.diag([math.exp(z2), math.exp(-z2)]))
    s = s @ mix
    s = s @ per_mode(rotation(t3), rotation(t4))
    return s


class TestValidation:
    def test_vacuum_ok(self):
        assert validate_cm(CovarianceMatrix(np.eye(6))) is None

    def test_zero_matrix_violates_uncertainty(self):
        with pytest.raises(ValueError, match=r"^invalid covariance matrix: uncertainty relation "
                                             r"violated \(min eig -1\.000e\+00\)$"):
            validate_cm(CovarianceMatrix(np.zeros((4, 4))))

    def test_tmsvs_cm_ok(self):
        assert validate_cm(tmsvs_cm(0.5)) is None

    def test_asymmetric_rejected(self):
        g = np.eye(4)
        g[0, 1] = 0.5
        with pytest.raises(ValueError, match=r"^covariance matrix is not symmetric \(defect 5.000e-01\)$"):
            CovarianceMatrix(g)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))
        # An empty Gamma once passed the even-dimension rule and failed in
        # the symmetry walk's reduction.
        with pytest.raises(ValueError, match="^covariance matrix is empty: it needs at least one mode$"):
            CovarianceMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gamma_rejected(self, bad):
        # An infinite diagonal entry used to validate as ok with a NaN
        # symmetry defect, and a NaN one as an uncertainty violation.
        g = np.eye(4)
        g[1, 1] = bad
        with pytest.raises(ValueError, match="covariance matrix contains non-finite entries"):
            CovarianceMatrix(g)


class TestTmsvsCm:
    def test_moment_oracle_agreement(self):
        # Quadrature moments of the dense cutoff-60 state reproduce the
        # analytic matrix wherever the truncation tail is negligible.
        for r in (0.1, 0.3, 0.5, 1.0):
            oracle = moment_oracle_cm(tmsvs_amplitude_matrix(r))
            assert np.max(np.abs(tmsvs_cm(r).gamma - oracle)) < 1e-8

    def test_leading_entry_is_cosh(self):
        oracle = moment_oracle_cm(tmsvs_amplitude_matrix(0.5))
        assert abs(oracle[0, 0] - math.cosh(1.0)) < 1e-10
        assert abs(tmsvs_cm(0.5).gamma[0, 0] - math.cosh(1.0)) < 1e-14

    def test_small_r_approaches_vacuum(self):
        assert np.max(np.abs(tmsvs_cm(1e-9).gamma - np.eye(4))) < 1e-8

    def test_purity_determinant(self):
        oracle = moment_oracle_cm(tmsvs_amplitude_matrix(0.5))
        assert abs(np.linalg.det(oracle) - 1.0) < 1e-8
        for r in R_GRID:
            assert abs(np.linalg.det(tmsvs_cm(r).gamma) - 1.0) < 1e-9

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            tmsvs_cm(0.0)

    def test_largest_accepted_r(self):
        assert abs(cm_ratio_negativity(tmsvs_cm(CM_MAX_R)) - math.tanh(CM_MAX_R)) < 2e-12

    @pytest.mark.parametrize("r", [math.nextafter(CM_MAX_R, math.inf), 6.0, 20.0, 356.0, 1000.0])
    def test_rejects_r_beyond_the_route_range(self, r):
        # Refused before cosh 2r is formed: from r ~ 355 it overflows.
        with pytest.raises(ValueError, match=rf"takes 0 < r <= {CM_MAX_R}, got r = {r}"):
            tmsvs_cm(r)


class TestCmPartialTranspose:
    def test_product_cm_stays_bona_fide(self):
        assert validate_cm(cm_partial_transpose(CovarianceMatrix(np.eye(4)), (0,))) is None

    def test_tmsvs_pt_violates_uncertainty(self):
        # The smallest eigenvalue of the flipped Gamma + i*Lambda is e^(-2r) - 1.
        for r, min_eig in ((0.2, "-3.297e-01"), (1.0, "-8.647e-01")):
            flipped = cm_partial_transpose(tmsvs_cm(r), (0,))
            with pytest.raises(ValueError, match=r"^invalid covariance matrix: uncertainty relation "
                                                 rf"violated \(min eig {min_eig}\)$"):
                validate_cm(flipped)

    def test_double_flip_is_identity(self):
        cm = tmsvs_cm(0.7)
        back = cm_partial_transpose(cm_partial_transpose(cm, (0,)), (0,))
        assert np.array_equal(back.gamma, cm.gamma)

    def test_mode_index_checked(self):
        with pytest.raises(ValueError):
            cm_partial_transpose(CovarianceMatrix(np.eye(4)), (5,))

    def test_sign_flip_equals_flip_matrix_product(self):
        # Reference: F Gamma F with F = diag(f), the flip as a matrix. The
        # elementwise flip differs only in the sign of zeros.
        cases = [tmsvs_cm(r).gamma for r in np.linspace(0.01, 5.0, 200)]
        cases += [lossy_tmsvs_cm(r, eta) for r in np.linspace(0.01, 5.0, 20)
                  for eta in np.linspace(0.0, 1.0, 11)]
        flip = np.diag([1.0, -1.0, 1.0, 1.0])
        for g in cases:
            flipped = cm_partial_transpose(CovarianceMatrix(g), (0,))
            reference = CovarianceMatrix(flip @ g @ flip)
            assert np.array_equal(flipped.gamma, reference.gamma)
            assert np.array_equal(symplectic_eigenvalues(flipped), symplectic_eigenvalues(reference))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(CovarianceMatrix(np.eye(6))), [1, 1, 1])

    def test_tmsvs_is_pure(self):
        for r in (0.3, 1.0):
            nu = symplectic_eigenvalues(tmsvs_cm(r))
            assert np.allclose(nu, [1.0, 1.0], atol=1e-8)

    def test_pt_spectrum_is_exp_2r(self):
        for r in (0.3, 0.8):
            nu = symplectic_eigenvalues(cm_partial_transpose(tmsvs_cm(r), (0,)))
            assert abs(nu[0] - math.exp(2 * r)) < 1e-6
            assert abs(nu[-1] - math.exp(-2 * r)) < 1e-6

    def test_thermal_state(self):
        assert np.allclose(symplectic_eigenvalues(CovarianceMatrix(2.0 * np.eye(4))), [2.0, 2.0])

    def test_symplectic_invariance(self, rng):
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for modes in range(1, 7):
            blocks = np.zeros((2 * modes, 2 * modes))
            for k in range(modes):
                blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = j
            # Bit for bit: no entry may turn into -0.0.
            assert np.array_equal(symplectic_form(modes), blocks)
            assert symplectic_form(modes).tobytes() == blocks.tobytes()
        lam = symplectic_form(2)
        gamma = tmsvs_cm(0.6).gamma
        base = symplectic_eigenvalues(CovarianceMatrix(gamma))
        for _ in range(10):
            s = random_symplectic(rng)
            assert np.max(np.abs(s.T @ lam @ s - lam)) < 1e-12
            transformed = symplectic_eigenvalues(CovarianceMatrix(s @ gamma @ s.T))
            assert np.allclose(transformed, base, atol=1e-9)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([1.0, 1.0, -1.0, 1.0])))

    @pytest.mark.parametrize("index, bad", [((1, 1), np.nan), ((0, 2), np.inf)])
    def test_non_finite_entry_refused_without_warning(self, index, bad):
        # A bare array once named the wrong fault for the NaN, or ended in
        # a LinAlgError, after a RuntimeWarning for the infinity.
        g = np.eye(4)
        g[index] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance matrix contains non-finite entries$"):
                symplectic_eigenvalues(CovarianceMatrix(g))

    def test_rejects_asymmetric(self):
        # A bare array with this defect once gave [1.0, 1.0].
        g = np.eye(4)
        g[0, 1] = 0.9
        with pytest.raises(ValueError, match=r"^covariance matrix is not symmetric \(defect 9.000e-01\)$"):
            symplectic_eigenvalues(CovarianceMatrix(g))

    def test_pure_iff_unit_determinant(self):
        # All symplectic values 1 exactly when det Gamma = 1.
        cases = [CovarianceMatrix(np.eye(4)).gamma, tmsvs_cm(0.4).gamma, 2.0 * np.eye(4),
                 np.diag([2.0, 0.5, 1.0, 1.0])]
        for g in cases:
            nu = symplectic_eigenvalues(CovarianceMatrix(g))
            all_unit = np.allclose(nu, 1.0, atol=1e-9)
            det_unit = abs(np.linalg.det(g) - 1.0) < 1e-9
            assert all_unit == det_unit


class TestCmRatioNegativity:
    def test_matches_tanh_r(self):
        for r, tol in [(1.0, 1e-6), (0.3, 1e-6)]:
            assert abs(cm_ratio_negativity(tmsvs_cm(r)) - math.tanh(r)) < tol

    def test_two_vacuum_modes_are_separable(self):
        assert cm_ratio_negativity(CovarianceMatrix(np.eye(4))) == 0.0

    def test_fock_route_agreement(self):
        # Covariance route versus the truncated Fock route at default
        # cutoffs; both sit within 1e-6 of each other across the grid.
        for r in R_GRID:
            fock = ratio_negativity(tmsvs_truncated(TmsvsSpec.from_r(r)))
            assert abs(cm_ratio_negativity(tmsvs_cm(r)) - fock) < 1e-6

    def test_thermal_product_reads_zero(self):
        # Mixed states are in scope: a product of thermal modes has
        # symplectic eigenvalues 2, so 1/nu_min = 1/2 and the clamp reads 0.
        assert cm_ratio_negativity(CovarianceMatrix(2.0 * np.eye(4))) == 0.0

    def test_rejects_multimode(self):
        with pytest.raises(ValueError, match="2 modes"):
            cm_ratio_negativity(CovarianceMatrix(np.eye(6)))

    def test_rejects_an_uncertainty_violation(self):
        # 0.5 I is symmetric and positive definite, but below the vacuum.
        with pytest.raises(ValueError, match="invalid covariance matrix: uncertainty relation violated"):
            cm_ratio_negativity(CovarianceMatrix(0.5 * np.eye(4)))


def frozen_ratio(cm):
    """cm_ratio_negativity's formula as it stood before a covariance matrix
    became a state: the negativity (1/nu_min - 1)/2 at weight 1, clamped to
    0 below PSD_TOL, then N/(N+1)."""
    nu = symplectic_eigenvalues(cm_partial_transpose(cm, (0,)))
    n = np.asarray((1.0 / nu[-1] - 1.0) / 2.0, dtype=float) / 1.0
    n = float(np.where(n >= PSD_TOL, n, 0.0))
    return n / (n + 1.0)


squeezings = st.floats(0.0, CM_MAX_R, exclude_min=True)
two_mode_cms = (squeezings.map(tmsvs_cm)
                | st.tuples(squeezings, st.floats(0.0, 1.0)).map(
                    lambda p: CovarianceMatrix(lossy_tmsvs_cm(*p))))


class TestCovarianceMatrixPair:
    """A two-mode covariance matrix is a state: every negativity-family
    measure reads its (w, neg) pair, w = 1 and neg = (max(1, 1/nu_min) - 1)/2."""

    @settings(max_examples=200, deadline=None)
    @given(cm=two_mode_cms)
    @example(cm=CovarianceMatrix(np.eye(4)))
    @example(cm=CovarianceMatrix(2.0 * np.eye(4)))
    @example(cm=tmsvs_cm(CM_MAX_R))
    @example(cm=CovarianceMatrix(lossy_tmsvs_cm(0.078125, 1e-10)))  # a negativity at the clamp
    @example(cm=CovarianceMatrix(lossy_tmsvs_cm(0.078125, 2e-10)))  # and just above it
    def test_ratio_is_the_frozen_formula_bit_for_bit(self, cm):
        assert cm_ratio_negativity(cm).hex() == frozen_ratio(cm).hex()

    @settings(max_examples=200, deadline=None)
    @given(cm=two_mode_cms)
    @example(cm=CovarianceMatrix(np.eye(4)))
    @example(cm=CovarianceMatrix(2.0 * np.eye(4)))
    @example(cm=CovarianceMatrix(lossy_tmsvs_cm(0.078125, 1e-10)))
    @example(cm=CovarianceMatrix(lossy_tmsvs_cm(0.078125, 2e-10)))
    def test_measures_obey_the_pair_relations(self, cm):
        results = {kind: evaluate_measure(MeasureSpec(kind, **kw), cm) for kind, kw in (
            ("negativity", {}), ("log_negativity", {}), ("ratio", {}),
            ("alpha_ratio", {"alpha": 2.0}), ("custom_f", {"f": math.sqrt}))}
        n = results["negativity"].value
        expected = {"negativity": n, "log_negativity": math.log1p(2.0 * n) / math.log(2.0),
                    "ratio": n / (n + 1.0), "alpha_ratio": (n / (n + 1.0)) ** 2.0,
                    "custom_f": math.sqrt(n)}
        t = pt_trace_norm(cm)
        for kind, result in results.items():
            assert result.value == expected[kind], kind
            assert (result.trace_norm, result.ppt, result.truncation_deficit) == (t, n == 0.0, 0.0)
        if n > 0:
            assert t == 1.0 + 2.0 * n
        else:
            # A negative part below PSD_TOL reads N = 0, not the trace norm.
            assert 1.0 <= t < 1.0 + 2.0 * PSD_TOL
        assert negativity(cm) == n
        assert cm_ratio_negativity(cm) == expected["ratio"]

    @pytest.mark.parametrize("kind", PURE_ONLY_KINDS)
    def test_pure_only_kinds_refused(self, kind):
        with pytest.raises(ValueError, match=rf"^{kind} is only evaluated on pure states"):
            evaluate_measure(MeasureSpec(kind), tmsvs_cm(0.5))

    @pytest.mark.parametrize("kind", PURE_ONLY_KINDS)
    def test_pure_only_refusal_names_the_covariance_route(self, kind):
        # tmsvs_cm(0.5) is pure, so the refusal names the route, not the state.
        with pytest.raises(ValueError, match=rf"^{kind} is only evaluated on pure states given as "
                                             r"amplitudes; a covariance matrix takes only the "
                                             r"negativity-family kinds$"):
            evaluate_measure(MeasureSpec(kind), tmsvs_cm(0.5))

    @pytest.mark.parametrize("gamma, message", [
        (np.eye(6), "^the covariance route supports exactly 2 modes, got 3$"),
        (0.5 * np.eye(4), r"^invalid covariance matrix: uncertainty relation violated "
                          r"\(min eig -5\.000e-01\)$"),
    ])
    def test_refusals_through_every_entry_point(self, gamma, message):
        cm = CovarianceMatrix(gamma)
        for call in (lambda: evaluate_measure(MeasureSpec("ratio"), cm),
                     lambda: negativity(cm), lambda: cm_ratio_negativity(cm)):
            with pytest.raises(ValueError, match=message):
                call()


class TestLossyTwoModeStates:
    """A two-mode squeezed vacuum with loss on mode B is mixed; its dense
    Fock-basis ratio negativity meets the covariance route's max(1,
    1/nu_min) within the amplitude tail chi^cutoff, the pure case's bound
    (sech^2 r t/(1 - chi t) <= t), plus rounding and PSD_TOL: both routes
    read a negativity below PSD_TOL as 0. Their negativities then meet
    through N = R/(1 - R): N1 - N2 = (R1 - R2)/((1 - R1)(1 - R2))."""

    @staticmethod
    def routes(r, eta, cutoff, rotation=None):
        """The dense and covariance routes' (ratio, negativity) pairs."""
        layout = SubsystemLayout((cutoff, cutoff), (0,))
        dense = DensityMatrix(lossy_tmsvs_matrix(r, eta, cutoff, rotation), layout)
        cm = CovarianceMatrix(lossy_tmsvs_cm(r, eta))
        return [(ratio_negativity(s), negativity(s)) for s in (dense, cm)]

    @classmethod
    def gap(cls, r, eta, cutoff, rotation=None):
        (dense, _), (cm, _) = cls.routes(r, eta, cutoff, rotation)
        return abs(dense - cm)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.05, 2.0), eta=st.floats(0.0, 1.0), cutoff=st.integers(2, 24),
           seed=st.none() | st.integers(0, 2 ** 32 - 1))
    @example(r=0.5, eta=0.6, cutoff=20, seed=None)
    @example(r=0.5, eta=0.6, cutoff=20, seed=7)
    @example(r=0.078125, eta=1e-10, cutoff=10, seed=None)  # a negativity at the clamp
    def test_dense_route_meets_covariance_route(self, r, eta, cutoff, seed):
        rotation = None
        if seed is not None:
            rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((cutoff, cutoff)))[0]
        (r_dense, n_dense), (r_cm, n_cm) = self.routes(r, eta, cutoff, rotation)
        bound = math.tanh(r) ** cutoff + PSD_TOL + 1e-12
        assert abs(r_dense - r_cm) <= bound
        assert abs(n_dense - n_cm) <= bound / ((1.0 - r_dense) * (1.0 - r_cm))

    def test_converged_cutoff_agrees_to_rounding(self):
        # chi^40 = 3.9e-14 at r = 0.5: the truncation is below rounding.
        assert self.gap(0.5, 0.6, 40) < 1e-14

    def test_lossy_link_is_weaker(self):
        lossy = cm_ratio_negativity(CovarianceMatrix(lossy_tmsvs_cm(0.5, 0.6)))
        assert 0.0 < lossy < math.tanh(0.5)

    def test_no_loss_is_the_pure_state(self):
        assert np.array_equal(lossy_tmsvs_cm(0.5, 1.0), tmsvs_cm(0.5).gamma)
