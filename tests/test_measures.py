import math

import mpmath
import numpy as np
import pytest

from qchain.measures import (
    MeasureSpec,
    _from_negativity,
    alpha_ratio_negativity,
    compose_ratio_tensor,
    concurrence_pure,
    evaluate_measure,
    f_negativity,
    g_concurrence_pure,
    is_ppt,
    log_negativity,
    negativity,
    negativity_pure,
    pt_trace_norm,
    ratio_negativity,
    ratio_negativity_pure,
    scp_pure_qubit,
    validate_f,
)
from qchain.states import (
    DensityMatrix,
    TmsvsSpec,
    apply_kraus_branches,
    bell_state,
    cutoff_for_amplitude_tail,
    pure_from_schmidt,
    random_density_matrix,
    random_haar_pure,
    substream,
    tmsvs_truncated,
)
from qchain.tensor import SubsystemLayout, kron

from conftest import scp_oracle

QUBIT_PAIR = SubsystemLayout((2, 2), (0,))


def classical_bell_mixture():
    """1/2 rho_classical + 1/2 Bell, the standard nonconvexity witness."""
    rho1 = np.diag([0.5, 0, 0, 0.5]).astype(complex)
    bell = bell_state().density_matrix().matrix
    return (DensityMatrix(rho1, QUBIT_PAIR, _trusted=True),
            DensityMatrix(bell, QUBIT_PAIR, _trusted=True),
            DensityMatrix((rho1 + bell) / 2, QUBIT_PAIR, _trusted=True))


class TestNegativity:
    def test_bell(self):
        assert abs(negativity(bell_state()) - 0.5) < 1e-10

    def test_mixture_quarter(self):
        _, _, mix = classical_bell_mixture()
        assert abs(negativity(mix) - 0.25) < 1e-10

    def test_product_state(self):
        assert negativity(pure_from_schmidt([1.0], (2, 2))) == 0.0

    def test_clamps_roundoff_to_zero(self):
        rho1, _, _ = classical_bell_mixture()
        assert negativity(rho1) == 0.0

    def test_pure_and_dense_routes_agree(self):
        for i in range(20):
            st = random_haar_pure(SubsystemLayout((3, 4), (0,)), substream(2, i))
            assert abs(negativity(st) - negativity(st.density_matrix())) < 1e-10


class TestLogNegativity:
    def test_bell_is_one(self):
        assert abs(log_negativity(bell_state()) - 1.0) < 1e-12

    def test_separable_is_zero(self):
        assert abs(log_negativity(pure_from_schmidt([1.0], (2, 2)))) < 1e-12

    def test_tmsvs_trace_norm_is_exp_2r(self):
        # The unambiguous analytic statement: |rho^T_A|_1 = e^{2r}. The
        # base-2 log gives 2r/ln2; the natural-log variant gives 2r.
        r = 0.7
        st = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff_for_amplitude_tail(math.tanh(r), 1e-12)))
        assert abs(pt_trace_norm(st) - math.exp(2 * r)) < 1e-9 * math.exp(2 * r)
        assert abs(log_negativity(st) - 2 * r / math.log(2)) < 1e-9
        assert abs(log_negativity(st, base=math.e) - 2 * r) < 1e-9


class TestValidateF:
    def test_identity_ok(self):
        assert validate_f(lambda x: x).ok

    def test_ratio_generator_ok(self):
        assert validate_f(lambda x: x / (x + 1)).ok

    def test_negation_fails_immediately(self):
        report = validate_f(lambda x: -x)
        assert not report.ok
        assert report.first_violation is not None

    def test_nonzero_origin_fails(self):
        report = validate_f(lambda x: x + 1)
        assert not report.ok
        assert "f(0)" in report.message

    def test_constant_fails(self):
        assert not validate_f(lambda x: 0.0).ok


class TestFNegativity:
    def test_sqrt_on_mixture(self):
        _, _, mix = classical_bell_mixture()
        assert abs(f_negativity(math.sqrt, mix) - 0.5) < 1e-10

    def test_mixture_average_shows_nonconvexity(self):
        rho1, rho2, mix = classical_bell_mixture()
        avg = (f_negativity(math.sqrt, rho1) + f_negativity(math.sqrt, rho2)) / 2
        assert abs(avg - math.sqrt(2) / 4) < 1e-10
        assert f_negativity(math.sqrt, mix) > avg

    @pytest.mark.parametrize("f", [
        lambda x: x ** 0.5,
        lambda x: math.log(2 * x + 1),
        lambda x: x / (x + 1),
    ])
    def test_nonconvexity_witnesses(self, f):
        rho1, rho2, mix = classical_bell_mixture()
        avg = (f_negativity(f, rho1) + f_negativity(f, rho2)) / 2
        assert f_negativity(f, mix) > avg

    def test_quartic_on_lopsided_pair(self):
        st = pure_from_schmidt([0.1, 0.9], (2, 2))
        assert abs(f_negativity(lambda x: x ** 4, st) - 0.0081) < 1e-12

    def test_rejects_invalid_f(self):
        with pytest.raises(ValueError, match="invalid f"):
            f_negativity(lambda x: -x, bell_state())


class TestLocalMeasurementCounterexample:
    """A local two-outcome measurement on sqrt(0.1)|00> + sqrt(0.9)|11>
    with Kraus weights (0.8, 0.2)/(0.2, 0.8) raises the average
    fourth-power negativity above the input value.

    All five numbers are exact rationals:
    p = (13/50, 37/50), branch negativities (6/13, 6/37),
    input value 1296/160000, average 1296/109850 + 1296/2532650.
    """

    def setup_method(self):
        psi = pure_from_schmidt([0.1, 0.9], (2, 2))
        m1 = kron(np.diag([math.sqrt(0.8), math.sqrt(0.2)]).astype(complex), np.eye(2))
        m2 = kron(np.diag([math.sqrt(0.2), math.sqrt(0.8)]).astype(complex), np.eye(2))
        self.psi = psi
        self.branches = apply_kraus_branches(psi, [m1, m2])

    def test_branch_probabilities(self):
        (p1, _), (p2, _) = self.branches
        assert abs(p1 - 13 / 50) < 1e-10
        assert abs(p2 - 37 / 50) < 1e-10

    def test_branch_negativities(self):
        (_, out1), (_, out2) = self.branches
        assert abs(negativity(out1) - 6 / 13) < 1e-10
        assert abs(negativity(out2) - 6 / 37) < 1e-10

    def test_quartic_average_increases(self):
        f = lambda x: x ** 4
        (p1, out1), (p2, out2) = self.branches
        before = f_negativity(f, self.psi)
        after = p1 * f_negativity(f, out1) + p2 * f_negativity(f, out2)
        assert abs(before - 1296 / 160000) < 1e-10
        assert abs(after - (1296 / 109850 + 1296 / 2532650)) < 1e-10
        assert after > before


class TestRatioNegativity:
    def test_bell(self):
        assert abs(ratio_negativity(bell_state()) - 1 / 3) < 1e-10

    def test_reduced_three_qubit_state(self):
        from qchain.monogamy import ckw_violation_state
        from qchain.tensor import partial_trace
        psi = ckw_violation_state()
        rho = psi.density_matrix()
        reduced = partial_trace(rho.matrix, psi.layout, keep=[0, 1])
        dm = DensityMatrix(reduced, QUBIT_PAIR, _trusted=True)
        assert abs(ratio_negativity(dm) - 0.2) < 1e-10

    def test_tmsvs_equals_tanh_r(self):
        for r in (0.3, 1.0):
            chi = math.tanh(r)
            st = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff_for_amplitude_tail(chi, 1e-11)))
            assert abs(ratio_negativity(st) - chi) < 1e-10

    def test_bounded_below_one(self):
        for i in range(30):
            dm = random_density_matrix(SubsystemLayout((2, 3), (0,)), 6, substream(4, i))
            chi = ratio_negativity(dm)
            assert 0.0 <= chi < 1.0

    def test_zero_iff_ppt(self):
        for i in range(40):
            dm = random_density_matrix(QUBIT_PAIR, 4, substream(5, i))
            assert (ratio_negativity(dm) == 0.0) == is_ppt(dm)

    def test_same_ordering_as_negativity(self):
        states = [random_density_matrix(QUBIT_PAIR, 4, substream(6, i)) for i in range(25)]
        pairs = list(zip(states[:-1], states[1:]))
        for a, b in pairs:
            lhs = np.sign(ratio_negativity(a) - ratio_negativity(b))
            rhs = np.sign(negativity(a) - negativity(b))
            assert lhs == rhs


class TestAlphaRatio:
    def test_alpha_one_reduces(self):
        dm = random_density_matrix(QUBIT_PAIR, 2, 8)
        assert alpha_ratio_negativity(dm, 1.0) == ratio_negativity(dm)

    def test_bell_squared(self):
        assert abs(alpha_ratio_negativity(bell_state(), 2.0) - 1 / 9) < 1e-12

    def test_high_precision_power(self):
        # (1/3)^3.191 against a 50-digit evaluation.
        expected = float(mpmath.mpf(1) / 3 ** mpmath.mpf("3.191"))
        with mpmath.workdps(50):
            expected = float(mpmath.power(mpmath.mpf(1) / 3, mpmath.mpf("3.191")))
        assert abs(alpha_ratio_negativity(bell_state(), 3.191) - expected) < 1e-12

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            alpha_ratio_negativity(bell_state(), 0.0)


class TestPureClosedForms:
    def test_ratio_uniform_pair(self):
        assert abs(ratio_negativity_pure([0.5, 0.5]) - 1 / 3) < 1e-14

    def test_ratio_lopsided_pair(self):
        # (sqrt(0.1) + sqrt(0.9))^2 = 1.6, so the value is 0.6/2.6 = 3/13.
        assert abs(ratio_negativity_pure([0.9, 0.1]) - 3 / 13) < 1e-14

    def test_agreement_with_dense_route(self):
        rng = substream(10, 0)
        for _ in range(15):
            lam = rng.uniform(0.05, 1.0, 3)
            lam /= lam.sum()
            st = pure_from_schmidt(lam, (3, 3))
            dense = ratio_negativity(st.density_matrix())
            assert abs(ratio_negativity_pure(lam) - dense) < 1e-10

    def test_negativity_pure(self):
        assert abs(negativity_pure([0.5, 0.5]) - 0.5) < 1e-14


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence_pure(bell_state()) - 1.0) < 1e-12

    def test_lopsided_pair(self):
        st = pure_from_schmidt([0.9, 0.1], (2, 2))
        assert abs(concurrence_pure(st) - 0.6) < 1e-12

    def test_product(self):
        assert concurrence_pure(pure_from_schmidt([1.0], (2, 2))) < 1e-12

    def test_trace_norm_identity_for_qubit_pairs(self):
        # For pure two-qubit states |rho^T_A|_1 = 1 + C, hence N = C/2 and
        # the ratio value is C/(C+2).
        for i in range(50):
            st = random_haar_pure(QUBIT_PAIR, substream(12, i))
            c = concurrence_pure(st)
            assert abs(pt_trace_norm(st) - (1 + c)) < 1e-10
            assert abs(negativity(st) - c / 2) < 1e-10
            assert abs(ratio_negativity(st) - c / (c + 2)) < 1e-10


class TestGConcurrence:
    def test_uniform_is_one(self):
        for d in (2, 3, 5):
            assert abs(g_concurrence_pure([1 / d] * d, d) - 1.0) < 1e-12

    def test_reduces_to_concurrence_for_qubits(self):
        assert abs(g_concurrence_pure([0.9, 0.1], 2) - 0.6) < 1e-12

    def test_qutrit_value(self):
        expected = 3 * (0.5 * 0.3 * 0.2) ** (1 / 3)
        assert abs(g_concurrence_pure([0.5, 0.3, 0.2], 3) - expected) < 1e-12

    def test_zero_coefficient_gives_zero(self):
        assert g_concurrence_pure([0.5, 0.5, 0.0], 3) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            g_concurrence_pure([0.5, 0.5], 3)


class TestScp:
    def test_bell_is_certain(self):
        assert abs(scp_pure_qubit([0.5, 0.5]) - 1.0) < 1e-14

    def test_lopsided_pair(self):
        assert abs(scp_pure_qubit([0.9, 0.1]) - 0.2) < 1e-14

    def test_matches_tail_sum_oracle(self):
        rng = substream(14, 0)
        for _ in range(25):
            lam = rng.uniform(0.01, 1.0, 2)
            lam /= lam.sum()
            assert abs(scp_pure_qubit(lam) - scp_oracle(lam)) < 1e-12

    def test_product_state(self):
        assert scp_pure_qubit([1.0]) == 0.0

    def test_rejects_qudit_input(self):
        with pytest.raises(ValueError):
            scp_pure_qubit([0.5, 0.3, 0.2])


class TestPpt:
    def test_bell_is_npt(self):
        assert not is_ppt(bell_state())

    def test_classical_mixture_is_ppt(self):
        rho1, _, _ = classical_bell_mixture()
        assert is_ppt(rho1)

    def test_separable_mixture_is_ppt(self):
        rng = substream(16, 0)
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(5):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho += kron(np.outer(a, a.conj()) / np.vdot(a, a).real,
                        np.outer(b, b.conj()) / np.vdot(b, b).real)
        rho /= np.real(np.trace(rho))
        assert is_ppt(DensityMatrix(rho, QUBIT_PAIR, _trusted=True))


class TestTensorComposition:
    def test_two_factor_identity_random_pairs(self):
        layout = SubsystemLayout((2, 2, 2, 2), (0, 2))
        for i in range(40):
            r1 = random_density_matrix(QUBIT_PAIR, 4, substream(18, 2 * i))
            r2 = random_density_matrix(QUBIT_PAIR, 4, substream(18, 2 * i + 1))
            chi1, chi2 = ratio_negativity(r1), ratio_negativity(r2)
            product = DensityMatrix(kron(r1.matrix, r2.matrix), layout, _trusted=True)
            lhs = ratio_negativity(product)
            rhs = (chi1 + chi2) / (1 + chi1 * chi2)
            assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-14)
            if chi1 > 1e-6 and chi2 > 1e-6:
                assert lhs < chi1 + chi2

    def test_three_factor_closed_form(self):
        # Dense 64x64 check of the odds-product rule for three factors.
        layout = SubsystemLayout((2, 2, 2, 2, 2, 2), (0, 2, 4))
        states = [pure_from_schmidt(lam, (2, 2)).density_matrix()
                  for lam in ([0.9, 0.1], [0.7, 0.3], [0.5, 0.5])]
        chis = [ratio_negativity(s) for s in states]
        big = kron(kron(states[0].matrix, states[1].matrix), states[2].matrix)
        dense = ratio_negativity(DensityMatrix(big, layout, _trusted=True))
        assert abs(dense - compose_ratio_tensor(chis)) < 1e-7

    def test_compose_ratio_validates_range(self):
        with pytest.raises(ValueError):
            compose_ratio_tensor([0.5, 1.0])


class TestEvaluateMeasure:
    def test_report_fields(self):
        res = evaluate_measure(MeasureSpec("ratio"), bell_state())
        doc = res.to_json()
        assert doc["measure"] == "ratio"
        assert abs(doc["value"] - 1 / 3) < 1e-10
        assert abs(doc["trace_norm"] - 2.0) < 1e-10
        assert doc["ppt"] is False
        assert doc["truncation_deficit"] == 0.0

    def test_alpha_recorded(self):
        res = evaluate_measure(MeasureSpec("alpha_ratio", alpha=2.0), bell_state())
        assert res.alpha == 2.0
        assert abs(res.value - 1 / 9) < 1e-12

    def test_concurrence_requires_pure(self):
        dm = random_density_matrix(QUBIT_PAIR, 4, 21)
        with pytest.raises(ValueError, match="pure"):
            evaluate_measure(MeasureSpec("concurrence"), dm)

    def test_custom_f(self):
        res = evaluate_measure(MeasureSpec("custom_f", f=lambda x: x / (x + 1)), bell_state())
        assert abs(res.value - 1 / 3) < 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec("entropy")


def isotropic_edge_state():
    """p|Phi+><Phi+| + (1-p) I/16 on (4, 4), with p just above the
    separability bound 1/5: each of the 6 negative partial-transpose
    eigenvalues is (1 - 5p)/16 = -5e-11, so N = 3e-10 >= PSD_TOL."""
    p = 0.2 + 16 * 5e-11 / 5
    phi = np.eye(4).reshape(16) / 2.0
    rho = p * np.outer(phi, phi) + (1 - p) * np.eye(16) / 16
    return DensityMatrix(rho.astype(complex), SubsystemLayout((4, 4), (0,)))


MIXED_SPECS = [MeasureSpec("negativity"), MeasureSpec("log_negativity"), MeasureSpec("ratio"),
               MeasureSpec("alpha_ratio", alpha=3.191),
               MeasureSpec("custom_f", f=lambda x: x / (x + 1))]


class TestPptIsZeroNegativity:
    def test_edge_state_is_npt(self):
        st = isotropic_edge_state()
        assert abs(negativity(st) - 3e-10) < 1e-14
        assert not is_ppt(st)
        for spec in MIXED_SPECS:
            res = evaluate_measure(spec, st)
            assert res.ppt is False, spec.kind
            assert res.ppt == (res.value == 0.0), spec.kind


class TestOneTraceNormPerValue:
    @pytest.mark.parametrize("spec", MIXED_SPECS, ids=lambda s: s.kind)
    def test_one_trace_norm_and_one_eigensolve(self, spec, monkeypatch):
        import qchain.measures as measures
        dm = random_density_matrix(SubsystemLayout((3, 3), (0,)), 4, 32)
        calls = {"pt_trace_norm": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(measures, "pt_trace_norm", counted("pt_trace_norm", measures.pt_trace_norm))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        evaluate_measure(spec, dm)
        assert calls == {"pt_trace_norm": 1, "eigvalsh": 1}

    def test_invalid_custom_f_rejected_at_spec(self):
        with pytest.raises(ValueError, match="invalid f"):
            MeasureSpec("custom_f", f=lambda x: -x)


def _count_calls(monkeypatch, owner, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


class TestOneSpectralStepPerState:
    def test_untrusted_mixed_state_one_eigensolve(self, monkeypatch):
        from qchain.reports import state_from_json, state_to_json
        layout = SubsystemLayout((2, 4, 8), (0, 2))
        doc = state_to_json(random_density_matrix(layout, 8, 5))
        calls = _count_calls(monkeypatch, np.linalg, ("eigvalsh", "cholesky"))
        dm = state_from_json(doc)
        results = [evaluate_measure(MeasureSpec(kind), dm)
                   for kind in ("negativity", "log_negativity", "ratio")]
        assert calls == {"eigvalsh": 1, "cholesky": 1}
        assert len({r.trace_norm for r in results}) == 1

    def test_pure_state_one_svd(self, monkeypatch):
        psi = random_haar_pure(SubsystemLayout((3, 4), (0,)), 9)
        calls = _count_calls(monkeypatch, np.linalg, ("svd",))
        for kind in ("concurrence", "g_concurrence", "ratio"):
            evaluate_measure(MeasureSpec(kind), psi)
        assert calls == {"svd": 1}


class TestBlockSpectrum:
    @staticmethod
    def _eigvalsh_shapes(monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        return shapes

    def test_fock_state_splits_into_small_blocks(self, monkeypatch):
        rho = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=40)).density_matrix()
        shapes = self._eigvalsh_shapes(monkeypatch)
        negativity(rho)
        assert shapes and all(s[-1] <= 2 for s in shapes)

    def test_irreducible_state_one_whole_eigensolve(self, monkeypatch):
        dm = random_density_matrix(SubsystemLayout((2, 4, 8), (0,)), 3, 41)
        shapes = self._eigvalsh_shapes(monkeypatch)
        negativity(dm)
        assert shapes == [(64, 64)]


class TestOneNegativityRule:
    NEGATIVITIES = [0.0, 1e-12, 0.25, 0.5, 1.0, 3.7, 1e3, 1e12]

    @pytest.mark.parametrize("kind,alpha", [("negativity", None), ("ratio", None),
                                            ("alpha_ratio", 2.5), ("ratio", 0.5),
                                            ("negativity", 3.191)])
    def test_array_equals_scalar_path(self, kind, alpha):
        # Division is exact on both paths; numpy's vectorized power may round
        # differently from the C pow that Python floats use, by at most 1 ulp.
        arr = _from_negativity(np.array(self.NEGATIVITIES), kind, alpha)
        for n, v in zip(self.NEGATIVITIES, arr):
            scalar = _from_negativity(n, kind, alpha)
            assert type(scalar) is float
            if alpha is None:
                assert float(v) == scalar
            else:
                assert abs(float(v) - scalar) <= np.spacing(scalar)

    def test_standalone_measures_use_it(self):
        psi = random_haar_pure(SubsystemLayout((3, 3), (0,)), 17)
        n = negativity(psi)
        assert ratio_negativity(psi) == n / (n + 1.0)
        assert alpha_ratio_negativity(psi, 2.5) == (n / (n + 1.0)) ** 2.5
        assert evaluate_measure(MeasureSpec("alpha_ratio", alpha=2.5), psi).value == \
            alpha_ratio_negativity(psi, 2.5)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.0])
    def test_one_alpha_rule_everywhere(self, alpha):
        from qchain.monogamy import check_ineq_xya_grid, ckw_residual, ckw_violation_state
        from qchain.swapping import tmsvs_link
        calls = [
            lambda: MeasureSpec("alpha_ratio", alpha=alpha),
            lambda: alpha_ratio_negativity(bell_state(), alpha),
            lambda: tmsvs_link(0.5).measure_value("alpha_ratio", alpha),
            lambda: check_ineq_xya_grid(0.5, 0.5, alpha, 100),
            lambda: ckw_residual(ckw_violation_state(), alpha=alpha),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                call()

    def test_mixed_state_rejected_for_each_pure_only_kind(self):
        dm = random_density_matrix(SubsystemLayout((2, 2), (0,)), 4, 21)
        for kind in ("concurrence", "g_concurrence", "scp"):
            with pytest.raises(ValueError, match=f"{kind} is only evaluated on pure states"):
                evaluate_measure(MeasureSpec(kind), dm)

    @pytest.mark.parametrize("lam", [[0.5, math.nan], [math.nan, math.nan], [1.5, -0.5]])
    def test_schmidt_vector_rule_rejects_non_distributions(self, lam):
        from qchain.swapping import qubit_link, qudit_link
        for call in (lambda: negativity_pure(lam), lambda: g_concurrence_pure(lam, 2),
                     lambda: qubit_link(lam=lam), lambda: qudit_link(lam=lam)):
            with pytest.raises(ValueError, match="Schmidt coefficients"):
                call()

    def test_schmidt_vector_length_checked(self):
        from qchain.swapping import qubit_link, qudit_link
        with pytest.raises(ValueError, match="need exactly 2"):
            qubit_link(lam=[0.5, 0.25, 0.25])
        with pytest.raises(ValueError, match="need exactly 4"):
            qudit_link(lam=[0.5, 0.25, 0.25], d=4)
        with pytest.raises(ValueError, match="need exactly 3"):
            g_concurrence_pure([0.5, 0.5], 3)
