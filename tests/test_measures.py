import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.measures import (
    MeasureSpec,
    _from_negativity,
    alpha_ratio_negativity,
    compose_ratio_tensor,
    concurrence_pure,
    evaluate_measure,
    f_negativity,
    g_concurrence_pure,
    log_negativity,
    negativity,
    pt_trace_norm,
    ratio_negativity,
    scp_pure_qubit,
    validate_f,
)
from qchain.states import (
    PSD_TOL,
    DensityMatrix,
    PureState,
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
    return (DensityMatrix(rho1, QUBIT_PAIR),
            DensityMatrix(bell, QUBIT_PAIR),
            DensityMatrix((rho1 + bell) / 2, QUBIT_PAIR))


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
        assert abs(log_negativity(st) * math.log(2) - 2 * r) < 1e-9

    @pytest.mark.parametrize("trace", [1 - 0.9e-10, 1 + 0.9e-10])
    def test_clamped_state_reads_zero(self, trace):
        # I/4 scaled to this trace has trace norm t = trace, whose negativity
        # (t - 1)/2 the clamp reads as 0: the state is PPT, and its
        # log-negativity is log2(1 + 2 * 0) = 0, not log2(t) = -+1.3e-10.
        result = evaluate_measure(MeasureSpec("log_negativity"),
                                  DensityMatrix(np.eye(4) / 4 * trace, QUBIT_PAIR))
        assert abs(math.log2(result.trace_norm)) > 1.2e-10
        assert (result.ppt, result.value) == (True, 0.0)


class TestValidateF:
    # The first grid interval, as the message prints it.
    FIRST_FALL = ("invalid f for f-negativity: f is not strictly increasing on "
                  "(np.float64(0.0), np.float64(1e-09))")

    def test_identity_ok(self):
        assert validate_f(lambda x: x) is None

    def test_ratio_generator_ok(self):
        assert validate_f(lambda x: x / (x + 1)) is None

    def test_negation_fails_immediately(self):
        with pytest.raises(ValueError, match=f"^{re.escape(self.FIRST_FALL)}$"):
            validate_f(lambda x: -x)

    def test_nonzero_origin_fails(self):
        with pytest.raises(ValueError, match=r"^invalid f for f-negativity: f\(0\) = 1\.0 != 0$"):
            validate_f(lambda x: x + 1)

    def test_constant_fails(self):
        with pytest.raises(ValueError, match=f"^{re.escape(self.FIRST_FALL)}$"):
            validate_f(lambda x: 0.0)


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


# The concave nondecreasing measures of the negativity N, each as a
# function of N: Jensen and the LOCC monotonicity of N (Vidal and Werner
# 2002) keep their average from rising under a local instrument.
CONCAVE_MEASURES = {
    "negativity": lambda n, alpha: n,
    "ratio": lambda n, alpha: n / (n + 1),
    "log_negativity": lambda n, alpha: math.log2(1 + 2 * n),
    "alpha_ratio": lambda n, alpha: (n / (n + 1)) ** alpha,
    "custom_f": lambda n, alpha: math.sqrt(n),
}


def _local_instrument(d_a, d_b, party, outcomes, seed):
    """Kraus operators M_i S^(-1/2) on one party, S = sum M_i^dag M_i, for
    random complex M_i: they resolve the identity by construction."""
    rng = np.random.default_rng(seed)
    d = (d_a, d_b)[party]
    ms = rng.standard_normal((outcomes, d, d)) + 1j * rng.standard_normal((outcomes, d, d))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", ms.conj(), ms))
    ks = ms @ (v / np.sqrt(w)) @ v.conj().T
    return [np.kron(k, np.eye(d_b)) if party == 0 else np.kron(np.eye(d_a), k) for k in ks]


class TestConcaveMeasuresAreMonotones:
    @settings(max_examples=300, deadline=None)
    @given(d_a=st.integers(2, 3), d_b=st.integers(2, 3), rank=st.integers(1, 9),
           outcomes=st.integers(2, 4), party=st.integers(0, 1),
           seed=st.integers(0, 2 ** 32 - 1), measure=st.sampled_from(sorted(CONCAVE_MEASURES)),
           alpha=st.floats(0.25, 1.0))
    def test_average_does_not_rise_under_a_local_instrument(self, d_a, d_b, rank, outcomes,
                                                           party, seed, measure, alpha):
        layout = SubsystemLayout((d_a, d_b), (0,))
        rho = random_density_matrix(layout, min(rank, d_a * d_b), seed)
        spec = MeasureSpec(measure, alpha if measure == "alpha_ratio" else 1.0,
                           math.sqrt if measure == "custom_f" else None)
        branches = apply_kraus_branches(rho, _local_instrument(d_a, d_b, party, outcomes, seed + 1))
        average = sum(p * evaluate_measure(spec, out).value for p, out in branches)
        # The clamp reads N below PSD_TOL as 0, which lowers a value by at
        # most its value at PSD_TOL; the eigensolves' rounding of N, far
        # below PSD_TOL, is covered by taking the value at 2 PSD_TOL.
        tol = CONCAVE_MEASURES[measure](2 * PSD_TOL, alpha)
        assert average <= evaluate_measure(spec, rho).value + tol


class TestRatioNegativity:
    def test_bell(self):
        assert abs(ratio_negativity(bell_state()) - 1 / 3) < 1e-10

    def test_reduced_three_qubit_state(self):
        from qchain.monogamy import ckw_violation_state
        from qchain.tensor import partial_trace
        psi = ckw_violation_state()
        rho = psi.density_matrix()
        reduced = partial_trace(rho.matrix, psi.layout, keep=[0, 1])
        dm = DensityMatrix(reduced, QUBIT_PAIR)
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
            assert (ratio_negativity(dm) == 0.0) == evaluate_measure(MeasureSpec("negativity"), dm).ppt

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
        assert abs(ratio_negativity(pure_from_schmidt([0.5, 0.5], (2, 2))) - 1 / 3) < 1e-14

    def test_ratio_lopsided_pair(self):
        # (sqrt(0.1) + sqrt(0.9))^2 = 1.6, so the value is 0.6/2.6 = 3/13.
        assert abs(ratio_negativity(pure_from_schmidt([0.9, 0.1], (2, 2))) - 3 / 13) < 1e-14

    def test_agreement_with_dense_route(self):
        rng = substream(10, 0)
        for _ in range(15):
            lam = rng.uniform(0.05, 1.0, 3)
            lam /= lam.sum()
            st = pure_from_schmidt(lam, (3, 3))
            dense = ratio_negativity(st.density_matrix())
            assert abs(ratio_negativity(st) - dense) < 1e-10

    def test_negativity_pure(self):
        assert abs(negativity(pure_from_schmidt([0.5, 0.5], (2, 2))) - 0.5) < 1e-14


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
        with pytest.raises(ValueError, match="needs a 2-qubit pure state"):
            evaluate_measure(MeasureSpec("scp"), random_haar_pure(SubsystemLayout((2, 3), (0,)), 1))


class TestPpt:
    def test_bell_is_npt(self):
        assert not evaluate_measure(MeasureSpec("ratio"), bell_state()).ppt

    def test_classical_mixture_is_ppt(self):
        rho1, _, _ = classical_bell_mixture()
        assert negativity(rho1) == 0.0
        assert evaluate_measure(MeasureSpec("ratio"), rho1).ppt

    def test_separable_mixture_is_ppt(self):
        rng = substream(16, 0)
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(5):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            rho += kron(np.outer(a, a.conj()) / np.vdot(a, a).real,
                        np.outer(b, b.conj()) / np.vdot(b, b).real)
        rho /= np.real(np.trace(rho))
        assert negativity(DensityMatrix(rho, QUBIT_PAIR)) == 0.0


class TestTensorComposition:
    def test_two_factor_identity_random_pairs(self):
        layout = SubsystemLayout((2, 2, 2, 2), (0, 2))
        for i in range(40):
            r1 = random_density_matrix(QUBIT_PAIR, 4, substream(18, 2 * i))
            r2 = random_density_matrix(QUBIT_PAIR, 4, substream(18, 2 * i + 1))
            chi1, chi2 = ratio_negativity(r1), ratio_negativity(r2)
            product = DensityMatrix(kron(r1.matrix, r2.matrix), layout)
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
        dense = ratio_negativity(DensityMatrix(big, layout))
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

    @pytest.mark.parametrize("kind,kwargs,message", [
        ("ratio", {"alpha": 3.0}, "alpha 3.0 applies only to the alpha_ratio measure; 'ratio'"),
        ("concurrence", {"alpha": math.nan}, "alpha nan applies only to the alpha_ratio measure"),
        ("negativity", {"f": lambda x: x * x}, "f applies only to the custom_f measure; 'negativity'"),
        ("alpha_ratio", {"alpha": 2.0, "f": lambda x: x}, "f applies only to the custom_f measure"),
    ], ids=["ratio-alpha", "concurrence-alpha-nan", "negativity-f", "alpha_ratio-f"])
    def test_ignored_arguments_refused(self, kind, kwargs, message):
        # Each would be silently dropped by evaluate_measure.
        with pytest.raises(ValueError, match=re.escape(message)):
            MeasureSpec(kind, **kwargs)


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
        assert negativity(st) != 0.0
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
        with pytest.raises(ValueError, match="custom_f requires a function handle"):
            MeasureSpec("custom_f")
        with pytest.raises(ValueError, match=re.escape("invalid f for f-negativity: f(0.0) is not finite")):
            MeasureSpec("custom_f", f=lambda x: x if x else math.nan)


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
        from qchain.swapping import chain_compose, tmsvs_link
        calls = [
            lambda: MeasureSpec("alpha_ratio", alpha=alpha),
            lambda: alpha_ratio_negativity(bell_state(), alpha),
            lambda: chain_compose([tmsvs_link(0.5)], "alpha_ratio", alpha).per_hop[0],
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
        for call in (lambda: scp_pure_qubit(lam), lambda: g_concurrence_pure(lam, 2),
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

    def test_one_unit_weight_rule_for_schmidt_vectors(self):
        """States and links take one sum rule, TRACE_TOL: a pair 5e-11
        heavy is accepted everywhere and its links read 1, a pair 2e-10
        heavy is refused everywhere."""
        from qchain.states import pure_from_schmidt
        from qchain.swapping import qubit_link, qudit_link
        heavy = [0.5, 0.5 + 5e-11]
        assert np.allclose(pure_from_schmidt(heavy, (2, 2)).schmidt_coefficients, heavy[::-1])
        assert g_concurrence_pure(heavy, 2) == 1.0
        assert qudit_link(lam=heavy).native_value == 1.0
        assert qubit_link(lam=heavy).native_value == 1.0
        too_heavy = [0.5, 0.5 + 2e-10]
        for call in (lambda: pure_from_schmidt(too_heavy, (2, 2)), lambda: qudit_link(lam=too_heavy),
                     lambda: qubit_link(lam=too_heavy), lambda: g_concurrence_pure(too_heavy, 2)):
            with pytest.raises(ValueError, match="must sum to 1"):
                call()


NEGATIVITY_KINDS = ("negativity", "log_negativity", "ratio", "alpha_ratio")


@st.composite
def low_rank_pure_states(draw):
    """A pure state over 2-3 parties of dimension 2-4 with party A a proper
    subset, whose A|B Schmidt rank is drawn (rank 1 gives a product state,
    where the clamp decides the value)."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)))
    party_a = tuple(sorted(draw(st.sets(st.integers(0, len(dims) - 1),
                                        min_size=1, max_size=len(dims) - 1))))
    layout = SubsystemLayout(dims, party_a)
    rank = draw(st.integers(1, min(layout.dim_a, layout.dim_b)))
    rng = substream(draw(st.integers(0, 2 ** 32)), 0)
    left = rng.standard_normal((layout.dim_a, rank)) + 1j * rng.standard_normal((layout.dim_a, rank))
    right = rng.standard_normal((rank, layout.dim_b)) + 1j * rng.standard_normal((rank, layout.dim_b))
    amps_ab = left @ right
    # Scatter the A|B matrix back to the layout's subsystem order.
    order = list(party_a) + [i for i in range(len(dims)) if i not in party_a]
    amps = amps_ab.reshape([dims[i] for i in order]).transpose(np.argsort(order)).reshape(-1)
    return PureState(amps / np.linalg.norm(amps), layout)


@settings(max_examples=60, deadline=None)
@given(psi=low_rank_pure_states(), alpha=st.floats(0.25, 4.0))
def test_schmidt_and_dense_routes_agree(psi, alpha):
    # The Schmidt route reads the singular values of the amplitude matrix;
    # the dense route takes the spectrum of the partial-transposed projector.
    rho = psi.density_matrix()
    for kind in NEGATIVITY_KINDS:
        spec = MeasureSpec(kind, alpha=alpha) if kind == "alpha_ratio" else MeasureSpec(kind)
        pure, dense = evaluate_measure(spec, psi), evaluate_measure(spec, rho)
        assert abs(pure.value - dense.value) < 1e-10, kind
        assert abs(pure.trace_norm - dense.trace_norm) < 1e-10, kind


@st.composite
def mixed_pairs(draw):
    pair = []
    for _ in range(2):
        dims = (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
        rank = draw(st.integers(1, dims[0] * dims[1]))
        seed = draw(st.integers(0, 2 ** 32))
        pair.append(random_density_matrix(SubsystemLayout(dims, (0,)), rank, substream(seed, 0)))
    return pair


@settings(max_examples=40, deadline=None)
@given(pair=mixed_pairs())
def test_odds_product_rule_on_dense_tensor_products(pair):
    # A on the first factor of each state: (a1, b1, a2, b2), party A = (0, 2).
    r1, r2 = pair
    layout = SubsystemLayout(r1.layout.dims + r2.layout.dims, (0, 2))
    product = DensityMatrix(kron(r1.matrix, r2.matrix), layout)
    chis = [ratio_negativity(r1), ratio_negativity(r2)]
    assert abs(ratio_negativity(product) - compose_ratio_tensor(chis)) < 1e-10


def _one_measure_states():
    """150 seeded pure, mixed and truncated squeezed states, and two edge cases."""
    layouts = [SubsystemLayout(d, a) for d, a in [((2, 2), (0,)), ((2, 3), (0,)), ((3, 3), (1,)),
                                                  ((2, 2, 2), (0, 2)), ((4, 4), (0,))]]
    for i in range(150):
        layout = layouts[i % len(layouts)]
        if i % 3 == 0:
            yield random_haar_pure(layout, i)
        elif i % 3 == 1:
            yield random_density_matrix(layout, 1 + i % layout.dim, i)
        else:
            yield tmsvs_truncated(TmsvsSpec.from_r(0.05 + 0.01 * i, None if i % 2 else 60))
    yield bell_state()
    yield pure_from_schmidt([1.0], (2, 2))


def test_one_measure_functions_follow_the_clamp_rule():
    # Each one-measure function is evaluate_measure's value, which follows
    # from the trace norm t through the one clamp, bit for bit.
    f = lambda x: x * x + 2.0 * x
    for i, state in enumerate(_one_measure_states()):
        t = pt_trace_norm(state)
        n = (t - 1.0) / 2.0
        n = n if n >= PSD_TOL else 0.0
        alpha = 0.5 + t % 1.0
        assert negativity(state) == n, i
        assert log_negativity(state) == math.log2(1.0 + 2.0 * n), i
        assert ratio_negativity(state) == n / (n + 1.0), i
        assert alpha_ratio_negativity(state, alpha) == (n / (n + 1.0)) ** alpha, i
        assert f_negativity(f, state) == f(n), i
