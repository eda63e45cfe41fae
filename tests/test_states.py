import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qchain import states
from qchain.groupop import CompositionLaw, check_group_operation
from qchain.measures import MeasureSpec, evaluate_measure, negativity, ratio_negativity
from qchain.monogamy import ckw_residual, sample_monogamy_scan
from qchain.reports import state_from_json, state_to_json
from qchain.swapping import chain_fock_crosscheck
from qchain.states import (
    PSD_TOL,
    DensityMatrix,
    PureState,
    TmsvsSpec,
    apply_kraus_branches,
    bell_state,
    cutoff_for_amplitude_tail,
    default_cutoff,
    haar_amplitude_rows,
    pure_from_schmidt,
    random_density_matrix,
    random_haar_pure,
    require_unit_density,
    substream,
    tmsvs_truncated,
)
from qchain.tensor import (
    TRACE_TOL,
    SubsystemLayout,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm_hermitian,
)

from conftest import REFUSED_REAL_MATRICES, charpoly_eigenvalues, dense_partial_transpose

QUBIT_PAIR = SubsystemLayout((2, 2), (0,))


def pt_negativity_oracle(state: PureState) -> float:
    """Negativity through the dense charpoly route (independent of the
    library's eigensolver and Schmidt fast paths); 4x4 only."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    pt = dense_partial_transpose(rho, 2, 2)
    eigs = charpoly_eigenvalues(pt)
    return (np.sum(np.abs(eigs)) - 1) / 2


class TestBell:
    def test_schmidt_coefficients(self):
        assert np.allclose(bell_state().schmidt_coefficients, [0.5, 0.5])

    def test_negativity_via_oracle(self):
        assert abs(pt_negativity_oracle(bell_state()) - 0.5) < 1e-10

    def test_ratio_negativity_value(self):
        n = pt_negativity_oracle(bell_state())
        assert abs(n / (n + 1) - 1 / 3) < 1e-10


class TestPureFromSchmidt:
    def test_product_state(self):
        st = pure_from_schmidt([1.0], (2, 2))
        assert abs(pt_negativity_oracle(st)) < 1e-12

    def test_lopsided_pair_amplitudes(self):
        st = pure_from_schmidt([0.1, 0.9], (2, 2))
        assert abs(st.amplitudes[0] - math.sqrt(0.1)) < 1e-15
        assert abs(st.amplitudes[3] - math.sqrt(0.9)) < 1e-15

    def test_uniform_qutrit(self):
        st = pure_from_schmidt([1 / 3] * 3, (3, 3))
        lam = st.schmidt_coefficients
        from qchain.measures import g_concurrence_pure
        assert abs(g_concurrence_pure(lam, 3) - 1.0) < 1e-12

    @pytest.mark.parametrize("lam,dims", [
        ([0.5, 0.6], (2, 2)),       # does not sum to 1
        ([0.5, 0.5, 0.0], (2, 2)),  # too many coefficients, zero entry
        ([1.5, -0.5], (2, 2)),      # negative entry
        ([0.5, 0.5], (2, 2, 7)),    # more than two parties
    ])
    def test_rejects_invalid(self, lam, dims):
        with pytest.raises(ValueError):
            pure_from_schmidt(lam, dims)

    def test_roundtrip_with_schmidt_decompose(self):
        lam = np.array([0.6, 0.3, 0.1])
        st = pure_from_schmidt(lam, (3, 3))
        back = np.sort(st.schmidt_coefficients)[::-1]
        assert np.allclose(back, lam, atol=1e-10)


class TestTmsvs:
    def test_unit_norm_and_deficit(self):
        spec = TmsvsSpec.from_r(0.8, cutoff=30)
        st = tmsvs_truncated(spec)
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
        chi = math.tanh(0.8)
        assert abs(st.truncation_deficit - chi ** 62) < 1e-18

    def test_ratio_negativity_within_amplitude_tail(self):
        # The truncation error of the ratio negativity is bounded by the
        # amplitude tail chi^(cutoff+1) (the probability deficit is its
        # square and underestimates the effect).
        for r, cutoff in [(1.0, 60), (0.5, 40), (1.5, 100)]:
            chi = math.tanh(r)
            st = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff))
            s = np.sum(np.sqrt(st.schmidt_coefficients)) ** 2
            value = (s - 1) / (s + 1)
            assert abs(value - chi) <= chi ** (cutoff + 1)
            assert value < chi  # truncation only ever loses entanglement

    def test_negativity_analytic_small_r(self):
        st = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=40))
        s = np.sum(np.sqrt(st.schmidt_coefficients)) ** 2
        assert abs((s - 1) / 2 - (math.e - 1) / 2) < 1e-9

    def test_vacuum_limit(self):
        st = tmsvs_truncated(TmsvsSpec.from_r(1e-8))
        s = np.sum(np.sqrt(st.schmidt_coefficients)) ** 2
        assert (s - 1) / 2 < 1e-7

    def test_refuses_lossy_cutoff(self):
        with pytest.raises(ValueError, match="probability weight"):
            tmsvs_truncated(TmsvsSpec.from_r(1.5, cutoff=1))

    def test_monotone_convergence_with_cutoff(self):
        # Growing the cutoff only adds entanglement, and the step from
        # cutoff c to c+10 is bounded by e^{2r} (chi^{c+1} - chi^{c+11}).
        r, chi = 1.0, math.tanh(1.0)
        values = []
        for cutoff in (30, 40, 50, 60):
            st = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff))
            s = np.sum(np.sqrt(st.schmidt_coefficients)) ** 2
            values.append((s - 1) / 2)
        assert all(b > a for a, b in zip(values, values[1:]))
        for cutoff, (a, b) in zip((30, 40, 50), zip(values, values[1:])):
            bound = math.exp(2 * r) * (chi ** (cutoff + 1) - chi ** (cutoff + 11))
            assert b - a <= bound * (1 + 1e-12)

    def test_default_cutoff_rule(self):
        spec = TmsvsSpec.from_r(0.5)
        assert spec.truncation_deficit < 1e-12
        assert default_cutoff(math.tanh(0.5) ) == spec.cutoff
        assert default_cutoff(math.tanh(1.5)) == 128  # capped

    def test_cutoff_for_amplitude_tail(self):
        chi = math.tanh(1.0)
        c = cutoff_for_amplitude_tail(chi, 1e-10)
        assert chi ** (c + 1) <= 1e-10 < chi ** c

    @settings(max_examples=300, deadline=None)
    @given(chi=st.floats(0.01, 0.99), k=st.integers(1, 39),
           scale=st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
    @example(chi=0.5, k=29, scale=1.0)
    def test_cutoff_for_amplitude_tail_is_the_smallest(self, chi, k, scale):
        # Brute force over the same float test; at chi = 0.5 and tail
        # 0.5^29 the log estimate alone gave 29, though 28 passes.
        tail = scale * chi ** k
        n = 1
        while chi ** (n + 1) > tail:
            n += 1
        assert cutoff_for_amplitude_tail(chi, tail) == n

    def test_cutoffs_in_use_are_unchanged(self):
        # The tmsvs-ratio fixture's cutoffs and the default cutoff at r = 1.
        assert [cutoff_for_amplitude_tail(math.tanh(r), 1e-10) for r in (0.1, 0.5, 1.0, 1.5)] == \
            [9, 29, 84, 231]
        assert default_cutoff(math.tanh(1.0)) == 50

    @pytest.mark.parametrize("chi", [1.0, 0.0, -0.5, 1.5])
    def test_cutoff_for_amplitude_tail_refuses_chi_outside_unit_interval(self, chi):
        with pytest.raises(ValueError, match="chi must lie in"):
            cutoff_for_amplitude_tail(chi, 1e-10)

    def test_cutoff_for_amplitude_tail_refuses_tail_outside_unit_interval(self):
        with pytest.raises(ValueError, match=re.escape("tail must lie in (0, 1)")):
            cutoff_for_amplitude_tail(0.5, 1.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TmsvsSpec.from_r(-1.0)
        with pytest.raises(ValueError, match="chi = tanh r must lie below 1"):
            TmsvsSpec(r=20.0, cutoff=5)
        # tanh 20 rounds to 1, where the default cutoff would divide by log 1.
        with pytest.raises(ValueError, match="chi = tanh r must lie below 1"):
            TmsvsSpec.from_r(20)
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            TmsvsSpec(r=1.0, cutoff=0)

    @pytest.mark.parametrize("cutoff", [3_037_000_499, 2 ** 63, int(1e308), 10 ** 400],
                             ids=["3037000499", "2^63", "1e308", "10^400"])
    def test_cutoff_beyond_any_array_refused(self, cutoff):
        # (cutoff + 1)^2 amplitudes above sys.maxsize fit no array; the largest
        # cutoff left has a deficit that is a float.
        assert TmsvsSpec(r=1.0, cutoff=3_037_000_498).truncation_deficit == 0.0
        with pytest.raises(ValueError, match=f"cutoff must be at most 3037000498, got {cutoff}$"):
            TmsvsSpec(r=1.0, cutoff=cutoff)

    def test_chi_is_tanh_r(self):
        # chi is derived, so a spec cannot label one state with another's r.
        assert TmsvsSpec(r=0.3, cutoff=5).chi == math.tanh(0.3)
        with pytest.raises(TypeError):
            TmsvsSpec(r=1.0, chi=0.3, cutoff=5)


class TestRandomStates:
    def test_haar_deterministic_under_seed(self):
        a = random_haar_pure(QUBIT_PAIR, 42)
        b = random_haar_pure(QUBIT_PAIR, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_haar_mean_negativity_interval(self):
        # Monte-Carlo oracle pinned once: the mean two-qubit pure-state
        # negativity sits near 0.29, comfortably inside (0.2, 0.4).
        total = 0.0
        n = 10_000
        for i in range(n):
            st = random_haar_pure(QUBIT_PAIR, substream(7, i))
            lam = st.schmidt_coefficients
            total += math.sqrt(lam[0] * lam[1])
        assert 0.2 < total / n < 0.4

    def test_haar_marginal_is_maximally_mixed(self):
        n = 2000
        acc = np.zeros((2, 2), dtype=complex)
        sq_acc = np.zeros((2, 2))
        for i in range(n):
            st = random_haar_pure(QUBIT_PAIR, substream(11, i))
            rho = np.outer(st.amplitudes, st.amplitudes.conj())
            marg = partial_trace(rho, QUBIT_PAIR, keep=[0])
            acc += marg
            sq_acc += np.abs(marg) ** 2
        mean = acc / n
        std_err = np.sqrt(np.maximum(sq_acc / n - np.abs(mean) ** 2, 0)) / math.sqrt(n)
        assert np.all(np.abs(mean - np.eye(2) / 2) <= 5 * std_err + 1e-12)

    def test_rank_one_is_pure(self):
        dm = random_density_matrix(QUBIT_PAIR, rank=1, seed=3)
        assert abs(np.trace(dm.matrix @ dm.matrix).real - 1.0) < 1e-10

    def test_full_rank_valid(self):
        dm = random_density_matrix(QUBIT_PAIR, rank=4, seed=5)
        dm.validate()
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-12

    def test_separable_mixture_is_ppt(self):
        rng = substream(9, 0)
        layout = SubsystemLayout((2, 2), (0,))
        rho = np.zeros((4, 4), dtype=complex)
        for _ in range(6):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            rho += kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        rho /= np.real(np.trace(rho))
        pt = dense_partial_transpose(rho, 2, 2)
        assert np.linalg.eigvalsh(pt)[0] >= -1e-10

    @pytest.mark.parametrize("dims", [(4, 4), (16, 16), (2, 16, 32)])
    @pytest.mark.parametrize("seed", range(5))
    def test_wishart_bits_match_the_symmetrization_formula(self, dims, seed):
        layout = SubsystemLayout(dims, (0,))
        rng = substream(seed, 0)
        g = rng.standard_normal((layout.dim, 8)) + 1j * rng.standard_normal((layout.dim, 8))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        want = (rho + rho.conj().T) / 2
        got = random_density_matrix(layout, 8, seed).matrix
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build,seed", [
        (random_haar_pure, 2.7), (random_haar_pure, True),
        (lambda layout, seed: random_density_matrix(layout, 2, seed), 3.9),
    ], ids=["haar-2.7", "haar-True", "wishart-3.9"])
    def test_non_integer_seed_refused(self, build, seed):
        # Each was truncated by int(): 2.7 gave seed 2, True seed 1, 3.9 seed 3.
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            build(QUBIT_PAIR, seed)

    def test_numpy_integer_and_generator_seeds_accepted(self):
        want = random_haar_pure(QUBIT_PAIR, 2).amplitudes
        assert np.array_equal(random_haar_pure(QUBIT_PAIR, np.int64(2)).amplitudes, want)
        assert np.array_equal(random_haar_pure(QUBIT_PAIR, substream(2, 0)).amplitudes, want)
        want = random_density_matrix(QUBIT_PAIR, 2, 3).matrix
        assert np.array_equal(random_density_matrix(QUBIT_PAIR, 2, np.uint32(3)).matrix, want)
        assert np.array_equal(random_density_matrix(QUBIT_PAIR, 2, substream(3, 0)).matrix, want)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            random_density_matrix(QUBIT_PAIR, rank=0, seed=1)
        with pytest.raises(ValueError):
            random_density_matrix(QUBIT_PAIR, rank=5, seed=1)

    def test_substreams_are_order_independent(self):
        late = substream(123, 77).standard_normal(4)
        for i in range(5):
            substream(123, i).standard_normal(4)
        again = substream(123, 77).standard_normal(4)
        assert np.array_equal(late, again)
        assert not np.array_equal(substream(123, 1).standard_normal(4),
                                  substream(123, 2).standard_normal(4))

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 123])
    @pytest.mark.parametrize("start", [0, 77, 2**32 + 5, 2**64 - 3, 2**64 - 1])
    def test_rekeyed_generator_matches_substream(self, seed, start):
        # Row j is re-keyed in place from one shared state dict; it must
        # equal a fresh substream(seed, start + j), byte for byte, including
        # across the 64-bit wrap of the index word.
        dim = 5
        rows = haar_amplitude_rows(dim, seed, range(start, start + 4))
        for j, row in enumerate(rows):
            fresh = substream(seed, start + j)
            v = fresh.standard_normal(dim) + 1j * fresh.standard_normal(dim)
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            assert row.tobytes() == v.tobytes()

    def test_amplitude_rows_build_one_generator(self, monkeypatch):
        calls = []

        def counted(seed, index):
            calls.append((seed, index))
            return substream(seed, index)

        monkeypatch.setattr(states, "substream", counted)
        assert haar_amplitude_rows(4, 9, range(10, 60)).shape == (50, 4)
        assert calls == [(9, 0)]


def scaled_pair_and_triple(k):
    """A qubit pair's and three qubits' amplitudes with |psi|^2 = 1 + k TRACE_TOL."""
    scale = math.sqrt(1.0 + k * TRACE_TOL)
    amps = np.array([0.5, 0.1, 0.1, 0.3, 0.2, 0.4, 0.1, 0.2])
    return np.array([0.6, 0, 0, 0.8]) * scale, amps / np.linalg.norm(amps) * scale


QUTRIT_PAIR = SubsystemLayout((3, 3), (0,))
# A local filter on party A of a 3 x 3 state, as two Kraus operators.
QUTRIT_FILTERS = [kron(np.diag(np.sqrt(w)), np.eye(3)) for w in ([0.8, 0.2, 0.5], [0.2, 0.8, 0.5])]


def edge_qutrit_pair(index, weight, seed=101):
    """Haar amplitudes on 3 x 3 from substream(seed, index), rescaled to
    |psi|^2 = 1 + weight TRACE_TOL."""
    amps = random_haar_pure(QUTRIT_PAIR, substream(seed, index)).amplitudes
    return PureState(amps * math.sqrt(1.0 + weight * TRACE_TOL), QUTRIT_PAIR)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**16), weight=st.floats(-1.0, 1.0))
@example(seed=101, index=1, weight=1.0)
@example(seed=101, index=41, weight=-1.0)
def test_accepted_amplitudes_build_every_density_matrix(seed, index, weight):
    """Whenever PureState accepts amplitudes within TRACE_TOL of unit
    weight, their density matrix and a Kraus split both build."""
    try:
        psi = edge_qutrit_pair(index, weight, seed)
    except ValueError:
        assume(False)
    assert psi.density_matrix().layout == QUTRIT_PAIR
    assert len(apply_kraus_branches(psi, QUTRIT_FILTERS)) == 2


class TestValidation:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 1.0, 0, 0]), QUBIT_PAIR)

    # Seeded Haar vectors rescaled to |psi|^2 = 1 - ~1e-10: the constructor
    # accepts them, and the sums derived from them round past TRACE_TOL.
    EDGE_PAIR = [0.7776395623094285, 0, 0, 0.6287103554349973]
    EDGE_TRIPLE = [0.08821050716464708 - 0.08655247758301116j, 0.2546806116788151 - 0.04475088806673275j,
                   -0.37471194592565565 + 0.0011970622906195406j, -0.4653806049803227 + 0.3091602272880877j,
                   0.14348078052294935 + 0.15079858257074366j, -0.22526654814572858 - 0.33365950318557086j,
                   -0.11754939868031437 - 0.06106946265075878j, 0.40980554474460923 - 0.27277194949190325j]

    @pytest.mark.parametrize("pair,triple", [
        pytest.param(*scaled_pair_and_triple(0.9), id="0.9"),
        pytest.param(*scaled_pair_and_triple(-0.9), id="-0.9"),
        pytest.param(EDGE_PAIR, None, id="edge_pair"),
        pytest.param(None, EDGE_TRIPLE, id="edge_triple"),
    ])
    def test_accepted_weight_passes_every_path(self, pair, triple):
        # A state the constructor accepts passes every later path. Only its
        # amplitudes are checked: Schmidt coefficients and reduced states
        # derived from them are not checked again, as their sums round
        # differently (g_concurrence refused EDGE_PAIR, and ckw_residual
        # EDGE_TRIPLE, when they were).
        if pair is not None:
            pair = PureState(np.array(pair), QUBIT_PAIR)
            for kind in ("negativity", "concurrence", "g_concurrence", "scp"):
                evaluate_measure(MeasureSpec(kind), pair)
            pair.density_matrix()
        if triple is not None:
            triple = PureState(np.array(triple), SubsystemLayout((2, 2, 2), (0,)))
            triple.density_matrix()
            ckw_residual(triple)

    @pytest.mark.parametrize("index,sign,value", [(1, 1, 0.6192480779780176),
                                                  (41, -1, 0.4145767107183075)])
    def test_edge_weight_builds_a_density_matrix(self, index, sign, value):
        # Haar 3 x 3 amplitudes at |psi|^2 = 1 +- 1e-10: the constructor
        # accepts them, and the trace of |psi><psi| rounds past TRACE_TOL
        # (1.0000000001 and 0.9999999999), so checking it again refused them.
        psi = edge_qutrit_pair(index, sign)
        assert abs(negativity(psi) - value) < 1e-12
        rho = psi.density_matrix()
        assert abs(np.trace(rho.matrix) - 1.0) > TRACE_TOL
        assert negativity(rho) == pytest.approx(negativity(psi), abs=1e-9)
        branches = apply_kraus_branches(psi, QUTRIT_FILTERS)
        assert len(branches) == 2 and abs(sum(p for p, _ in branches) - 1.0) < 1e-9

    @pytest.mark.parametrize("k", [1.1, -1.1])
    def test_weight_beyond_trace_tol_is_refused(self, k):
        amps = np.array([0.6, 0, 0, 0.8]) * math.sqrt(1.0 + k * TRACE_TOL)
        with pytest.raises(ValueError, match=r"not normalized: \|psi\|\^2 = "):
            PureState(amps, QUBIT_PAIR)

    def test_amplitude_count_must_match_layout(self):
        with pytest.raises(ValueError, match="amplitude count 3 != layout dimension 4"):
            PureState(np.array([0.6, 0.0, 0.8]), QUBIT_PAIR)

    def test_negative_truncation_deficit_refused(self):
        for deficit in (-1e-3, math.nan, math.inf):
            message = re.escape(f"truncation_deficit must be finite and >= 0, got {deficit!r}")
            with pytest.raises(ValueError, match=message):
                PureState(bell_state().amplitudes, QUBIT_PAIR, deficit)
            with pytest.raises(ValueError, match=message):
                DensityMatrix(np.eye(4) / 4, QUBIT_PAIR, deficit)

    def test_density_matrix_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4, dtype=complex), QUBIT_PAIR)

    def test_density_matrix_psd_enforced(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(m, QUBIT_PAIR)

    def test_density_matrix_hermiticity_enforced(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, QUBIT_PAIR)

    def test_amplitudes_frozen(self):
        st = bell_state()
        with pytest.raises(ValueError):
            st.amplitudes[0] = 1.0

    def test_cached_schmidt_arrays_frozen(self):
        psi = random_haar_pure(SubsystemLayout((2, 3), (0,)), 4)
        lam = psi.schmidt_coefficients
        assert psi.schmidt_coefficients is lam
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(AttributeError):
            psi.schmidt_coefficients = lam.copy()


class TestPsdCheck:
    def test_negative_eigenvalue_named(self):
        m = np.diag([0.6, 0.4 + 10 * PSD_TOL, 0.0, -10 * PSD_TOL]).astype(complex)
        with pytest.raises(ValueError, match=r"negative eigenvalue -1\.000e-09"):
            DensityMatrix(m, QUBIT_PAIR)

    def test_rank_deficient_accepted(self):
        psi = random_haar_pure(SubsystemLayout((3, 3), (0,)), 6)
        DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.layout)
        dm = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), QUBIT_PAIR)
        dm.validate(0.0)

    @pytest.mark.parametrize("tol", [math.nan, -1e-10, math.inf])
    def test_tolerance_must_be_finite_nonnegative(self, tol):
        dm = DensityMatrix(np.eye(4, dtype=complex) / 4, QUBIT_PAIR)
        with pytest.raises(ValueError, match="psd_tol"):
            dm.validate(tol)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 6), k=st.floats(-1.0, 3.0), log_tol=st.floats(-10.0, -3.0),
       seed=st.integers(0, 2**32 - 1))
@example(d=2, k=0.99, log_tol=-10.0, seed=0)
@example(d=2, k=1.01, log_tol=-10.0, seed=0)
def test_cholesky_check_matches_eigenvalue_rule(d, k, log_tol, seed):
    """validate() rejects exactly when the smallest eigenvalue is below
    -psd_tol, away from a rounding band around -psd_tol."""
    tol = 10.0 ** log_tol
    rng = substream(seed, 0)
    n = 2 * d
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = rng.uniform(0.0, 1.0, n)
    w[0] = -k * tol
    w[1:] *= (1.0 - w[0]) / w[1:].sum()
    rho = (q * w) @ q.conj().T
    rho = (rho + rho.conj().T) / 2
    smallest = np.linalg.eigvalsh(rho)[0]
    assume(abs(smallest + tol) >= 1e-3 * tol)
    dm = states._built(rho, SubsystemLayout((2, d), (0,)))
    try:
        dm.validate(tol)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (smallest >= -tol)


class TestKrausBranches:
    def test_requires_completeness(self):
        half = np.eye(4, dtype=complex) * 0.5
        with pytest.raises(ValueError, match="identity"):
            apply_kraus_branches(bell_state(), [half])

    def test_completeness_is_absolute_not_relative(self):
        # sum K^dag K = diag(1 + 5e-6, 1) x I: within a relative 1e-5, but
        # 5e-6 off the identity, so the branch probabilities would sum to
        # 1.0000025.
        k1 = kron(np.diag([math.sqrt(0.5 + 5e-6), math.sqrt(0.5)]), np.eye(2))
        k2 = kron(np.diag([math.sqrt(0.5), math.sqrt(0.5)]), np.eye(2))
        with pytest.raises(ValueError, match="identity"):
            apply_kraus_branches(bell_state(), [k1, k2])
        k1 = kron(np.diag([math.sqrt(0.5 + 5e-11), math.sqrt(0.5)]), np.eye(2))
        assert len(apply_kraus_branches(bell_state(), [k1, k2])) == 2

    def test_operators_read_once(self):
        # A generator of operators once passed the completeness check and
        # then yielded no branches.
        m1 = np.diag([math.sqrt(0.8), math.sqrt(0.2)])
        m2 = np.diag([math.sqrt(0.2), math.sqrt(0.8)])
        ops = [kron(m, np.eye(2)) for m in (m1, m2)]
        expected = apply_kraus_branches(bell_state(), ops)
        assert len(expected) == 2
        for kraus_ops in (tuple(ops), (k for k in ops)):
            branches = apply_kraus_branches(bell_state(), kraus_ops)
            assert [p for p, _ in branches] == [p for p, _ in expected]
            for (_, out), (_, ref) in zip(branches, expected, strict=True):
                assert np.array_equal(out.matrix, ref.matrix)

    @pytest.mark.parametrize("op", [np.eye(2), np.eye(8), np.ones((4, 2)) / 2, np.eye(4)[None]],
                             ids=["2x2", "8x8", "4x2", "1x4x4"])
    def test_operator_shape_named(self, op):
        # Each was refused with numpy's broadcast or gufunc message, which
        # named neither the operator nor the state dimension.
        message = f"Kraus operator 0 has shape {op.shape}; the state has dimension 4"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_kraus_branches(bell_state(), [op])

    def test_zero_probability_branch_left_out(self):
        # |00> measured on qubit 0: the outcome 1 has probability 0.
        p0 = kron(np.diag([1.0, 0.0]), np.eye(2))
        p1 = kron(np.diag([0.0, 1.0]), np.eye(2))
        ket00 = PureState(np.array([1.0, 0.0, 0.0, 0.0]), QUBIT_PAIR)
        [(p, out)] = apply_kraus_branches(ket00, [p0, p1])
        assert p == 1.0
        assert np.array_equal(out.matrix, ket00.density_matrix().matrix)

    def test_projective_measurement_on_bell(self):
        p0 = kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2))
        p1 = kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2))
        branches = apply_kraus_branches(bell_state(), [p0, p1])
        assert len(branches) == 2
        for p, out in branches:
            assert abs(p - 0.5) < 1e-12
            assert abs(np.trace(out.matrix @ out.matrix).real - 1.0) < 1e-12


class TestRequireUnitDensity:
    def stack(self, n=6):
        rng = np.random.default_rng(5)
        return np.stack([random_density_matrix(QUBIT_PAIR, 3, rng).matrix for _ in range(n)])

    def test_accepts_single_matrix_and_stack(self):
        stack = self.stack()
        assert require_unit_density(stack[0]) is not None
        assert require_unit_density(stack).shape == stack.shape
        assert require_unit_density(stack.reshape(2, 3, 4, 4)).shape == (2, 3, 4, 4)

    def test_rejects_stack_with_one_wrong_trace(self):
        stack = self.stack()
        stack[4] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"reduced state trace \(1\.0000"):
            require_unit_density(stack, "reduced state")

    def test_rejects_stack_with_one_non_hermitian_matrix(self):
        stack = self.stack()
        stack[2, 1, 3] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            require_unit_density(stack)

    def test_trace_tolerance_edge(self):
        stack = self.stack(2)
        stack[1, 0, 0] += 5e-11
        require_unit_density(stack)
        stack[1, 0, 0] += 1e-10
        with pytest.raises(ValueError, match="trace"):
            require_unit_density(stack)


def test_untrusted_density_matrix_is_checked_once(monkeypatch):
    import qchain.states as states_mod
    import qchain.tensor as tensor_mod
    from qchain.measures import MeasureSpec, evaluate_measure

    layout = SubsystemLayout((8, 8), (0,))
    rho = random_density_matrix(layout, 64, seed=9).matrix
    checked = []
    original = tensor_mod.require_hermitian

    def counting(m, *args):
        checked.append(np.shape(m))
        return original(m, *args)

    # Patched in each module that looks the name up.
    monkeypatch.setattr(states_mod, "require_hermitian", counting)
    monkeypatch.setattr(tensor_mod, "require_hermitian", counting)
    state = DensityMatrix(rho, layout)
    values = [evaluate_measure(MeasureSpec(kind=kind), state).value
              for kind in ("negativity", "log_negativity", "ratio")]
    assert checked == [(64, 64)]
    assert all(math.isfinite(v) for v in values)


class TestChecksRunOnce:
    """A state this package builds is not checked; a caller's matrix and a
    file's are each checked once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        unit, validate = states.require_unit_density, DensityMatrix.validate

        def counting_unit(m, *args):
            calls.append("require_unit_density")
            return unit(m, *args)

        def counting_validate(self, psd_tol=PSD_TOL):
            calls.append(("validate", psd_tol))
            return validate(self, psd_tol)

        monkeypatch.setattr(states, "require_unit_density", counting_unit)
        monkeypatch.setattr(DensityMatrix, "validate", counting_validate)
        return calls

    @pytest.mark.parametrize("build", [
        lambda: random_density_matrix(SubsystemLayout((4, 4), (0,)), 3, seed=1),
        lambda: random_haar_pure(QUTRIT_PAIR, 5).density_matrix(),
        lambda: tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=6)).density_matrix(),
        lambda: apply_kraus_branches(random_haar_pure(QUTRIT_PAIR, 5), QUTRIT_FILTERS),
        lambda: apply_kraus_branches(random_density_matrix(QUTRIT_PAIR, 2, seed=2), QUTRIT_FILTERS),
        lambda: chain_fock_crosscheck(0.5, 5, 40),
    ], ids=["wishart", "complex_pure", "real_pure", "kraus_pure", "kraus_mixed", "fock"])
    def test_package_built_states_are_not_checked(self, calls, build):
        build()
        assert calls == []

    def test_public_constructor_checks_once(self, calls):
        m = random_density_matrix(QUTRIT_PAIR, 3, seed=4).matrix
        calls.clear()
        DensityMatrix(m, QUTRIT_PAIR)
        assert calls == ["require_unit_density", ("validate", PSD_TOL)]

    @pytest.mark.parametrize("psd_tol", [PSD_TOL, 1e-6])
    def test_file_matrix_checked_once_at_its_tolerance(self, calls, psd_tol):
        doc = state_to_json(random_density_matrix(QUTRIT_PAIR, 3, seed=4))
        calls.clear()
        state_from_json(doc, psd_tol)
        assert calls == ["require_unit_density", ("validate", psd_tol)]


def traced_peak(build):
    """(result of build(), tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestStoredMatrix:
    """The stored matrix is read-only and shared with no caller; building
    it holds as few n x n arrays as the checks need. numpy's LAPACK work
    copies are not traced, so the peaks count numpy arrays only."""

    LAYOUT = SubsystemLayout((16, 32), (0,))

    def caller_matrix(self, layout=LAYOUT):
        return random_density_matrix(layout, 8, seed=4).matrix.copy()

    def test_untrusted_build_copies_after_the_psd_check(self):
        m = self.caller_matrix()
        # The shifted copy and Cholesky's output, then the private copy.
        _, peak = traced_peak(lambda: DensityMatrix(m, self.LAYOUT))
        assert peak <= 2.1 * m.nbytes

    def test_pure_density_matrix_is_not_copied(self):
        psi = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=40))
        dm, peak = traced_peak(psi.density_matrix)
        # The outer product and the check's strip temporaries.
        assert peak <= 1.2 * dm.matrix.nbytes

    # trusted: the matrix goes to the private constructor (states._built)
    # that stores the package's own states, not to the public one.
    @pytest.mark.parametrize("trusted", [False, True])
    @pytest.mark.parametrize("real", [False, True])
    def test_writing_to_the_callers_array_changes_nothing(self, trusted, real):
        layout = SubsystemLayout((4, 4), (0,))
        if real:
            m = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=3)).density_matrix().matrix
            m = m.astype(complex)  # stored as a float64 copy of its real part
        else:
            m = self.caller_matrix(layout)
        kept = m.copy()
        dm = (states._built if trusted else DensityMatrix)(m, layout)
        if trusted and not real:
            # The private constructor keeps the array itself and sets it
            # read-only, so it cannot be written through either name.
            assert dm.matrix is m
            with pytest.raises(ValueError, match="read-only"):
                m[...] = np.eye(16) / 16
        else:
            m[...] = np.eye(16) / 16
        assert np.array_equal(dm.matrix, kept)
        assert dm._pt_trace_norm == DensityMatrix(kept, layout)._pt_trace_norm > 1

    @pytest.mark.parametrize("trusted", [False, True])
    def test_read_only_view_of_a_writable_array_is_copied(self, trusted):
        m = self.caller_matrix()
        view = m.view()
        view.setflags(write=False)
        dm = (states._built if trusted else DensityMatrix)(view, self.LAYOUT)
        assert not np.shares_memory(dm.matrix, m)
        assert np.array_equal(dm.matrix, m) and dm.matrix.flags.c_contiguous

    @pytest.mark.parametrize("trusted", [False, True])
    def test_transposed_complex_matrix_builds(self, trusted):
        # rho.T is a Fortran-ordered view: its last axis is not contiguous.
        layout = SubsystemLayout((2, 3), (0,))
        m = random_density_matrix(layout, 3, seed=6).matrix.T
        assert np.iscomplexobj(m) and not m.flags.c_contiguous
        dm = (states._built if trusted else DensityMatrix)(m, layout)
        ref = DensityMatrix(np.ascontiguousarray(m), layout)
        assert np.array_equal(dm.matrix, ref.matrix)
        assert ratio_negativity(dm) == ratio_negativity(ref) > 0

    def test_strided_amplitudes_build(self):
        w = np.zeros(8, dtype=complex)
        w[::2] = bell_state().amplitudes * np.exp(0.3j)
        psi = PureState(w[::2], QUBIT_PAIR)
        ref = PureState(np.ascontiguousarray(w[::2]), QUBIT_PAIR)
        assert np.array_equal(psi.amplitudes, ref.amplitudes)
        assert ratio_negativity(psi) == ratio_negativity(ref)
        assert abs(ratio_negativity(psi) - 1 / 3) < 1e-14

    def test_untrusted_read_only_array_is_copied(self):
        m = self.caller_matrix()
        m.setflags(write=False)
        assert not np.shares_memory(DensityMatrix(m, self.LAYOUT).matrix, m)

    @pytest.mark.parametrize("build", [
        lambda: random_density_matrix(QUBIT_PAIR, 3, seed=1),
        lambda: bell_state().density_matrix(),
        lambda: random_haar_pure(QUBIT_PAIR, 2).density_matrix(),
        lambda: apply_kraus_branches(bell_state(), [np.eye(4)])[0][1],
        lambda: state_from_json(state_to_json(random_density_matrix(QUBIT_PAIR, 3, seed=1))),
        lambda: DensityMatrix(np.eye(4) / 4, QUBIT_PAIR),
        lambda: states._built(np.eye(4, dtype=complex) / 4, QUBIT_PAIR),
    ], ids=["wishart", "real_pure", "complex_pure", "kraus", "file", "untrusted", "trusted"])
    def test_stored_matrix_is_read_only(self, build):
        dm = build()
        assert not dm.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dm.matrix[0, 0] = 1.0


def phase_twin(m):
    """D m D^dag with D = diag(1, i, -1, -i, 1, ...): the same matrix in a
    rephased basis, with nonzero imaginary parts wherever m has off-diagonal
    entries between odd-distance indices. Multiplying by a power of i is
    exact, so every |entry|, the diagonal and the spectrum are unchanged;
    an infinite entry may gain a NaN part, and stays non-finite."""
    units = np.array([1, 1j, -1, -1j])[np.arange(m.shape[0]) % 4]
    with np.errstate(invalid="ignore"):
        return m * np.outer(units, units.conj())


class TestRealRoute:
    def test_zero_imaginary_parts_stored_as_read_only_float64(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = m[3, 0] = complex(0.1, -0.0)
        dm = DensityMatrix(m, QUBIT_PAIR)
        assert dm.matrix.dtype == np.float64
        assert np.array_equal(dm.matrix, m.real)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 1.0

    def test_one_imaginary_entry_keeps_complex(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3], m[3, 0] = 0.1j, -0.1j
        dm = DensityMatrix(m, QUBIT_PAIR)
        assert dm.matrix.dtype == np.complex128
        assert np.array_equal(dm.matrix, m)

    def test_pure_density_matrix_dtype_follows_amplitudes(self):
        assert tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=5)).density_matrix().matrix.dtype \
            == np.float64
        psi = random_haar_pure(SubsystemLayout((2, 3), (0,)), 3)
        rho = psi.density_matrix().matrix
        assert rho.dtype == np.complex128
        assert np.array_equal(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_whole_route_runs_in_float64(self, monkeypatch):
        seen = []

        def recording(fn):
            def call(m, *args, **kwargs):
                seen.append((fn.__name__, m.dtype))
                return fn(m, *args, **kwargs)
            return call

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        layout = SubsystemLayout((3, 3), (0,))
        for rho in (tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=2)).density_matrix().matrix,
                    random_density_matrix(layout, 9, seed=1).matrix.real):
            rho = (rho + rho.T) / np.trace(rho) / 2
            assert DensityMatrix(rho, layout)._pt_trace_norm >= 1.0
        assert {name for name, _ in seen} == {"cholesky", "eigvalsh"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("case", sorted(REFUSED_REAL_MATRICES))
    def test_refusals_match_the_complex_route(self, case):
        m, what = REFUSED_REAL_MATRICES[case]
        twin = phase_twin(m)
        assert twin.imag.any()
        messages = []
        for matrix in (m, twin):
            with pytest.raises(ValueError, match=what) as err:
                DensityMatrix(matrix, QUBIT_PAIR)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_shape_is_checked_before_entries(self):
        with pytest.raises(ValueError, match=re.escape("density matrix shape (3, 3) incompatible")):
            DensityMatrix(np.full((3, 3), np.nan), QUBIT_PAIR)


@st.composite
def real_density_matrices(draw):
    """A real symmetric PSD unit-trace matrix on 2-3 parties of dims 2-6,
    with a random party A. "dense" is G G^T for a random real G; "sparse"
    zeroes most of G, so the matrix and its partial transpose may split
    into blocks; "fock" mixes real states supported on |n n ...>, like
    Fock-basis two-mode squeezed states, whose partial transposes split
    into 1x1 and 2x2 blocks."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=3)))
    layout = SubsystemLayout(dims, draw(st.sets(st.integers(0, len(dims) - 1),
                                                min_size=1, max_size=len(dims) - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["dense", "sparse", "fock"]))
    g = rng.standard_normal((layout.dim, rank))
    if kind == "sparse":
        g *= rng.random(g.shape) < 0.2
        g[rng.integers(layout.dim), :] += 1.0
    elif kind == "fock":
        ladder = np.ravel_multi_index([np.arange(min(dims))] * len(dims), dims)
        g[np.setdiff1d(np.arange(layout.dim), ladder)] = 0.0
        g[ladder[0], :] += 1.0
    rho = g @ g.T
    rho = (rho + rho.T) / 2
    return rho / np.trace(rho), layout


@settings(max_examples=120, deadline=None)
@given(case=real_density_matrices())
def test_real_route_trace_norm_matches_complex_route(case):
    rho, layout = case
    state = DensityMatrix(rho, layout)
    assert state.matrix.dtype == np.float64
    t = state._pt_trace_norm
    reference = trace_norm_hermitian(partial_transpose(rho.astype(complex), layout))
    assert abs(t - reference) <= 1e-12 * max(1.0, reference)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(1e-6, 19.0))
@example(r=1e-300)
@example(r=0.5)
@example(r=1.5)
def test_default_cutoff_is_the_deficit_rule(r):
    # The amplitude tail sqrt(target) is the probability deficit target:
    # chi^(n+1) <= sqrt(t) exactly when chi^(2(n+1)) <= t.
    chi = math.tanh(r)
    by_deficit = math.ceil(math.log(states.DEFAULT_DEFICIT_TARGET) / (2 * math.log(chi)) - 1)
    assert default_cutoff(chi) == max(1, min(states.MAX_DEFAULT_CUTOFF, by_deficit))


MEAN_LAW = CompositionLaw("mean", lambda x, y: (x + y) / 2, 0.0, 1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name,call", [
    ("psd_tol", lambda tol: bell_state().density_matrix().validate(tol)),
    ("psd_tol", lambda tol: evaluate_measure(MeasureSpec("negativity"), bell_state(), psd_tol=tol)),
    ("assoc_tol", lambda tol: check_group_operation(MEAN_LAW, grid_n=16, assoc_tol=tol)),
    ("violation_tol", lambda tol: sample_monogamy_scan((2, 2, 2), 50, 1.0, 3, violation_tol=tol)),
], ids=["validate", "evaluate_measure", "check_group_operation", "sample_monogamy_scan"])
def test_library_tolerances_refused(name, call, tol):
    # A NaN tolerance fails every comparison, so it would pass anything:
    # nan made the Bell state PPT, the mean law associative and a scan
    # free of violations.
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and >= 0, got {tol!r}")):
        call(tol)


def test_library_tolerances_accept_zero():
    bell_state().density_matrix().validate(0.0)
    assert not evaluate_measure(MeasureSpec("negativity"), bell_state(), psd_tol=0.0).ppt
    assert not check_group_operation(MEAN_LAW, grid_n=16, assoc_tol=0.0).associativity.passed
    assert sample_monogamy_scan((2, 2, 2), 50, 1.0, 3, violation_tol=0.0).violation_count > 0
