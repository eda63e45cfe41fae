import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.tensor import (
    SubsystemLayout,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    require_hermitian,
    schmidt_decompose,
    trace_norm_hermitian,
)

from conftest import charpoly_eigenvalues, dense_partial_transpose

BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
BELL_DM = np.outer(BELL, BELL.conj())
QUBIT_PAIR = SubsystemLayout((2, 2), (0,))


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


class TestLayout:
    def test_properties(self):
        layout = SubsystemLayout((2, 3, 4), (0, 2))
        assert layout.dim == 24
        assert layout.party_b == (1,)
        assert layout.dim_a == 8
        assert layout.dim_b == 3

    @pytest.mark.parametrize("dims,party", [
        ((2, 2), ()),          # empty party A
        ((2, 2), (0, 1)),      # not a strict subset
        ((2, 2), (5,)),        # out of range
        ((1, 2), (0,)),        # dimension below 2
    ])
    def test_rejects_bad_layouts(self, dims, party):
        with pytest.raises(ValueError):
            SubsystemLayout(dims, party)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_of_bell_pair_product(self):
        big = kron(BELL_DM, BELL_DM)
        assert big.shape == (16, 16)
        assert abs(np.trace(big) - 1.0) < 1e-14

    def test_trace_multiplicative(self, rng):
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        assert np.isclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b))


class TestPartialTranspose:
    def test_double_application_is_bit_exact(self, rng):
        layouts = [SubsystemLayout((2, 2), (0,)), SubsystemLayout((2, 3), (1,)),
                   SubsystemLayout((2, 2, 2), (0, 2)), SubsystemLayout((3, 2, 2), (1,)),
                   SubsystemLayout((2, 2, 3), (2,))]
        for i in range(1000):
            layout = layouts[i % len(layouts)]
            m = random_hermitian(rng, layout.dim)
            assert np.array_equal(partial_transpose(partial_transpose(m, layout), layout), m)

    def test_bell_spectrum(self):
        pt = partial_transpose(BELL_DM, QUBIT_PAIR)
        # Hand computation: the Bell projector's partial transpose is the
        # swap operator over 2, eigenvalues {-1/2, 1/2, 1/2, 1/2}.
        assert np.allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_matches_textbook_reshape(self, rng):
        layout = SubsystemLayout((3, 4), (0,))
        rho = random_density(rng, 12)
        assert np.allclose(partial_transpose(rho, layout),
                           dense_partial_transpose(rho, 3, 4), atol=0)

    def test_product_state_stays_positive(self, rng):
        sa = random_density(rng, 2)
        sb = random_density(rng, 3)
        pt = partial_transpose(kron(sa, sb), SubsystemLayout((2, 3), (0,)))
        assert np.allclose(pt, kron(sa.T, sb), atol=1e-14)
        assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_trace_preserved(self, rng):
        layout = SubsystemLayout((2, 2, 2), (1,))
        for _ in range(50):
            rho = random_density(rng, 8)
            assert abs(np.trace(partial_transpose(rho, layout)) - np.trace(rho)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(3), QUBIT_PAIR)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(hermitian_eigenvalues(x), [-1, 1])

    def test_bell_pt(self):
        pt = partial_transpose(BELL_DM, QUBIT_PAIR)
        assert np.allclose(hermitian_eigenvalues(pt), [-0.5, 0.5, 0.5, 0.5])

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(m)

    def test_tolerates_kron_roundoff(self, rng):
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-13  # below herm_tol for this norm
        hermitian_eigenvalues(m)

    def test_charpoly_oracle_agreement(self, rng):
        for dim in (2, 3, 4):
            for _ in range(25):
                m = random_hermitian(rng, dim)
                assert np.allclose(hermitian_eigenvalues(m),
                                   charpoly_eigenvalues(m), atol=1e-10)

    def test_reconstruction_residual(self, rng):
        m = random_hermitian(rng, 6)
        w, v = hermitian_eigensystem(m)
        residual = np.max(np.abs((v * w) @ v.conj().T - m))
        assert residual <= 1e-10 * np.max(np.abs(m))


class TestTraceNorm:
    def test_maximally_mixed(self):
        assert abs(trace_norm_hermitian(np.eye(4) / 4) - 1.0) < 1e-14

    def test_bell_pt(self):
        pt = partial_transpose(BELL_DM, QUBIT_PAIR)
        assert abs(trace_norm_hermitian(pt) - 2.0) < 1e-12

    def test_half_classical_half_bell_mixture(self):
        # 1/2 (|00><00| + |11><11|)/... mixed equally with the Bell pair
        # has partial-transpose trace norm exactly 3/2.
        rho1 = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        mix = (rho1 + BELL_DM) / 2
        pt = partial_transpose(mix, QUBIT_PAIR)
        assert abs(trace_norm_hermitian(pt) - 1.5) < 1e-12

    def test_stack_rejected(self):
        with pytest.raises(ValueError, match="one square matrix"):
            trace_norm_hermitian(np.stack([np.eye(2), np.eye(2)]))


@st.composite
def hidden_block_diagonal(draw):
    """A Hermitian block-diagonal matrix conjugated by a random permutation
    of its basis. Blocks have size 1-6 and are all zero, dense, or
    tridiagonal (connected only through a chain of entries)."""
    kinds = draw(st.lists(st.tuples(st.integers(1, 6), st.sampled_from(["zero", "dense", "chain"])),
                          min_size=1, max_size=10))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(size for size, _ in kinds)
    m = np.zeros((n, n), dtype=complex)
    at = 0
    for size, kind in kinds:
        block = scale * random_hermitian(rng, size)
        if kind == "chain":
            block = np.triu(np.tril(block, 1), -1)
        if kind != "zero":
            m[at:at + size, at:at + size] = block
        at += size
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


class TestBlockTraceNorm:
    @settings(max_examples=150, deadline=None)
    @given(m=hidden_block_diagonal())
    def test_matches_whole_matrix_spectrum(self, m):
        reference = float(np.sum(np.abs(np.linalg.eigvalsh(m))))
        assert abs(trace_norm_hermitian(m) - reference) <= 1e-12 * max(1.0, reference)

    @pytest.mark.parametrize("entry", [(2, 0), (0, 2)])
    def test_coupling_on_one_side_of_the_diagonal(self, entry):
        # Hermitian within tolerance with an asymmetric zero pattern; eigvalsh
        # reads the lower triangle, so only m[2, 0] couples indices 0 and 2.
        m = np.diag([0.0, 1.0, 0.0]).astype(complex)
        m[entry] = 1e-11
        reference = float(np.sum(np.abs(np.linalg.eigvalsh(m))))
        assert abs(trace_norm_hermitian(m) - reference) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_no_zero_entries_bit_identical(self, dim, seed):
        m = random_hermitian(np.random.default_rng(seed), dim)
        assert np.all(m != 0)
        assert trace_norm_hermitian(m) == float(np.sum(np.abs(np.linalg.eigvalsh(m))))


class TestPartialTrace:
    def test_bell_marginal(self):
        out = partial_trace(BELL_DM, QUBIT_PAIR, keep=[0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_three_qubit_reduction_negativity(self):
        # (|000> + |011> + sqrt(2)|110>)/2 traced over the last qubit gives
        # a rank-2 two-qubit state with negativity exactly 1/4.
        psi = np.zeros(8, dtype=complex)
        psi[0b000] = 0.5
        psi[0b011] = 0.5
        psi[0b110] = math.sqrt(2) / 2
        rho = np.outer(psi, psi.conj())
        reduced = partial_trace(rho, SubsystemLayout((2, 2, 2), (0,)), keep=[0, 1])
        assert abs(np.trace(reduced) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(reduced, tol=1e-10) == 2
        pt = partial_transpose(reduced, QUBIT_PAIR)
        neg = (trace_norm_hermitian(pt) - 1) / 2
        assert abs(neg - 0.25) < 1e-12

    def test_product_marginal(self, rng):
        sa = random_density(rng, 2)
        sb = random_density(rng, 3)
        layout = SubsystemLayout((2, 3), (0,))
        assert np.allclose(partial_trace(kron(sa, sb), layout, keep=[1]), sb, atol=1e-13)

    def test_preserves_trace_hermiticity_positivity(self, rng):
        layout = SubsystemLayout((2, 2, 3), (0,))
        rho = random_density(rng, 12)
        out = partial_trace(rho, layout, keep=[0, 2])
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out)[0] > -1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(BELL_DM, QUBIT_PAIR, keep=[])


class TestSchmidt:
    def test_bell(self):
        sd = schmidt_decompose(BELL, QUBIT_PAIR)
        assert np.allclose(sd.coefficients, [0.5, 0.5])
        assert sd.rank == 2

    def test_lopsided_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = math.sqrt(0.1)
        psi[3] = math.sqrt(0.9)
        sd = schmidt_decompose(psi, QUBIT_PAIR)
        assert np.allclose(sd.coefficients, [0.9, 0.1])

    def test_product_state_rank_one(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        sd = schmidt_decompose(psi, QUBIT_PAIR)
        assert sd.rank == 1
        assert abs(sd.coefficients[0] - 1.0) < 1e-14

    def test_roundtrip_overlap(self, rng):
        for dims, party in [((2, 2), (0,)), ((3, 4), (1,)), ((2, 2, 2), (0, 1)),
                            ((2, 3, 2), (1,))]:
            layout = SubsystemLayout(dims, party)
            v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
            v /= np.linalg.norm(v)
            sd = schmidt_decompose(v, layout)
            rebuilt_mat = (sd.left * np.sqrt(sd.coefficients)) @ sd.right.conj().T
            # Undo the A-axes-first permutation to compare with the input.
            perm = list(layout.party_a) + list(layout.party_b)
            inverse = np.argsort(perm)
            shaped = rebuilt_mat.reshape([dims[i] for i in perm]).transpose(inverse)
            overlap = abs(np.vdot(shaped.reshape(-1), v))
            assert overlap >= 1 - 1e-10

    def test_coefficients_sum_to_one(self, rng):
        layout = SubsystemLayout((3, 5), (0,))
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        v /= np.linalg.norm(v)
        sd = schmidt_decompose(v, layout)
        assert abs(np.sum(sd.coefficients) - 1.0) < 1e-12
        assert np.all(np.diff(sd.coefficients) <= 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            schmidt_decompose(np.array([1.0, 0, 0, 1.0]), QUBIT_PAIR)


def test_pt_trace_norm_multiplicative_under_tensor(rng):
    layout_pair = SubsystemLayout((2, 2), (0,))
    layout_big = SubsystemLayout((2, 2, 2, 2), (0, 2))
    for _ in range(30):
        r1 = random_density(rng, 4)
        r2 = random_density(rng, 4)
        t1 = trace_norm_hermitian(partial_transpose(r1, layout_pair))
        t2 = trace_norm_hermitian(partial_transpose(r2, layout_pair))
        t12 = trace_norm_hermitian(partial_transpose(kron(r1, r2), layout_big))
        assert abs(t12 - t1 * t2) <= 1e-8 * t1 * t2


@st.composite
def stacked_operators(draw):
    """(stack, layout): random complex operators on 1-3 subsystems of
    dimensions 2-3, stacked along 0-2 leading axes."""
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)))
    party_a = draw(st.sets(st.integers(0, len(dims) - 1), min_size=1,
                           max_size=max(1, len(dims) - 1)))
    if len(dims) == 1:
        dims, party_a = dims + (2,), {0}
    layout = SubsystemLayout(dims, party_a)
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = lead + (layout.dim, layout.dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape), layout


@settings(max_examples=80, deadline=None)
@given(case=stacked_operators())
def test_partial_transpose_of_stack_is_per_matrix_and_involutive(case):
    stack, layout = case
    out = partial_transpose(stack, layout)
    assert out.shape == stack.shape
    flat_in = stack.reshape((-1,) + stack.shape[-2:])
    for got, m in zip(out.reshape(flat_in.shape), flat_in):
        assert got.tobytes() == partial_transpose(m, layout).tobytes()
    assert partial_transpose(out, layout).tobytes() == stack.tobytes()


class TestStackChecks:
    def test_require_hermitian_rejects_one_bad_matrix_in_stack(self, rng):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        assert require_hermitian(stack) is not None
        stack[3, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(stack)
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(stack.reshape(5, 1, 4, 4))

    def test_require_hermitian_scale_is_per_matrix(self, rng):
        big = random_hermitian(rng, 3) * 1e6
        small = random_hermitian(rng, 3)
        small[0, 1] += 1e-6  # within 1e-10 * 1e6, but not within 1e-10 * |small|
        require_hermitian(np.stack([big, big]))
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(np.stack([big, small]))

    def test_stack_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            partial_transpose(np.zeros((2, 4, 3)), QUBIT_PAIR)
        with pytest.raises(ValueError, match="layout dimension"):
            partial_transpose(np.zeros((2, 3, 3)), QUBIT_PAIR)
