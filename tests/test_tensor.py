import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain import tensor
from qchain.tensor import (
    HERM_STRIP,
    HERM_TOL_BASE,
    SubsystemLayout,
    _coupled_blocks,
    _hermitian_defect,
    _label_blocks,
    _search_blocks,
    _slab_max,
    _trace_norm_blocks,
    kron,
    partial_trace,
    partial_transpose,
    require_finite,
    require_hermitian,
    schmidt_decompose,
    trace_norm_hermitian,
)

from qchain.gaussian import CovarianceMatrix, cm_partial_transpose
from qchain.monogamy import sample_monogamy_scan
from qchain.states import TmsvsSpec, pure_from_schmidt
from qchain.swapping import qudit_link

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

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_many_qubit_dimensions_are_exact(self, n):
        # Products beyond the int64 range stay exact.
        layout = SubsystemLayout((2,) * n, (0,))
        assert (layout.dim, layout.dim_a, layout.dim_b) == (2 ** n, 2, 2 ** (n - 1))

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
    """The spectrum of a Hermitian matrix, as trace_norm_hermitian sums it."""

    def test_diagonal(self):
        assert trace_norm_hermitian(np.diag([3.0, -1.0, 2.0])) == 6.0

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert abs(trace_norm_hermitian(x) - 2.0) < 1e-14

    def test_bell_pt(self):
        # Spectrum (-0.5, 0.5, 0.5, 0.5): the negative part is 0.5.
        pt = partial_transpose(BELL_DM, QUBIT_PAIR)
        assert abs((trace_norm_hermitian(pt) - np.trace(pt).real) / 2 - 0.5) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(m)
        with pytest.raises(ValueError, match="Hermitian"):
            trace_norm_hermitian(m)

    def test_tolerates_kron_roundoff(self, rng):
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-13  # below herm_tol for this norm
        require_hermitian(m)
        assert math.isfinite(trace_norm_hermitian(m))

    def test_charpoly_oracle_agreement(self, rng):
        for dim in (2, 3, 4):
            for _ in range(25):
                m = random_hermitian(rng, dim)
                roots = np.sum(np.abs(charpoly_eigenvalues(m)))
                assert abs(trace_norm_hermitian(m) - roots) < 1e-10 * dim


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


@st.composite
def shared_pattern_stacks(draw):
    """A real symmetric or complex Hermitian stack on 1-2 leading axes
    whose matrices share one nonzero pattern: a Fock-basis partial
    transpose (|mn> coupled only with |nm>, 1x1 and 2x2 blocks) or a
    permuted block diagonal with dense blocks of size 1-6."""
    lead = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        c = draw(st.integers(2, 9))
        n = c * c
        blocks = [np.array(sorted({m * c + k, k * c + m})) for m in range(c) for k in range(m, c)]
    else:
        sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
        n = sum(sizes)
        perm = rng.permutation(n)
        starts = np.cumsum([0] + sizes)
        blocks = [perm[a:b] for a, b in zip(starts, starts[1:])]
    stack = np.zeros(lead + (n, n), dtype=float if real else complex)
    for b in blocks:
        a = rng.standard_normal(lead + (b.size, b.size))
        if not real:
            a = a + 1j * rng.standard_normal(a.shape)
        stack[..., b[:, None], b[None, :]] = a + np.swapaxes(a, -2, -1).conj()
    return stack


class TestBlockTraceNorm:
    @settings(max_examples=200, deadline=None)
    @given(stack=shared_pattern_stacks())
    def test_stack_rows_equal_single_matrix_calls(self, stack):
        got = _trace_norm_blocks(stack)
        assert got.shape == stack.shape[:-2] and got.dtype == np.float64
        for norm, m in zip(got.reshape(-1), stack.reshape((-1,) + stack.shape[-2:])):
            assert norm == _trace_norm_blocks(m) == trace_norm_hermitian(m)

    def test_stack_splits_by_the_union_of_patterns(self):
        # One matrix couples 0 with 3, the other 1 with 2: the stack splits
        # into {0, 3} and {1, 2}, and each row keeps its own trace norm.
        a = np.diag([0.5, 0.25, 0.25, 0.0])
        a[0, 3] = a[3, 0] = 0.5
        b = np.diag([0.25, 0.5, 0.0, 0.25])
        b[1, 2] = b[2, 1] = -0.75
        stack = np.stack([a, b])
        assert [list(blk) for blk in _coupled_blocks(stack)] == [[0, 3], [1, 2]]
        want = [float(np.sum(np.abs(np.linalg.eigvalsh(m)))) for m in (a, b)]
        assert np.allclose(_trace_norm_blocks(stack), want, rtol=1e-15, atol=0)

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


def reference_coupled_blocks(m):
    """The breadth-first search that _coupled_blocks ran on every pattern
    before it chose a route: one search start per component."""
    linked = m != 0
    unseen = np.ones(m.shape[0], dtype=bool)
    blocks = []
    for start in range(m.shape[0]):
        if not unseen[start]:
            continue
        unseen[start] = False
        layer = np.array([start])
        members = [layer]
        while layer.size and unseen.any():
            near = linked[layer].any(axis=0) | linked[:, layer].any(axis=1)
            layer = np.flatnonzero(near & unseen)
            unseen[layer] = False
            members.append(layer)
        blocks.append(np.sort(np.concatenate(members)))
    return blocks


@st.composite
def nonzero_patterns(draw):
    """A real or complex square matrix whose nonzero pattern is random
    sparse, random dense, one-sided (one side of the diagonal only), a
    permuted block diagonal, a long band (path-like, up to 1500 indices,
    in order or permuted), or of dimension 0 or 1."""
    kind = draw(st.sampled_from(["sparse", "dense", "one_sided", "blocks", "band", "tiny"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "tiny":
        n = draw(st.integers(0, 1))
        mask = rng.random((n, n)) < 0.5
    elif kind == "band":
        n = draw(st.integers(2, 1500))
        offsets = draw(st.sampled_from([(1,), (-1,), (0, 1), (-1, 2), (-3, -1, 0, 1)]))
        mask = np.zeros((n, n), dtype=bool)
        for k in offsets:
            mask |= np.eye(n, k=k, dtype=bool)
        if draw(st.booleans()):
            perm = rng.permutation(n)
            mask = mask[np.ix_(perm, perm)]
    elif kind == "blocks":
        sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=20))
        n = sum(sizes)
        mask = np.zeros((n, n), dtype=bool)
        at = 0
        for size in sizes:
            mask[at:at + size, at:at + size] = rng.random((size, size)) < draw(
                st.sampled_from([0.2, 1.0]))
            at += size
        perm = rng.permutation(n)
        mask = mask[np.ix_(perm, perm)]
    else:
        n = draw(st.integers(2, 200))
        density = (draw(st.sampled_from([0.3, 0.9, 1.0])) if kind == "dense"
                   else draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 8.0])) / n)
        mask = rng.random((n, n)) < density
        if kind == "one_sided":
            mask = np.triu(mask, 1) if draw(st.booleans()) else np.tril(mask)
    values = rng.standard_normal((n, n))
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal((n, n))
    return np.where(mask, values, 0)


class TestCoupledBlocks:
    @settings(max_examples=200, deadline=None)
    @given(m=nonzero_patterns())
    def test_both_routes_match_breadth_first_reference(self, m):
        want = reference_coupled_blocks(m)
        linked = m != 0
        for got in (_coupled_blocks(m), _search_blocks(linked), _label_blocks(linked)):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_pattern_chooses_the_route(self, monkeypatch):
        import qchain.tensor as tensor
        from qchain.states import TmsvsSpec, tmsvs_truncated

        def refused(linked):
            raise AssertionError("wrong route")

        # A matrix with no zero entries is searched, and builds no index
        # arrays of n^2 entries; a Fock-basis partial transpose is labelled.
        monkeypatch.setattr(tensor, "_label_blocks", refused)
        assert len(_coupled_blocks(np.ones((300, 300)))) == 1
        monkeypatch.undo()
        monkeypatch.setattr(tensor, "_search_blocks", refused)
        rho = tmsvs_truncated(TmsvsSpec.from_r(0.5, cutoff=10)).density_matrix()
        pt = partial_transpose(rho.matrix, rho.layout)
        d = rho.layout.dims[0]
        assert sorted(b.size for b in _coupled_blocks(pt)) == [1] * d + [2] * (d * (d - 1) // 2)


# Ties at flat indices 1, 3, 5 and 8: the maximum 3 is first at row 0, column 1.
SLAB_GRID = np.array([[0, 3, 1], [3, 2, 3], [1, 0, 3], [2, 3, 0], [1, 1, 1]], dtype=float)
SLAB_AXES = (np.arange(5) / 4, np.arange(3) / 2)


class TestSlabMax:
    @pytest.mark.parametrize("budget,step", [(1, 1), (48, 2), (1 << 19, 5)])
    def test_first_maximum_over_slabs_of_the_budget(self, monkeypatch, budget, step):
        monkeypatch.setattr(tensor, "GRID_SLAB_BYTES", budget)
        slabs = []

        def slab(start, stop):
            slabs.append((start, stop))
            return SLAB_GRID[start:stop]
        assert _slab_max(SLAB_AXES, slab, "grid") == (3.0, (0.0, 0.5))
        assert slabs == [(a, min(a + step, 5)) for a in range(0, 5, step)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("budget", [1, 48, 1 << 19])
    def test_first_non_finite_value_raises_with_its_point(self, monkeypatch, budget, value):
        monkeypatch.setattr(tensor, "GRID_SLAB_BYTES", budget)
        grid = SLAB_GRID.copy()
        grid[3, 1], grid[4, 0] = value, math.nan
        with pytest.raises(ValueError, match=r"^grid at \(0\.75, 0\.5\)$"):
            _slab_max(SLAB_AXES, lambda start, stop: grid[start:stop], "grid")

    def test_rows_run_over_all_axes_but_the_last(self):
        cube = np.zeros((2, 3, 4))
        cube[1, 2, 0] = 1.0
        axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.arange(4.0))
        assert _slab_max(axes, lambda start, stop: cube.reshape(6, 4)[start:stop], "cube") == \
            (1.0, (1.0, 2.0, 0.0))


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


class TestIntegerArguments:
    """Integer arguments are refused by name, not truncated: each of these
    calls once ran on the truncated value."""

    @pytest.mark.parametrize("call, what", [
        (lambda: SubsystemLayout((2.7, 2), (0,)), "each entry of dims"),
        (lambda: SubsystemLayout((2, 2), (0.9,)), "each entry of party_a"),
        (lambda: SubsystemLayout((2, 2), (True,)), "each entry of party_a"),
        (lambda: sample_monogamy_scan((2, 2, 2.9), 3, 1.0, 0), "each entry of dims"),
        (lambda: pure_from_schmidt([0.5, 0.5], (2.5, 2)), "each entry of dims"),
        (lambda: TmsvsSpec.from_r(0.5, 2.5), "cutoff"),
        (lambda: TmsvsSpec(0.5, 2.5), "cutoff"),
        (lambda: cm_partial_transpose(CovarianceMatrix(np.eye(4)), (0.7,)), "each entry of modes_a"),
        (lambda: partial_trace(BELL_DM, QUBIT_PAIR, (1.5,)), "each entry of keep"),
        (lambda: qudit_link([0.5, 0.5], d=2.5), "d"),
    ], ids=["layout-dims", "layout-party_a", "layout-bool", "scan", "pure_from_schmidt",
            "from_r", "tmsvs_spec", "cm_partial_transpose", "partial_trace", "qudit_link"])
    def test_non_integer_refused(self, call, what):
        with pytest.raises(ValueError, match=rf"^{what} must be an integer, got "):
            call()

    def test_numpy_integers_accepted(self):
        layout = SubsystemLayout((np.int64(2), np.uint8(3)), (np.int32(1),))
        assert (layout.dims, layout.party_a) == ((2, 3), (1,))
        assert type(TmsvsSpec(0.5, np.int64(3)).cutoff) is int


class TestSchmidt:
    def test_bell(self):
        lam = schmidt_decompose(BELL, QUBIT_PAIR)
        assert lam.shape == (2,)
        assert np.allclose(lam, [0.5, 0.5])

    def test_lopsided_pair(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = math.sqrt(0.1)
        psi[3] = math.sqrt(0.9)
        assert np.allclose(schmidt_decompose(psi, QUBIT_PAIR), [0.9, 0.1])

    def test_product_state_rank_one(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        lam = schmidt_decompose(psi, QUBIT_PAIR)
        assert abs(lam[0] - 1.0) < 1e-14
        assert abs(lam[1]) < 1e-14

    @pytest.mark.parametrize("dims,rows", [
        ((2, 2), (0,)), ((3, 4), (1,)), ((2, 2, 2), (0, 1)), ((2, 3, 2), (1,)),
        ((2, 3, 4), (2, 0)), ((2, 3, 4), (0, 1, 2)), ((3, 2, 2, 3), (0, 2)),
    ])
    def test_grouping_round_trips(self, rng, dims, rows):
        """Undoing the axis move restores every amplitude exactly, for one
        vector and for a stack; rows naming every subsystem give one column."""
        n = math.prod(dims)
        stack = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        rest = [i for i in range(len(dims)) if i not in rows]
        d_rows = math.prod(dims[i] for i in rows)
        inverse = list(np.argsort(list(rows) + rest))
        for psi in (stack[0], stack):
            lead = psi.shape[:-1]
            mat = tensor.group_subsystems(psi, dims, rows)
            assert mat.shape == lead + (d_rows, n // d_rows)
            t = mat.reshape(lead + tuple(dims[i] for i in list(rows) + rest))
            back = t.transpose(list(range(len(lead))) + [len(lead) + i for i in inverse])
            assert np.array_equal(back.reshape(psi.shape), psi)

    def test_bipartite_matrix_puts_party_a_on_rows(self):
        layout = SubsystemLayout((2, 3, 2), (1,))
        psi = np.arange(12.0)
        expected = psi.reshape(2, 3, 2).transpose(1, 0, 2).reshape(3, 4)
        assert np.array_equal(tensor.bipartite_matrix(psi, layout), expected)

    @pytest.mark.parametrize("dims,party", [((3, 5), (0,)), ((2, 3, 4), (1,)), ((2, 2, 2, 2), (0, 2))])
    def test_stack_equals_rows(self, rng, dims, party):
        """A stacked call gives each row's coefficients bit for bit, and
        they are the descending eigenvalues of M M^dag."""
        layout = SubsystemLayout(dims, party)
        v = rng.standard_normal((4, layout.dim)) + 1j * rng.standard_normal((4, layout.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        stacked = schmidt_decompose(v, layout)
        assert stacked.shape == (4, min(layout.dim_a, layout.dim_b))
        for row, lam in zip(v, stacked):
            assert np.array_equal(schmidt_decompose(row, layout), lam)
            m = tensor.bipartite_matrix(row, layout)
            w = np.linalg.eigvalsh(m @ m.conj().T)[::-1][:lam.size]
            assert np.max(np.abs(lam - w)) < 1e-12

    def test_coefficients_sum_to_one(self, rng):
        layout = SubsystemLayout((3, 5), (0,))
        v = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        v /= np.linalg.norm(v)
        lam = schmidt_decompose(v, layout)
        assert abs(np.sum(lam) - 1.0) < 1e-12
        assert np.all(np.diff(lam) <= 0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            schmidt_decompose(np.array([1.0, 0, 0, 1.0]), QUBIT_PAIR)

    def test_rejects_wrong_amplitude_count(self):
        with pytest.raises(ValueError, match="amplitude count 3"):
            tensor.bipartite_matrix(np.ones(3), QUBIT_PAIR)


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


def whole_matrix_hermitian_check(m):
    """The whole-matrix formula: (defect, scale, error text or None)."""
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    with np.errstate(invalid="ignore"):
        defect = np.max(np.abs(m - np.swapaxes(m, -2, -1).conj()), axis=(-2, -1))
    off = defect > HERM_TOL_BASE * scale
    if not np.any(off):
        return defect, scale, None
    return defect, scale, (f"matrix is not Hermitian within tolerance: defect "
                           f"{defect[off].flat[0]:.3e} > {HERM_TOL_BASE * scale[off].flat[0]:.3e}")


@st.composite
def perturbed_hermitian_stacks(draw):
    """A real symmetric or complex Hermitian stack of dimension 1-200
    (strip edges favoured) on 0-2 leading axes, with one entry moved by an
    amount around the tolerance; or a stack that is not Hermitian at all,
    or one with 1-3 entries set to NaN or to an infinity."""
    n = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129, 200]), st.integers(1, 200)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = lead + (n, n)
    real = draw(st.booleans())
    a = rng.standard_normal(shape)
    if not real:
        a = a + 1j * rng.standard_normal(shape)
    a = a * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    m = (a + np.swapaxes(a, -2, -1).conj()) / 2
    where = tuple(draw(st.integers(0, k - 1)) for k in shape)
    m[where] += draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, -1e3 if real else 1j * 1e-4, 1e3]))
    kind = draw(st.sampled_from(["hermitian"] * 4 + ["general", "non-finite"]))
    if kind == "general":
        m = a
    elif kind == "non-finite":
        poisons = [np.nan, np.inf, -np.inf] + ([] if real else [complex(np.inf, np.nan), -1j * np.inf])
        for _ in range(draw(st.integers(1, 3))):
            m[tuple(draw(st.integers(0, k - 1)) for k in shape)] = draw(st.sampled_from(poisons))
    return m


@settings(max_examples=200, deadline=None)
@given(m=perturbed_hermitian_stacks())
def test_stripwise_hermitian_check_matches_whole_matrix_formula(m):
    defect, scale, message = whole_matrix_hermitian_check(m)
    got_defect, got_top = _hermitian_defect(m)
    assert got_defect.dtype == got_top.dtype == np.float64
    if not np.isfinite(m).all():
        # The same maxima (NaN where the formula has NaN), and the walk
        # names the non-finite entries before any defect.
        assert np.array_equal(got_defect, defect, equal_nan=True)
        assert np.array_equal(got_top, np.max(np.abs(m), axis=(-2, -1)), equal_nan=True)
        with pytest.raises(ValueError, match="^stack contains non-finite entries$"):
            require_hermitian(m, "stack")
        return
    assert got_defect.tobytes() == np.asarray(defect).tobytes()
    assert got_top.tobytes() == np.asarray(np.max(np.abs(m), axis=(-2, -1))).tobytes()
    assert np.maximum(1.0, got_top).tobytes() == np.asarray(scale).tobytes()
    if message is None:
        assert require_hermitian(m) is m
    else:
        with pytest.raises(ValueError) as err:
            require_hermitian(m)
        assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(case=stacked_operators(), poison=st.sampled_from([None, np.nan, np.inf]),
       where=st.integers(0, 2**16))
def test_partial_transpose_keeps_defect_scale_and_finiteness(case, poison, where):
    stack, layout = case
    if poison is not None:
        stack.reshape(-1)[where % stack.size] = poison
    pt = partial_transpose(stack, layout)
    finite = np.isfinite(stack).all()
    assert np.isfinite(pt).all() == finite
    if finite:
        for got, want in zip(_hermitian_defect(pt), _hermitian_defect(stack)):
            assert got.tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match="non-finite"):
            require_finite(pt)


def test_zero_matrix_top_is_positive_zero():
    for m in (np.zeros((3, 3)), -np.zeros((2, 70, 70)), np.zeros((5, 5), dtype=complex)):
        defect, top = _hermitian_defect(m)
        assert defect.tobytes() == top.tobytes() == np.zeros(m.shape[:-2]).tobytes()


def test_hermitian_check_allocates_strips_not_matrices(rng):
    n = 8 * HERM_STRIP
    m = random_hermitian(rng, n)
    tracemalloc.start()
    try:
        require_hermitian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * m.nbytes


def test_float64_input_stays_float64(monkeypatch):
    """Real input runs the kernels in real arithmetic: a dtype=complex cast
    in one of them would double the memory of every real state."""
    spectra = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m):
        spectra.append(m.dtype)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rng = np.random.default_rng(3)
    layout = SubsystemLayout((2, 3), (0,))
    g = rng.standard_normal((6, 2))
    rho = g @ g.T / np.sum(g * g)
    rho = (rho + rho.T) / 2
    pt = partial_transpose(rho, layout)
    assert pt.dtype == np.float64
    assert partial_transpose(np.stack([rho, pt]), layout).dtype == np.float64
    assert partial_trace(rho, layout, [1]).dtype == np.float64
    assert require_hermitian(rho).dtype == np.float64
    # One matrix that splits into blocks and one that does not.
    assert trace_norm_hermitian(np.diag([0.5, 0.25, 0.25])) == 1.0
    assert trace_norm_hermitian(pt) >= 1.0
    assert len(spectra) == 2 and set(spectra) == {np.dtype(np.float64)}
