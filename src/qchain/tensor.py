"""Dense linear algebra over multipartite Hilbert spaces, in float64 for
real matrices and complex128 otherwise.

Index convention (fixed): subsystem 0 is the slowest-varying tensor index,
i.e. a state on dims (d0, d1, ...) is stored row-major as the C-order
flattening of an array of shape (d0, d1, ...). All operations in this
package follow this convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

HERM_TOL_BASE = 1e-10
# The one unit-weight rule: |psi|^2, tr rho and a sum of Schmidt coefficients
# must each lie within TRACE_TOL of 1.
TRACE_TOL = 1e-10
HERM_STRIP = 64
# The six grid checks (groupop's closure, associativity, solvability,
# necessary conditions and multiplicative f; monogamy's two-term grid) walk
# their grids through _slab_max in slabs of rows of about this many bytes.
GRID_SLAB_BYTES = 1 << 19


def _integer(value, what: str) -> int:
    """value as an int; a non-integer such as 2.7 or True is refused by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SubsystemLayout:
    """Tensor factorization of a Hilbert space plus the bipartition mask.

    dims: per-subsystem dimensions, subsystem 0 slowest-varying.
    party_a: indices of the subsystems forming party A (strict, non-empty
    subset of range(len(dims))).
    """

    dims: tuple[int, ...]
    party_a: tuple[int, ...]

    def __init__(self, dims, party_a):
        dims = tuple(_integer(d, "each entry of dims") for d in dims)
        party_a = tuple(sorted(set(_integer(i, "each entry of party_a") for i in party_a)))
        if len(dims) < 1 or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        if not party_a:
            raise ValueError("party A must be non-empty")
        if any(i < 0 or i >= len(dims) for i in party_a):
            raise ValueError(f"party A indices {party_a} out of range for {len(dims)} subsystems")
        if len(party_a) == len(dims):
            raise ValueError("party A must be a strict subset of the subsystems")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "party_a", party_a)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def party_b(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.dims)) if i not in self.party_a)

    @property
    def dim_a(self) -> int:
        return math.prod(self.dims[i] for i in self.party_a)

    @property
    def dim_b(self) -> int:
        return math.prod(self.dims[i] for i in self.party_b)


def _float_or_complex(m) -> np.ndarray:
    """m as a complex128 array when it has a complex dtype, float64
    otherwise; an array already of that dtype is returned as it is."""
    m = np.asarray(m)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def _check_square(m: np.ndarray, layout: SubsystemLayout | None = None) -> np.ndarray:
    """m as a square matrix, or a stack of them along leading axes, in
    _float_or_complex's dtype. Real input stays real, so every kernel
    taking it runs in real arithmetic on half the bytes."""
    m = _float_or_complex(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if layout is not None and m.shape[-1] != layout.dim:
        raise ValueError(f"matrix dimension {m.shape[-1]} != layout dimension {layout.dim}")
    return m


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def _real(value, name: str):
    """value when it is a real number; True, a string or a complex is refused by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def require_tolerance(tol: float, name: str) -> float:
    """tol when it is finite and >= 0: a tolerance or a truncation deficit.
    A NaN would make every comparison against it false and pass anything."""
    if not (math.isfinite(_real(tol, name)) and tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    return tol


def require_positive(value: float, name: str) -> float:
    """value when it is finite and > 0: a measure power or a squeezing parameter."""
    if not (math.isfinite(_real(value, name)) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def _slab_max(axes, slab, what: str) -> tuple[float, tuple]:
    """(maximum, its point) of a float64 grid over the product of the 1-D
    arrays axes, from slab(start, stop): rows start:stop along the last
    axis, about GRID_SLAB_BYTES a slab. The point is np.argmax's over the
    whole grid. The first non-finite value, which a maximum would hide or
    report as a value, raises ValueError naming what and its point."""
    shape = tuple(len(a) for a in axes)
    rows, width = math.prod(shape[:-1]), shape[-1]

    def point(k):
        return tuple(float(a[i]) for a, i in zip(axes, np.unravel_index(k, shape)))

    step = max(1, GRID_SLAB_BYTES // (8 * width))
    worst, at = -math.inf, 0
    for start in range(0, rows, step):
        vals = slab(start, min(start + step, rows))
        finite = np.isfinite(vals)
        if not finite.all():
            raise ValueError(f"{what} at {point(start * width + int(np.argmin(finite)))}")
        k = int(np.argmax(vals))
        if vals.flat[k] > worst:
            worst, at = float(vals.flat[k]), start * width + k
    return worst, point(at)


def require_normalized(psi: np.ndarray) -> np.ndarray:
    """Finite amplitudes with |psi|^2 within TRACE_TOL of 1; psi is one
    vector or a stack of them along leading axes."""
    require_finite(psi, "amplitudes")
    with np.errstate(over="ignore"):  # |psi|^2 = inf is refused below
        weights = np.linalg.norm(psi, axis=-1) ** 2
    off = np.abs(weights - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"pure state is not normalized: |psi|^2 = {float(weights[off].flat[0])!r}")
    return psi


def _check_distribution(lam, size: int | None = None) -> np.ndarray:
    """lam as a float vector of Schmidt coefficients: non-empty, of length
    `size` when given, non-negative and summing to 1 within TRACE_TOL.
    Each entry of a vector must be a real number (_real) before anything
    is converted to float, which would read True as 1.0 and parse '0.5'."""
    entries = np.asarray(lam, dtype=object)
    if entries.ndim == 1:
        lam = np.array([_real(x, "each Schmidt coefficient") for x in entries], dtype=float)
    if entries.ndim != 1 or lam.size == 0 or np.any(lam < 0):
        raise ValueError(f"Schmidt coefficients must be a non-negative vector, got {lam}")
    if size is not None and lam.size != size:
        raise ValueError(f"need exactly {size} Schmidt coefficients, got {lam.size}")
    if not abs(float(lam.sum()) - 1.0) <= TRACE_TOL:
        raise ValueError(f"Schmidt coefficients must sum to 1, got {float(lam.sum())!r}")
    return lam


def _hermitian_defect(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max |m - m^H|, max |entry|) of each matrix in a non-empty stack, in
    one walk over the block upper triangle: each strip of HERM_STRIP rows,
    from the diagonal on, is compared with its mirrored strip of columns,
    keeping running maxima, so no temporary grows past a strip. Since
    |a - conj b| = |b - conj a| exactly and a maximum does not depend on
    its order, both equal the whole-matrix formula's bit for bit; a NaN or
    infinite entry makes top NaN or inf."""
    top = defect = np.zeros(m.shape[:-2])
    axes = (-2, -1)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf differences are refused
        for i in range(0, m.shape[-1], HERM_STRIP):
            rows, cols = m[..., i:i + HERM_STRIP, i:], m[..., i:, i:i + HERM_STRIP]
            for part in (rows, cols):
                top = np.maximum(top, np.max(np.abs(part), axis=axes))
            diff = rows - np.swapaxes(cols, -2, -1).conj()
            defect = np.maximum(defect, np.max(np.abs(diff), axis=axes))
    return defect, top


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """m (one matrix or a stack) when each matrix is finite and within
    HERM_TOL_BASE * max(1, its largest |entry|) of its conjugate transpose,
    all read in one walk (_hermitian_defect); a non-finite entry raises
    "{what} contains non-finite entries"."""
    m = _check_square(m)
    if not m.size:
        return m
    defect, top = _hermitian_defect(m)
    if not np.all(np.isfinite(top)):
        raise ValueError(f"{what} contains non-finite entries")
    scale = np.maximum(1.0, top)
    off = defect > HERM_TOL_BASE * scale
    if np.any(off):
        raise ValueError(f"matrix is not Hermitian within tolerance: defect "
                         f"{defect[off].flat[0]:.3e} > {HERM_TOL_BASE * scale[off].flat[0]:.3e}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor's indices are slower-varying."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_transpose(rho: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Transpose all party-A tensor indices of a square operator, or of each
    operator in a stack along leading axes.

    Pure index bookkeeping (no arithmetic), so applying it twice returns
    the input bit-exactly. Hermiticity of the input is preserved.
    """
    rho = _check_square(rho, layout)
    lead = rho.ndim - 2
    n = len(layout.dims)
    t = rho.reshape(rho.shape[:lead] + layout.dims + layout.dims)
    perm = list(range(lead + 2 * n))
    for i in layout.party_a:
        a, b = lead + i, lead + n + i
        perm[a], perm[b] = perm[b], perm[a]
    return np.ascontiguousarray(t.transpose(perm)).reshape(rho.shape)


def _coupled_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of the graph on range(n) with an edge wherever
    m[i, j] != 0 or m[j, i] != 0 in m or any matrix of its stack: index
    arrays, each ascending, in order of their first index. Both sides of
    the diagonal count, because a matrix Hermitian only within tolerance
    may be zero on one side, and eigvalsh reads the lower triangle.

    Both routes start from the n x n boolean nonzero mask, and the pattern
    chooses between them. A sparse one, with at most 1/32 of its entries
    nonzero, such as a Fock-basis partial transpose (one per row), is
    split by _label_blocks in whole-array operations on O(nnz) index
    arrays, about 40 bytes per nonzero, so at most about the mask's size.
    A denser one is searched breadth first by _search_blocks, which stops
    after one row when the matrix has no zero entries, and builds no
    index arrays. On permuted block-diagonal and banded patterns at n =
    64 to 4096 the labels were faster wherever they are used.
    """
    linked = np.any(m != 0, axis=tuple(range(m.ndim - 2))) if m.ndim > 2 else m != 0
    if 32 * np.count_nonzero(linked) > linked.size:
        return _search_blocks(linked)
    return _label_blocks(linked)


def _search_blocks(linked: np.ndarray) -> list[np.ndarray]:
    """_coupled_blocks of a boolean mask by breadth-first search: each row
    and column is read at most once, and the search stops as soon as every
    index is placed, so a mask with no false entries costs one row."""
    unseen = np.ones(linked.shape[0], dtype=bool)
    blocks = []
    for start in range(linked.shape[0]):
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


def _label_blocks(linked: np.ndarray) -> list[np.ndarray]:
    """_coupled_blocks of a boolean mask by min-label propagation.

    Every index points at a root, at first itself. Each round, for every
    edge, the roots of its two ends point at the smaller of the two (the
    smallest over all their edges), and then every index jumps
    root[root[i]] until it reaches a root. A root is never larger than
    the indices that point at it, so when a round changes nothing, each
    component's indices point at its smallest index. Without the jumps a
    path would take about one round per index along it; with them, long
    paths in any index order take a few rounds.
    """
    n = linked.shape[0]
    rows, cols = np.divmod(np.flatnonzero(linked), n)
    root = np.arange(n)
    while True:
        ends_r, ends_c = root[rows], root[cols]
        low = np.minimum(ends_r, ends_c)
        hooked = root.copy()
        np.minimum.at(hooked, ends_r, low)
        np.minimum.at(hooked, ends_c, low)
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked
    order = np.argsort(root, kind="stable")
    starts = np.flatnonzero(np.diff(root[order], prepend=-1)).tolist()
    return [order[a:b] for a, b in zip(starts, starts[1:] + [n])]


def trace_norm_hermitian(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, which must pass
    require_hermitian (finite entries included), as _trace_norm of
    _trace_norm_blocks' pair."""
    m = require_hermitian(m)
    if m.ndim != 2:
        raise ValueError(f"expected one square matrix, got shape {m.shape}")
    return float(_trace_norm(*_trace_norm_blocks(m)))


def _trace_norm(w, neg):
    """The trace norm w + 2 neg of a Hermitian matrix whose eigenvalues
    sum to w and whose negative eigenvalues sum to -neg."""
    return w + 2.0 * neg


def _trace_norm_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, neg) of each square matrix in m (float64 or complex128; one
    matrix, or a stack along leading axes, giving arrays of shape
    m.shape[:-2]) that the caller has already found finite and Hermitian:
    the sum w of its eigenvalues and the magnitude neg of the sum of its
    negative ones, from one spectrum. This is the one place that turns
    partial transposes into the pairs every negativity value and trace
    norm (_trace_norm) is read from.

    m is split into the blocks its nonzero entries couple (_coupled_blocks,
    on the union of a stack's patterns), so a Fock-basis partial transpose
    falls into 1x1 and 2x2 blocks and never goes to one dense eigensolve,
    while a generic matrix, or a stack of Haar-random reduced states, is
    one block and runs one (stacked) eigvalsh. Blocks of equal size share
    one stacked eigvalsh, and the eigenvalues are summed along the last
    axis, by block size, then by each block's first index. The split costs
    one n x n boolean mask, plus O(nnz) index arrays (about 40 bytes per
    nonzero) when the pattern is sparse.
    """
    blocks = _coupled_blocks(m)
    if len(blocks) <= 1:
        mu = np.linalg.eigvalsh(m)
    else:
        spectra = []
        for size in sorted({b.size for b in blocks}):
            idx = np.array([b for b in blocks if b.size == size])
            spectrum = np.linalg.eigvalsh(m[..., idx[:, :, None], idx[:, None, :]])
            spectra.append(spectrum.reshape(m.shape[:-2] + (-1,)))
        mu = np.concatenate(spectra, axis=-1)
    # 0.0 - x turns a sum of zeros into +0.0, so a PPT matrix has neg = +0.0.
    return np.sum(mu, axis=-1), 0.0 - np.sum(np.minimum(mu, 0.0), axis=-1)


def partial_trace(rho: np.ndarray, layout: SubsystemLayout, keep) -> np.ndarray:
    """Trace out all subsystems not in `keep`; kept subsystems stay in order."""
    rho = _check_square(rho, layout)
    keep = sorted(set(_integer(i, "each entry of keep") for i in keep))
    n = len(layout.dims)
    if not keep:
        raise ValueError("keep must be non-empty")
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"keep indices {keep} out of range")
    t = rho.reshape(layout.dims + layout.dims)
    # Contract bra/ket labels of traced subsystems.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    result = np.einsum(t, row + col, out)
    d_keep = int(np.prod([layout.dims[i] for i in keep]))
    return result.reshape(d_keep, d_keep)


def group_subsystems(psi: np.ndarray, dims, rows) -> np.ndarray:
    """Amplitudes over dims (one vector, or a stack along leading axes) as
    matrices with the subsystems `rows`, in the order given, on the rows
    and every other subsystem, in index order, on the columns. rows may
    name every subsystem, which gives one column."""
    dims, rows = tuple(dims), tuple(rows)
    lead = psi.ndim - 1
    d_rows = math.prod(dims[i] for i in rows)
    t = np.moveaxis(psi.reshape(psi.shape[:-1] + dims), [lead + i for i in rows],
                    range(lead, lead + len(rows)))
    return t.reshape(psi.shape[:-1] + (d_rows, math.prod(dims) // d_rows))


def bipartite_matrix(psi: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Amplitudes (one vector or a stack) as (dim_A, dim_B) matrices, A-axes first."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != layout.dim:
        raise ValueError(f"amplitude count {psi.shape[-1]} != layout dimension {layout.dim}")
    return group_subsystems(psi, layout.dims, layout.party_a)


def schmidt_decompose(psi: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Schmidt coefficients across the layout's A|B split, descending, of
    one amplitude vector or of each in a stack along leading axes (then
    along the last axis). psi must pass require_normalized, so each set
    sums to 1 within TRACE_TOL."""
    psi = require_normalized(np.asarray(psi, dtype=complex))
    return np.linalg.svd(bipartite_matrix(psi, layout), compute_uv=False) ** 2
