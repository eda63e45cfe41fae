"""Dense complex linear algebra over multipartite Hilbert spaces.

Index convention (fixed): subsystem 0 is the slowest-varying tensor index,
i.e. a state on dims (d0, d1, ...) is stored row-major as the C-order
flattening of an array of shape (d0, d1, ...). All operations in this
package follow this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL_BASE = 1e-10
EIG_TOL = 1e-10
NORM_TOL = 1e-10
SCHMIDT_CUTOFF = 1e-12


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
        dims = tuple(int(d) for d in dims)
        party_a = tuple(sorted(set(int(i) for i in party_a)))
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
        return int(np.prod(self.dims))

    @property
    def party_b(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.dims)) if i not in self.party_a)

    @property
    def dim_a(self) -> int:
        return int(np.prod([self.dims[i] for i in self.party_a]))

    @property
    def dim_b(self) -> int:
        return int(np.prod([self.dims[i] for i in self.party_b]))


def _check_square(m: np.ndarray, layout: SubsystemLayout | None = None) -> np.ndarray:
    """m as a complex square matrix, or a stack of them along leading axes."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if layout is not None and m.shape[-1] != layout.dim:
        raise ValueError(f"matrix dimension {m.shape[-1]} != layout dimension {layout.dim}")
    return m


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError(f"{what} contains non-finite entries")
    return a


def require_normalized(psi: np.ndarray) -> np.ndarray:
    """Finite amplitudes of unit norm within NORM_TOL; psi is one vector or
    a stack of them along leading axes."""
    require_finite(psi, "amplitudes")
    norms = np.linalg.norm(psi, axis=-1)
    off = np.abs(norms - 1.0) > NORM_TOL
    if np.any(off):
        raise ValueError(f"pure state is not normalized: |psi| = {float(norms[off].flat[0])!r}")
    return psi


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """m (one matrix or a stack) when each matrix deviates from its conjugate
    transpose by at most HERM_TOL_BASE * max(1, its largest |entry|)."""
    m = _check_square(m)
    if not m.size:
        return m
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    defect = np.max(np.abs(m - np.swapaxes(m, -2, -1).conj()), axis=(-2, -1))
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


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (or of each in a stack), ascending."""
    m = require_hermitian(m)
    require_finite(m, "matrix")
    return np.linalg.eigvalsh(m)


def hermitian_eigensystem(m: np.ndarray):
    """(eigenvalues ascending, column eigenvectors) of a Hermitian matrix."""
    m = require_hermitian(m)
    require_finite(m, "matrix")
    return np.linalg.eigh(m)


def _coupled_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of the graph on range(n) with an edge wherever
    m[i, j] != 0 or m[j, i] != 0: index arrays, each ascending, in order of
    their first index. Both sides of the diagonal count, because a matrix
    Hermitian only within tolerance may be zero on one side, and eigvalsh
    reads the lower triangle.

    Breadth-first search over the boolean nonzero mask; each row and
    column is read at most once, and the search stops as soon as every
    index is placed, so a matrix with no zero entries costs one row.
    """
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


def trace_norm_hermitian(m: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix.

    The spectrum is taken block by block: m is split into the blocks its
    nonzero entries couple (_coupled_blocks), so a matrix that is block
    diagonal up to a permutation of its basis, such as the partial
    transpose of a Fock-basis two-mode squeezed state (1x1 and 2x2
    blocks), never goes to one dense eigensolve. Blocks of equal size go
    to one stacked eigvalsh, and |eigenvalues| are summed by block size,
    then by each block's first index. A matrix that does not split runs
    one eigvalsh on the whole matrix.
    """
    m = require_hermitian(m)
    require_finite(m, "matrix")
    if m.ndim != 2:
        raise ValueError(f"expected one square matrix, got shape {m.shape}")
    blocks = _coupled_blocks(m)
    if len(blocks) <= 1:
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    spectra = []
    for size in sorted({b.size for b in blocks}):
        idx = np.array([b for b in blocks if b.size == size])
        spectra.append(np.linalg.eigvalsh(m[idx[:, :, None], idx[:, None, :]]).ravel())
    return float(np.sum(np.abs(np.concatenate(spectra))))


def partial_trace(rho: np.ndarray, layout: SubsystemLayout, keep) -> np.ndarray:
    """Trace out all subsystems not in `keep`; kept subsystems stay in order."""
    rho = _check_square(rho, layout)
    keep = sorted(set(int(i) for i in keep))
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


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Bipartite Schmidt data: probabilities descending, orthonormal vectors.

    coefficients are the probabilities lambda_i (squared singular values);
    rank counts coefficients above the reporting cutoff, but the full
    coefficient list is kept.
    """

    coefficients: np.ndarray
    left: np.ndarray   # columns are party-A vectors
    right: np.ndarray  # columns are party-B vectors
    rank: int
    layout: SubsystemLayout = field(repr=False, default=None)


def bipartite_matrix(psi: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Reshape an amplitude vector to a (dim_A, dim_B) matrix, A-axes first."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != layout.dim:
        raise ValueError(f"amplitude count {psi.shape[0]} != layout dimension {layout.dim}")
    t = psi.reshape(layout.dims)
    perm = list(layout.party_a) + list(layout.party_b)
    return np.ascontiguousarray(t.transpose(perm)).reshape(layout.dim_a, layout.dim_b)


def schmidt_decompose(psi: np.ndarray, layout: SubsystemLayout) -> SchmidtDecomposition:
    """Schmidt decomposition across the layout's A|B split.

    psi must be normalized within NORM_TOL. Coefficients sum to 1 and come
    out descending; the reported rank drops coefficients below SCHMIDT_CUTOFF.
    """
    psi = require_normalized(np.asarray(psi, dtype=complex).reshape(-1))
    mat = bipartite_matrix(psi, layout)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    lam = s ** 2
    rank = int(np.count_nonzero(lam > SCHMIDT_CUTOFF))
    return SchmidtDecomposition(coefficients=lam, left=u, right=vh.conj().T,
                                rank=rank, layout=layout)
