"""State constructors: Bell pairs, Schmidt-form states, truncated two-mode
squeezed vacuum, and seeded random sampling.

Sampling is backed by the counter-based Philox generator so that per-sample
substreams derived from (master_seed, sample_index) are reproducible
independently of execution order or chunk size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import (
    TRACE_TOL,
    SubsystemLayout,
    _check_distribution,
    _float_or_complex,
    _integer,
    _trace_norm_blocks,
    partial_transpose,
    require_hermitian,
    require_normalized,
    require_positive,
    require_tolerance,
    schmidt_decompose,
)

PSD_TOL = 1e-10
DEFAULT_DEFICIT_TARGET = 1e-12
MAX_DEFAULT_CUTOFF = 128
MAX_TRUNCATION_DEFICIT = 0.01


def require_unit_density(m: np.ndarray, what: str = "density matrix") -> np.ndarray:
    """m (one matrix or a stack) when each passes tensor.require_hermitian
    (its messages name what) and has trace 1 within TRACE_TOL."""
    m = require_hermitian(m, what)
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"{what} trace {complex(np.ravel(tr)[np.argmax(off)])} != 1")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a, keeping its float64 or complex128 dtype."""
    a = np.array(a)
    a.setflags(write=False)
    return a


def _storage_dtype(m) -> np.ndarray:
    """m, or a float64 view of its real part when every imaginary part is 0."""
    m = _float_or_complex(m)
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def _built(matrix, layout: SubsystemLayout, truncation_deficit: float = 0.0) -> "DensityMatrix":
    """A new array that no caller holds, stored read-only, unchecked and uncopied
    (a real part's view is copied out): a state this package has just built
    is Hermitian, unit-trace and PSD, so a check could only refuse rounding."""
    m = _storage_dtype(matrix)
    m = m if m.flags.owndata else m.copy()
    m.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    vars(rho).update(matrix=m, layout=layout, truncation_deficit=truncation_deficit)
    return rho


def _read_density(matrix, layout, truncation_deficit, psd_tol: float) -> "DensityMatrix":
    """A file's new array, checked as a caller's is but at psd_tol, and kept uncopied."""
    rho = _built(matrix, layout, truncation_deficit)
    rho._check(psd_tol)
    return rho


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^H) / 2 as a new C-ordered array, holding one temporary
    fewer than the formula; addition commutes, so the bits are the same."""
    h = np.conjugate(m.T, order="C")
    h += m
    h /= 2
    return h


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a subsystem layout.

    truncation_deficit is the probability weight lost to Fock truncation
    before renormalization (0 for exact finite-dimensional states).
    """

    amplitudes: np.ndarray
    layout: SubsystemLayout
    truncation_deficit: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.layout.dim:
            raise ValueError(f"amplitude count {amps.shape[0]} != layout dimension {self.layout.dim}")
        require_normalized(amps)
        require_tolerance(self.truncation_deficit, "truncation_deficit")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    def density_matrix(self) -> "DensityMatrix":
        """|psi><psi|; float64 when the amplitudes are all real."""
        a = self.amplitudes
        rho = np.outer(a, a.conj()) if a.imag.any() else np.outer(a.real, a.real)
        return _built(rho, self.layout, self.truncation_deficit)

    @cached_property
    def schmidt_coefficients(self) -> np.ndarray:
        """Schmidt coefficients across the A|B split, descending, computed
        once per state; the array is read-only."""
        lam = schmidt_decompose(self.amplitudes, self.layout)
        lam.setflags(write=False)
        return lam


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix over a subsystem layout.

    A matrix whose imaginary parts are all zero is stored as its float64
    real part, and everything computed from it (the checks below, the
    partial transpose and its spectrum) runs in real arithmetic on half
    the bytes; any other matrix is stored as complex128.

    A caller's matrix is checked once: its shape, then finiteness and
    Hermiticity in one walk over upper-triangle strips (require_hermitian),
    then its trace, the deficit and validate(); only then is it copied,
    read-only. In n x n arrays, that build holds the input, validate()'s
    shifted copy and Cholesky's two buffers (numpy's work copy and its
    output), then the input and the copy; a measure holds the stored
    matrix, its partial transpose and eigvalsh's work copy (256 MB each at
    n = 4096 complex).
    A state this package builds is stored unchecked and uncopied (_built);
    a file's matrix is checked at the file's PSD tolerance and not copied.

    The partial-transpose trace norm is computed once and kept (the
    matrix is read-only, so it cannot go stale) by the kernel the monogamy
    scans share, tensor._trace_norm_blocks, which splits a Fock-basis
    state's partial transpose into 1x1 and 2x2 blocks. validate() computes
    eigenvalues only for a matrix it rejects or one whose smallest
    eigenvalue lies within rounding of -psd_tol.
    """

    matrix: np.ndarray
    layout: SubsystemLayout
    truncation_deficit: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _storage_dtype(self.matrix))
        self._check(PSD_TOL)
        object.__setattr__(self, "matrix", _freeze(self.matrix))  # after validate()'s buffers are freed

    def _check(self, psd_tol: float) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.layout.dim:
            raise ValueError(f"density matrix shape {m.shape} incompatible with layout dim {self.layout.dim}")
        require_unit_density(m)
        require_tolerance(self.truncation_deficit, "truncation_deficit")
        self.validate(psd_tol)

    def validate(self, psd_tol: float = PSD_TOL) -> None:
        """Reject a matrix whose smallest eigenvalue is below -psd_tol.

        A Cholesky factorization of rho + psd_tol*I accepts the matrix
        without an eigensolve; only when it fails are the eigenvalues
        computed and the rule applied to them, so the error names the
        smallest one. A smallest eigenvalue within rounding of -psd_tol
        may be judged either way.
        """
        require_tolerance(psd_tol, "psd_tol")
        shifted = self.matrix.copy()
        shifted.flat[::shifted.shape[0] + 1] += psd_tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(self.matrix)
            if w[0] < -psd_tol:
                raise ValueError(f"density matrix has negative eigenvalue {w[0]:.3e}") from None

    @cached_property
    def _pt_trace_norm(self) -> float:
        # The partial transpose only moves entries, so it is as finite and
        # as Hermitian (same defect, same largest |entry|) as the matrix
        # __post_init__ checked; checking it again could never fail.
        return float(_trace_norm_blocks(partial_transpose(self.matrix, self.layout)))


def require_squeezing(r) -> float:
    """r as a float when it is a squeezing parameter: finite and > 0."""
    return require_positive(float(r), "squeezing parameter r")


def _require_chi_below_one(r) -> float:
    """chi = tanh r when r is a squeezing parameter whose chi lies below 1
    in float64 (tanh r rounds to 1 from r ~ 19.06 on)."""
    chi = math.tanh(require_squeezing(r))
    if not chi < 1:
        raise ValueError(f"chi = tanh r must lie below 1 in float64, got r = {r}")
    return chi


@dataclass(frozen=True)
class TmsvsSpec:
    """Two-mode squeezed vacuum parameters: squeezing r and the Fock cutoff
    used for truncation; chi = tanh r."""

    r: float
    cutoff: int

    def __post_init__(self):
        _require_chi_below_one(self.r)
        object.__setattr__(self, "cutoff", _integer(self.cutoff, "cutoff"))
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if (self.cutoff + 1) ** 2 > sys.maxsize:  # no array holds that many amplitudes
            raise ValueError(f"cutoff must be at most {math.isqrt(sys.maxsize) - 1}, "
                             f"got {self.cutoff}")

    @property
    def chi(self) -> float:
        return math.tanh(self.r)

    @staticmethod
    def from_r(r: float, cutoff: int | None = None) -> "TmsvsSpec":
        chi = _require_chi_below_one(r)
        return TmsvsSpec(r=float(r), cutoff=default_cutoff(chi) if cutoff is None else cutoff)

    @property
    def truncation_deficit(self) -> float:
        return self.chi ** (2 * (self.cutoff + 1))


def default_cutoff(chi: float) -> int:
    """Smallest n_max with chi^(2(n_max+1)) <= DEFAULT_DEFICIT_TARGET: the
    amplitude tail at the deficit's square root, capped at
    MAX_DEFAULT_CUTOFF."""
    tail = math.sqrt(DEFAULT_DEFICIT_TARGET)
    return min(MAX_DEFAULT_CUTOFF, cutoff_for_amplitude_tail(chi, tail))


def cutoff_for_amplitude_tail(chi: float, tail: float) -> int:
    """Smallest n_max with chi^(n_max+1) <= tail.

    On a truncated two-mode squeezed state the amplitude tail
    t = chi^(n_max+1) (not the probability deficit, which is its square)
    bounds the truncation error of the ratio negativity, which is
    sech^2(r) t/(1 - chi t) <= t. It does not bound the other measures:
    the negativity error is e^(2r) t/(1 + t) and the log-negativity error
    is log2((1 + t)/(1 - t)), so size the tail to the target accuracy
    divided by e^(2r) for negativity.
    """
    if not (0 < chi < 1):
        raise ValueError(f"chi must lie in (0, 1), got {chi!r}")
    if not (0 < tail < 1):
        raise ValueError("tail must lie in (0, 1)")
    # The log estimate can round a step either way; start below it and step up.
    n = max(1, math.ceil(math.log(tail) / math.log(chi) - 1) - 1)
    while chi ** (n + 1) > tail:
        n += 1
    return n


def bell_state() -> PureState:
    """(|00> + |11>)/sqrt(2) on two qubits, party A = subsystem 0."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return PureState(amps, SubsystemLayout((2, 2), (0,)))


def pure_from_schmidt(lam, dims: tuple[int, int]) -> PureState:
    """Sum_a sqrt(lam_a) |aa> in the computational basis of a dA x dB system."""
    lam = np.asarray(lam, dtype=float)
    if len(dims) != 2:
        raise ValueError(f"dims must name two parties (dA, dB), got {tuple(dims)}")
    d_a, d_b = _integer(dims[0], "each entry of dims"), _integer(dims[1], "each entry of dims")
    if lam.ndim != 1 or lam.size == 0 or lam.size > min(d_a, d_b):
        raise ValueError(f"need 1 <= len(lambda) <= min{(d_a, d_b)}, got {lam.size}")
    if np.any(lam <= 0):
        raise ValueError("Schmidt coefficients must be > 0")
    _check_distribution(lam)
    amps = np.zeros((d_a, d_b), dtype=complex)
    amps[np.arange(lam.size), np.arange(lam.size)] = np.sqrt(lam)
    return PureState(amps.reshape(-1), SubsystemLayout((d_a, d_b), (0,)))


def tmsvs_truncated(spec: TmsvsSpec) -> PureState:
    """Fock-truncated two-mode squeezed vacuum, renormalized to unit norm.

    The weight lost to truncation (before renormalization) is recorded as
    truncation_deficit. Cutoffs losing more than 1% weight are refused
    rather than silently misrepresenting the state.
    """
    deficit = spec.truncation_deficit
    if deficit > MAX_TRUNCATION_DEFICIT:
        raise ValueError(
            f"cutoff {spec.cutoff} loses {deficit:.3e} probability weight for chi={spec.chi}; "
            f"increase the cutoff (limit {MAX_TRUNCATION_DEFICIT})")
    n = np.arange(spec.cutoff + 1)
    diag = math.sqrt(1 - spec.chi ** 2) * spec.chi ** n
    diag = diag / np.linalg.norm(diag)
    d = spec.cutoff + 1
    amps = np.zeros((d, d), dtype=complex)
    amps[n, n] = diag
    layout = SubsystemLayout((d, d), (0,))
    return PureState(amps.reshape(-1), layout, truncation_deficit=deficit)


def _substream_key(master_seed: int, index: int) -> np.ndarray:
    return np.array([np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF),
                     np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for sample `index` of a seeded scan.

    Philox is keyed on the (seed, index) pair directly, so streams do not
    depend on how many samples ran before this one.
    """
    return np.random.Generator(np.random.Philox(key=_substream_key(master_seed, index)))


def _as_generator(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else substream(_integer(seed, "seed"), 0)


def random_haar_pure(layout: SubsystemLayout, seed) -> PureState:
    """Haar-random pure state: normalized standard complex Gaussian vector."""
    rng = _as_generator(seed)
    v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    v /= np.linalg.norm(v)
    return PureState(v, layout)


def haar_amplitude_rows(dim: int, master_seed: int, indices: range) -> np.ndarray:
    """Stack of Haar-random amplitude vectors, shape (len(indices), dim).

    Row k is normalized from the same normal draws that random_haar_pure
    takes from substream(master_seed, indices[k]). One generator serves
    the whole call: its fresh state dict (counter 0, key (master_seed, 0),
    empty output buffer) is read once, and each row writes its index into
    the dict's key and assigns the dict back. The state setter copies the
    values, so every row starts a fresh (master_seed, index) stream, and a
    call builds one dict and one key array, none per row.
    """
    raw = np.empty((len(indices), 2, dim))
    rng = substream(master_seed, 0)
    state = rng.bit_generator.state
    key = state["state"]["key"]
    for k, index in enumerate(indices):
        key[1] = index & 0xFFFFFFFFFFFFFFFF
        rng.bit_generator.state = state
        rng.standard_normal(out=raw[k])
    v = raw[:, 0] + 1j * raw[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def random_density_matrix(layout: SubsystemLayout, rank: int, seed) -> DensityMatrix:
    """Wishart-type random mixed state G G^dag / tr(G G^dag) with G dim x rank."""
    if not (1 <= rank <= layout.dim):
        raise ValueError(f"rank must lie in [1, {layout.dim}], got {rank}")
    rng = _as_generator(seed)
    g = rng.standard_normal((layout.dim, rank)) + 1j * rng.standard_normal((layout.dim, rank))
    rho = g @ g.conj().T
    rho /= np.real(np.trace(rho))
    return _built(_hermitian_part(rho), layout)


def apply_kraus_branches(state: DensityMatrix | PureState, kraus_ops) -> list[tuple[float, DensityMatrix]]:
    """Outcome branches (probability, renormalized post-state) of a
    generalized measurement given by full-space Kraus operators.

    The operators must satisfy sum_i K_i^dag K_i = I within 1e-10 entrywise.
    A branch of probability below 1e-14 is left out, so the list can be
    shorter than the operators.
    """
    rho = state.density_matrix() if isinstance(state, PureState) else state
    kraus_ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    dim = rho.layout.dim
    for i, k in enumerate(kraus_ops):
        if k.shape != (dim, dim):
            raise ValueError(f"Kraus operator {i} has shape {k.shape}; the state has "
                             f"dimension {dim}, so each operator must be ({dim}, {dim})")
    total = sum(k.conj().T @ k for k in kraus_ops)
    if not np.allclose(total, np.eye(dim), rtol=0.0, atol=1e-10):
        raise ValueError("Kraus operators do not resolve the identity")
    branches = []
    for k in kraus_ops:
        out = k @ rho.matrix @ k.conj().T
        p = float(np.real(np.trace(out)))
        if p < 1e-14:
            continue
        out = _hermitian_part(out)
        out /= p
        branches.append((p, _built(out, rho.layout, rho.truncation_deficit)))
    return branches
