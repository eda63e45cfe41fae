"""Monogamy machinery: residuals of the one-against-rest inequality for
powered ratio negativity on multipartite pure states, the auxiliary
function behind the power threshold, a scalar grid checker for the
two-term inequality, and seeded Monte-Carlo scans.

Mixed multipartite inputs are rejected: on mixed states the inequality
involves a convex-roof extension whose evaluation is out of scope, while
on pure states the extension coincides with the plain measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _check_alpha, _clamped_negativity, _from_negativity, _schmidt_trace_norm
from .states import DensityMatrix, PureState, haar_amplitude_rows, require_unit_density
from .tensor import (SubsystemLayout, _integer, _slab_max, _trace_norm_blocks, group_subsystems,
                     partial_transpose, require_tolerance, schmidt_decompose)

VIOLATION_TOL = 1e-9
DEFAULT_GRID_N = 500
GRID_TOL = 1e-12
HISTOGRAM_BINS = 64
HISTOGRAM_RANGE = (-0.1, 1.0)
# Scans draw and evaluate samples in chunks whose amplitudes and largest
# two-party marginals take about this many bytes; the temporaries of one
# chunk are a small multiple of it.
SCAN_CHUNK_BYTES = 1 << 22
# The largest state dimension a scan draws: one sample's amplitudes then
# take 64 GiB, and larger dims are refused before any sample is drawn.
_MAX_SCAN_DIM = 1 << 32

# Families the power threshold is proven for: any number of qubits, or
# three parties with dimensions (2, 2, 3) or (2, 2, 2^m).
def family_supported(dims) -> bool:
    dims = tuple(_integer(d, "each entry of dims") for d in dims)
    if len(dims) >= 3 and all(d == 2 for d in dims):
        return True
    if len(dims) == 3 and dims[0] == 2 and dims[1] == 2:
        d = dims[2]
        if d == 3:
            return True
        while d % 2 == 0:
            d //= 2
        return d == 1
    return False


def alpha_threshold() -> float:
    """ln 2 / ln(3(sqrt 2 - 1)), the smallest power at which the
    one-against-rest inequality is guaranteed on the covered families."""
    return math.log(2.0) / math.log(3.0 * (math.sqrt(2.0) - 1.0))


def aux_g(r: float, u: float) -> float:
    """2 * log base ((1+r)u / (1+ru)) of u.

    Governs where [ (1+r)u / (1+ru) ]^alpha <= u^2 starts holding; the
    power threshold equals aux_g(1/sqrt2, 1/sqrt2).
    """
    if not (0.0 < u < 1.0):
        raise ValueError(f"u must lie in (0, 1), got {u}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"r must be finite and > 0, got {r}")
    base = (1.0 + r) * u / (1.0 + r * u)
    if abs(base - 1.0) < 1e-14:
        raise ValueError(f"logarithm base degenerates to 1 at (r={r}, u={u})")
    return 2.0 * math.log(u) / math.log(base)


@dataclass(frozen=True)
class MonogamyReport:
    dims: tuple[int, ...]
    party_a: tuple[int, ...]
    measure: str
    alpha: float
    lhs: float
    rhs_terms: tuple[float, ...]
    residual: float
    satisfied: bool


def _check_residual_args(dims: tuple[int, ...], measure: str, alpha: float,
                         party_a) -> tuple[int, ...]:
    if len(dims) < 3:
        raise ValueError(f"need at least 3 parties, got {len(dims)}")
    _check_alpha(alpha)
    if measure not in ("ratio", "negativity"):
        raise ValueError(f"unsupported measure {measure!r}: monogamy residuals are negativity-based")
    return SubsystemLayout(dims, party_a).party_a


def ckw_residuals(amplitudes, dims, party_a=(0,), measure: str = "ratio",
                  alpha: float = 1.0):
    """(lhs, rhs, residual) of the one-against-rest inequality for a stack
    of pure states, one normalized amplitude vector per row of `amplitudes`.

    lhs has shape (n,): E^alpha across A|rest from the Schmidt closed form.
    rhs has shape (n, parties outside A): E^alpha on the reduced state of A
    and each party outside A, in index order. residual = lhs - rhs summed.
    Each reduced state is M M^dag for the amplitude tensor M reshaped to
    (kept, traced) indices; the full density matrix is never formed. Both
    sides share evaluate_measure's kernels and equal it bit for bit.
    """
    dims = tuple(_integer(d, "each entry of dims") for d in dims)
    party_a = _check_residual_args(dims, measure, alpha, party_a)
    split = SubsystemLayout(dims, party_a)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 2 or amps.shape[1] != split.dim:
        raise ValueError(f"amplitudes must have shape (n, {split.dim}), got {amps.shape}")
    lam = schmidt_decompose(amps, split)
    lhs = _from_negativity(_clamped_negativity(_schmidt_trace_norm(lam)), measure, alpha)

    rhs = np.empty((amps.shape[0], len(split.party_b)))
    for j, b in enumerate(split.party_b):
        keep = sorted(party_a + (b,))
        m = group_subsystems(amps, dims, keep)
        rho = require_unit_density(m @ m.conj().transpose(0, 2, 1), "reduced state")
        pair = SubsystemLayout([dims[i] for i in keep], [keep.index(i) for i in party_a])
        t = _trace_norm_blocks(partial_transpose(rho, pair))
        rhs[:, j] = _from_negativity(_clamped_negativity(t), measure, alpha)
    return lhs, rhs, lhs - np.sum(rhs, axis=1)


def ckw_residual(psi: PureState, measure: str = "ratio", alpha: float = 1.0,
                 party_a=(0,)) -> MonogamyReport:
    """lhs - sum(rhs) for E^alpha across A|rest versus the pairwise terms.

    psi must be pure with at least 3 parties. The left side uses the
    Schmidt closed form on the A|rest split; each right-side term is the
    plain negativity-based value on the reduced two-party mixed state.
    This is ckw_residuals on a stack of one state; the report counts it
    satisfied when the residual is at least -VIOLATION_TOL.
    """
    if isinstance(psi, DensityMatrix):
        raise ValueError("mixed multipartite states are unsupported (convex roof out of scope)")
    dims = psi.layout.dims
    party_a = _check_residual_args(dims, measure, alpha, party_a)
    lhs, rhs, residual = ckw_residuals(psi.amplitudes[None, :], dims, party_a, measure, alpha)
    residual = float(residual[0])
    return MonogamyReport(dims=dims, party_a=party_a, measure=measure, alpha=alpha,
                          lhs=float(lhs[0]), rhs_terms=tuple(float(v) for v in rhs[0]),
                          residual=residual, satisfied=residual >= -VIOLATION_TOL)


def ckw_violation_state() -> PureState:
    """(|000> + |011> + sqrt(2)|110>)/2: three qubits whose pairwise ratio
    negativities are both 1/5 while the one-against-rest value is 1/3, so
    the unpowered inequality fails."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 0.5
    amps[0b011] = 0.5
    amps[0b110] = math.sqrt(2) / 2
    return PureState(amps, SubsystemLayout((2, 2, 2), (0,)))


@dataclass(frozen=True)
class GridCheckReport:
    a: float
    b: float
    alpha: float
    grid_n: int
    max_violation: float
    witness: tuple[float, float] | None
    violation_count: int

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "alpha": self.alpha, "grid_n": self.grid_n,
                "max_violation": self.max_violation, "violation_count": self.violation_count,
                "witness": list(self.witness) if self.witness else None}


def check_ineq_xya_grid(a: float, b: float, alpha: float,
                        grid_n: int = DEFAULT_GRID_N) -> GridCheckReport:
    """Scan [x/(x+1)]^a + [y/(y+1)]^a <= [c/(c+1)]^a, c = sqrt(x^2+y^2),
    on a grid_n x grid_n lattice over [0,a] x [0,b]; report the worst
    violation and a witness point. Gaps above GRID_TOL count as violations.

    The one-variable terms are computed once per axis (x along rows, y
    along columns) and broadcast over _slab_max's slabs of x rows, so
    memory does not grow with grid_n and the witness is np.argmax's over a
    full meshgrid. Bounds whose a^2 + b^2 overflows are refused: c would
    be infinite and its term NaN."""
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < a <= b):
        raise ValueError(f"need finite 0 < a <= b, got a={a}, b={b}")
    if not math.isfinite(a * a + b * b):
        raise ValueError(f"a^2 + b^2 overflows float64 at a={a}, b={b}")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n}")
    _check_alpha(alpha)
    x = np.linspace(0.0, a, grid_n)
    y = np.linspace(0.0, b, grid_n)
    x2, y2 = x ** 2, y ** 2
    fx, fy = _from_negativity(x, "ratio", alpha), _from_negativity(y, "ratio", alpha)
    count = 0

    def gaps(start, stop):
        nonlocal count
        cc = np.sqrt(x2[start:stop, None] + y2[None, :])
        gap = fx[start:stop, None] + fy[None, :] - _from_negativity(cc, "ratio", alpha)
        count += int(np.count_nonzero(gap > GRID_TOL))
        return gap

    max_violation, at = _slab_max((x, y), gaps, "non-finite two-term gap")
    return GridCheckReport(a=a, b=b, alpha=alpha, grid_n=grid_n,
                           max_violation=max(0.0, max_violation),
                           witness=at if max_violation > GRID_TOL else None, violation_count=count)


@dataclass(frozen=True)
class ScanReport:
    dims: tuple[int, ...]
    samples: int
    alpha: float
    seed: int
    family_covered: bool
    min_residual: float
    violation_count: int
    histogram: tuple[int, ...]
    histogram_edges: tuple[float, ...]
    warning: str | None = None

    def to_json(self) -> dict:
        return {"dims": list(self.dims), "samples": self.samples, "alpha": self.alpha,
                "seed": self.seed, "family_covered": self.family_covered,
                "min_residual": self.min_residual, "violation_count": self.violation_count,
                "histogram": list(self.histogram), "histogram_edges": list(self.histogram_edges),
                "warning": self.warning}


def sample_monogamy_scan(dims, samples: int, alpha: float, seed: int,
                         violation_tol: float = VIOLATION_TOL) -> ScanReport:
    """Residual statistics over Haar-random pure states of the given dims.

    Party A is subsystem 0. Each sample draws from its own (seed, index)
    substream, so results do not depend on execution order or on how the
    samples are chunked; aggregation (min / count / histogram) is
    order-independent. For three-qubit scans the known violating state is
    appended to the sample set. Unsupported dims families still run but
    the report carries a warning.
    """
    dims = tuple(_integer(d, "each entry of dims") for d in dims)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    require_tolerance(violation_tol, "violation_tol")
    layout = SubsystemLayout(dims, (0,))
    if layout.dim > _MAX_SCAN_DIM:
        raise ValueError(f"dims {dims} give a state of dimension {layout.dim}; a scan draws "
                         f"states of dimension at most {_MAX_SCAN_DIM}")
    _check_residual_args(dims, "ratio", alpha, (0,))
    covered = family_supported(dims)

    pair = dims[0] * max(dims[1:])
    rows = max(1, SCAN_CHUNK_BYTES // (16 * (layout.dim + pair * pair)))
    residuals = []
    for start in range(0, samples, rows):
        amps = haar_amplitude_rows(layout.dim, seed, range(start, min(start + rows, samples)))
        residuals.append(ckw_residuals(amps, dims, (0,), "ratio", alpha)[2])
    if dims == (2, 2, 2):
        residuals.append([ckw_residual(ckw_violation_state(), "ratio", alpha, (0,)).residual])

    arr = np.concatenate(residuals)
    hist, edges = np.histogram(np.clip(arr, *HISTOGRAM_RANGE),
                               bins=HISTOGRAM_BINS, range=HISTOGRAM_RANGE)
    return ScanReport(dims=dims, samples=samples, alpha=alpha, seed=seed,
                      family_covered=covered,
                      min_residual=float(arr.min()),
                      violation_count=int(np.count_nonzero(arr < -violation_tol)),
                      histogram=tuple(int(h) for h in hist),
                      histogram_edges=tuple(float(e) for e in edges),
                      warning=None if covered else
                      f"dims {dims} lie outside the families the power threshold is proven for")
