"""Entanglement measures from one pair per state, plus the pure-state
Schmidt fast paths for concurrence-family quantities.

Every measure value comes from the pair (w, neg) of the state's partial
transpose across its A|B split (`_pt_parts`): its weight w, the sum of
its eigenvalues, and its negative part neg, the magnitude of the sum of
the negative ones (Vidal and Werner 2002). A pure state's pair comes
from its Schmidt coefficients lambda as w = sum lambda and
neg = sum_{i<j} sqrt(lambda_i lambda_j), summed by `_pair_sum` with
every term >= 0, so nothing cancels; a mixed state's comes from the
partial-transpose spectrum `tensor._trace_norm_blocks` computes once; a
two-mode `gaussian.CovarianceMatrix`'s comes from its symplectic
spectrum as w = 1 and neg = (max(1, 1/nu_min) - 1)/2, with a
truncation_deficit of 0 in its results.
From the pair: the trace norm t = w + 2 neg (`pt_trace_norm`), the
negativity N = neg / w through one clamp, every negativity-family value
from N (log-negativity log1p(2N)/ln 2), and the concurrence
2 sqrt(`_pair_sum`(lambda)) / w. A state is PPT exactly when its clamped
negativity is 0, and since N does not move when w is scaled, neither
does that verdict.

Every pure-state measure reads `PureState.schmidt_coefficients`: the
Schmidt-form constructors hand them over, and `tensor.schmidt_decompose`,
the monogamy scans' kernel, computes any other state's. The private
formulas `_g_concurrence` and `_scp` read a state's vector or a link's,
which `swapping` checks where it enters, unchecked. Convex-roof
extensions are evaluated only on pure inputs, where they coincide with
the plain measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .states import PSD_TOL, DensityMatrix, PureState
from .tensor import _real, _trace_norm, require_positive, require_tolerance

if TYPE_CHECKING:
    from .gaussian import CovarianceMatrix

# What pt_trace_norm, evaluate_measure and the negativity-family functions
# take; a CovarianceMatrix of any mode count but two is refused by name.
State = Union[DensityMatrix, PureState, "CovarianceMatrix"]

MEASURE_KINDS = ("negativity", "log_negativity", "ratio", "alpha_ratio",
                 "concurrence", "g_concurrence", "scp", "custom_f")
# Kinds evaluated on pure states only: on mixed states they are convex-roof
# extensions, which are out of scope.
PURE_ONLY_KINDS = ("concurrence", "g_concurrence", "scp")

F_GRID_POINTS = 1024
F_GRID_MAX = 100.0


@dataclass(frozen=True)
class MeasureSpec:
    """Selects a measure and holds its rules: alpha (finite, > 0) applies
    only to alpha_ratio and f only to custom_f, which refuses an f that
    validate_f refuses, with its message. The one-measure functions and
    chain links take their checks from here."""

    kind: str
    alpha: float = 1.0
    f: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}; choose from {MEASURE_KINDS}")
        if self.kind == "alpha_ratio":
            require_positive(self.alpha, "alpha")
        elif _real(self.alpha, "alpha") != 1:
            raise ValueError(f"alpha {self.alpha!r} applies only to the alpha_ratio measure; "
                             f"{self.kind!r} takes alpha 1")
        if self.kind == "custom_f":
            if self.f is None:
                raise ValueError("custom_f requires a function handle")
            validate_f(self.f)
        elif self.f is not None:
            raise ValueError(f"f applies only to the custom_f measure; {self.kind!r} takes no f")


@dataclass(frozen=True)
class MeasureResult:
    measure: str
    value: float
    trace_norm: float
    ppt: bool
    truncation_deficit: float
    alpha: float | None = None

    def to_json(self) -> dict:
        out = {"measure": self.measure, "value": self.value, "trace_norm": self.trace_norm,
               "ppt": self.ppt, "truncation_deficit": self.truncation_deficit}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


def _pair_sum(x):
    """sum_j x_j (x_0 + ... + x_{j-1}) over the last axis of x sorted
    ascending, which is sum_{i<j} x_i x_j: every term is >= 0 for x >= 0,
    so nothing cancels."""
    x = np.sort(x, axis=-1)
    return np.sum(x[..., 1:] * np.cumsum(x, axis=-1)[..., :-1], axis=-1)


def _schmidt_parts(lam):
    """(w, neg) over the last axis of Schmidt coefficients: the weight
    sum_i lambda_i and the partial transpose's negative part
    sum_{i<j} sqrt(lambda_i lambda_j)."""
    return np.sum(lam, axis=-1), _pair_sum(np.sqrt(lam))


def _pt_parts(state: State):
    """(w, neg) of the state's partial transpose: its trace and the sum of
    its negative eigenvalues' magnitudes, from the Schmidt coefficients of
    a pure state, or the pair a mixed state or covariance matrix keeps."""
    if isinstance(state, PureState):
        return _schmidt_parts(state.schmidt_coefficients)
    return state._pt_parts


def _clamped_negativity(w, neg, psd_tol: float = PSD_TOL):
    """N = neg / w (scalars or arrays), 0 where N < psd_tol."""
    n = np.asarray(neg, dtype=float) / w
    return np.where(n >= psd_tol, n, 0.0)


def _from_negativity(n, kind: str, alpha: float | None = None):
    """Measure values from clamped negativities n (scalar or array): N for
    "negativity", N/(N+1) for "ratio" and "alpha_ratio", raised to alpha
    when alpha is given."""
    value = n if kind == "negativity" else n / (n + 1.0)
    return value if alpha is None else value ** alpha


def pt_trace_norm(state: State) -> float:
    """Trace norm w + 2 neg of the partial transpose across the state's
    A|B split, from _pt_parts. Both spectral steps (the Schmidt
    coefficients, a mixed state's dense spectrum) run once per state
    object and are reused.
    """
    return float(_trace_norm(*_pt_parts(state)))


def negativity(state: State) -> float:
    """neg / w of the partial transpose, clamped to 0 when below PSD_TOL."""
    return evaluate_measure(MeasureSpec("negativity"), state).value


def log_negativity(state: State) -> float:
    """log2 of the partial-transpose trace norm of the unit-trace state, as
    reports carry it: log1p(2N)/ln 2 of the clamped negativity N, so a PPT
    state reads exactly 0.

    Some conventions use the natural log (under which a two-mode squeezed
    vacuum has value exactly 2r); multiply by ln 2 for that reading.
    """
    return evaluate_measure(MeasureSpec("log_negativity"), state).value


def ratio_negativity(state: State) -> float:
    """N/(N+1) of the clamped negativity N, bounded in [0, 1)."""
    return evaluate_measure(MeasureSpec("ratio"), state).value


def _g_concurrence(lam: np.ndarray) -> float:
    """d (lambda_0 ... lambda_{d-1})^(1/d) of d = lam.size checked
    coefficients; 0 if any coefficient vanishes.

    Vanishing coefficients are the continuous extension of the geometric
    mean; strictly the formula assumes all lambda_j > 0. At d = 2 it is the
    concurrence 2 sqrt(lambda_0 lambda_1), one correctly rounded root. The
    value is at most 1 (the mean of the lambda_j bounds their geometric
    mean), so a rounded value above 1, as the uniform vector gives at
    d = 6, 8 and 14, or a pair summing to just above 1 at d = 2, reads 1.
    """
    d = lam.size
    if np.any(lam == 0):
        return 0.0
    if d == 2:
        return min(1.0, 2.0 * math.sqrt(lam[0] * lam[1]))
    return min(1.0, float(d * np.exp(np.mean(np.log(lam)))))


def _scp(lam) -> float:
    """Maximum probability of converting a 2-qubit pure state to a singlet
    by local operations: twice the smaller of its two Schmidt coefficients."""
    return 2.0 * float(min(lam))


def validate_f(f: Callable[[float], float]) -> None:
    """Refuse f unless f(0) = 0 (within 1e-12) and f strictly increases on
    0 followed by a log-spaced grid of F_GRID_POINTS - 1 points up to
    F_GRID_MAX, every value finite. Every custom_f spec runs this check;
    an f that falls only between grid points passes.
    """
    grid = np.concatenate([[0.0], np.geomspace(1e-9, F_GRID_MAX, F_GRID_POINTS - 1)])
    vals = np.array([float(f(x)) for x in grid])
    if not np.all(np.isfinite(vals)):
        reason = f"f({float(grid[np.argmax(~np.isfinite(vals))])}) is not finite"
    elif abs(float(f(0.0))) > 1e-12:
        reason = f"f(0) = {f(0.0)!r} != 0"
    elif np.any(falls := np.diff(vals) <= 0):
        i = int(np.argmax(falls))
        reason = f"f is not strictly increasing on ({grid[i]!r}, {grid[i + 1]!r})"
    else:
        return
    raise ValueError(f"invalid f for f-negativity: {reason}")


def f_negativity(f: Callable[[float], float], state: State) -> float:
    """f(N(rho)) for a validated strictly-increasing f with f(0) = 0."""
    return evaluate_measure(MeasureSpec("custom_f", f=f), state).value


def compose_ratio_tensor(chis) -> float:
    """Ratio negativity of a tensor product of states with the given ratio
    negativities: the odds (1+chi)/(1-chi) multiply; an overflowed product
    reads 1.0, as a finite one above 2^53 rounds to."""
    odds = 1.0
    for c in chis:
        if not (0 <= c < 1):
            raise ValueError(f"ratio negativity values must lie in [0, 1), got {c}")
        odds *= (1.0 + c) / (1.0 - c)
    return 1.0 if math.isinf(odds) else (odds - 1.0) / (odds + 1.0)


def evaluate_measure(spec: MeasureSpec, state: State, psd_tol: float = PSD_TOL) -> MeasureResult:
    """Dispatch a measure evaluation and package the standard report fields."""
    require_tolerance(psd_tol, "psd_tol")
    if spec.kind in PURE_ONLY_KINDS and not isinstance(state, PureState):
        why = (" (convex roof out of scope)" if isinstance(state, DensityMatrix) else
               " given as amplitudes; a covariance matrix takes only the negativity-family kinds")
        raise ValueError(f"{spec.kind} is only evaluated on pure states{why}")
    t = pt_trace_norm(state)
    n = float(_clamped_negativity(*_pt_parts(state), psd_tol))
    alpha = spec.alpha if spec.kind == "alpha_ratio" else None
    if spec.kind in ("negativity", "ratio", "alpha_ratio"):
        value = _from_negativity(n, spec.kind, alpha)
    elif spec.kind == "log_negativity":
        value = math.log1p(2.0 * n) / math.log(2.0)
    elif spec.kind == "concurrence":
        # sqrt(2 (1 - tr rho_A^2)) as 2 sqrt(sum_{i<j} lambda_i lambda_j) / w: no cancelling.
        lam = state.schmidt_coefficients
        value = 2.0 * math.sqrt(_pair_sum(lam)) / float(np.sum(lam))
    elif spec.kind == "g_concurrence":
        # The state's own min(dim_a, dim_b) coefficients are not checked again.
        value = _g_concurrence(state.schmidt_coefficients)
    elif spec.kind == "scp":
        if state.layout.dim_a != 2 or state.layout.dim_b != 2:
            raise ValueError("singlet conversion probability needs a 2-qubit pure state")
        # Dividing by the sum keeps the bits the reports have always carried.
        lam = state.schmidt_coefficients
        value = _scp(lam / lam.sum())
    elif spec.kind == "custom_f":
        value = spec.f(n)
    else:  # pragma: no cover - guarded by MeasureSpec
        raise ValueError(spec.kind)
    return MeasureResult(measure=spec.kind, value=float(value), trace_norm=float(t),
                         ppt=n == 0.0, truncation_deficit=state.truncation_deficit, alpha=alpha)
