"""Entanglement measures built on the partial-transpose trace norm, plus
the pure-state Schmidt fast paths for concurrence-family quantities.

`pt_trace_norm` is the one spectral step (Schmidt coefficients for pure
states, a dense partial-transpose spectrum for mixed ones). Every
negativity-family value follows from it through one clamp, and a state is
PPT exactly when its clamped negativity is 0. Every pure-state measure
reads `PureState.schmidt_coefficients`, which come from
`tensor.schmidt_decompose`, the kernel the monogamy residuals run on
stacks. A Schmidt vector a caller passes is checked once, where it
enters, by the unit-weight rule `tensor._check_distribution`, and the
private formulas read it unchecked. Convex-roof extensions are evaluated
only on pure inputs, where they coincide with the plain measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import PSD_TOL, DensityMatrix, PureState
from .tensor import _check_distribution, require_positive, require_tolerance

State = DensityMatrix | PureState

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
        elif self.alpha != 1:
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


def _schmidt_trace_norm(lam):
    """(sum_i sqrt(lambda_i))^2 over the last axis of Schmidt coefficients."""
    return np.sum(np.sqrt(lam), axis=-1) ** 2


def _clamped_negativity(t, psd_tol: float = PSD_TOL):
    """N = (t - 1)/2 for trace norms t (scalar or array), 0 where N < psd_tol."""
    n = (np.asarray(t, dtype=float) - 1.0) / 2.0
    return np.where(n >= psd_tol, n, 0.0)


def _from_negativity(n, kind: str, alpha: float | None = None):
    """Measure values from clamped negativities n (scalar or array): N for
    "negativity", N/(N+1) for "ratio" and "alpha_ratio", raised to alpha
    when alpha is given."""
    value = n if kind == "negativity" else n / (n + 1.0)
    return value if alpha is None else value ** alpha


def pt_trace_norm(state: State) -> float:
    """Trace norm of the partial transpose across the state's A|B split.

    For a pure state this is (sum_i sqrt(lambda_i))^2 in its Schmidt
    coefficients; for a mixed state the dense spectrum is summed. Both
    spectral steps run once per state object and are reused.
    """
    if isinstance(state, PureState):
        return float(_schmidt_trace_norm(state.schmidt_coefficients))
    return state._pt_trace_norm


def negativity(state: State) -> float:
    """(|rho^T_A|_1 - 1)/2, clamped to 0 when below PSD_TOL."""
    return evaluate_measure(MeasureSpec("negativity"), state).value


def log_negativity(state: State) -> float:
    """log2 of the partial-transpose trace norm, as reports carry it: log2(1 + 2N)
    of the clamped negativity N, so a PPT state reads exactly 0.

    Some conventions use the natural log (under which a two-mode squeezed
    vacuum has value exactly 2r); multiply by ln 2 for that reading.
    """
    return evaluate_measure(MeasureSpec("log_negativity"), state).value


def ratio_negativity(state: State) -> float:
    """N/(N+1) = (|rho^T_A|_1 - 1)/(|rho^T_A|_1 + 1), bounded in [0, 1)."""
    return evaluate_measure(MeasureSpec("ratio"), state).value


def alpha_ratio_negativity(state: State, alpha: float) -> float:
    return evaluate_measure(MeasureSpec("alpha_ratio", alpha), state).value


def concurrence_pure(psi: PureState) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a bipartite pure state."""
    lam = psi.schmidt_coefficients
    tr_rho_a2 = float(np.sum(lam ** 2))
    return math.sqrt(max(0.0, 2.0 * (1.0 - tr_rho_a2)))


def g_concurrence_pure(lam, d: int) -> float:
    """d (lambda_0 ... lambda_{d-1})^(1/d); 0 if any coefficient vanishes.

    Vanishing coefficients are the continuous extension of the geometric
    mean; strictly the formula assumes all lambda_j > 0. At d = 2 it is the
    concurrence 2 sqrt(lambda_0 lambda_1), one correctly rounded root. The
    value is at most 1 (the mean of the lambda_j bounds their geometric
    mean), so a rounded value above 1, as the uniform vector gives at
    d = 6, 8 and 14, or a pair summing to just above 1 at d = 2, reads 1.
    """
    return _g_concurrence(_check_distribution(lam, d))


def _g_concurrence(lam: np.ndarray) -> float:
    """g_concurrence_pure's formula on d = lam.size checked coefficients."""
    d = lam.size
    if np.any(lam == 0):
        return 0.0
    if d == 2:
        return min(1.0, 2.0 * math.sqrt(lam[0] * lam[1]))
    return min(1.0, float(d * np.exp(np.mean(np.log(lam)))))


def scp_pure_qubit(lam) -> float:
    """Maximum probability of converting a 2-qubit pure state to a singlet
    by local operations: twice the smaller Schmidt coefficient."""
    lam = _check_distribution(lam)
    if lam.size > 2:
        raise ValueError(f"singlet conversion probability needs a 2-qubit Schmidt pair, got {lam.size} coefficients")
    return _scp(lam)


def _scp(lam) -> float:
    """scp_pure_qubit's formula on one or two checked coefficients."""
    return 2.0 * float(min(lam)) if len(lam) == 2 else 0.0


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
    negativities: the odds (1+chi)/(1-chi) multiply."""
    odds = 1.0
    for c in chis:
        if not (0 <= c < 1):
            raise ValueError(f"ratio negativity values must lie in [0, 1), got {c}")
        odds *= (1.0 + c) / (1.0 - c)
    return (odds - 1.0) / (odds + 1.0)


def evaluate_measure(spec: MeasureSpec, state: State, psd_tol: float = PSD_TOL) -> MeasureResult:
    """Dispatch a measure evaluation and package the standard report fields."""
    require_tolerance(psd_tol, "psd_tol")
    if spec.kind in PURE_ONLY_KINDS and not isinstance(state, PureState):
        raise ValueError(f"{spec.kind} is only evaluated on pure states (convex roof out of scope)")
    t = pt_trace_norm(state)
    n = float(_clamped_negativity(t, psd_tol))
    alpha = spec.alpha if spec.kind == "alpha_ratio" else None
    if spec.kind in ("negativity", "ratio", "alpha_ratio"):
        value = _from_negativity(n, spec.kind, alpha)
    elif spec.kind == "log_negativity":
        value = math.log2(1.0 + 2.0 * n)
    elif spec.kind == "concurrence":
        value = concurrence_pure(state)
    elif spec.kind == "g_concurrence":
        # The state's own coefficients, min(dim_a, dim_b) of them, come from
        # amplitudes its constructor accepted; they are not checked again.
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
