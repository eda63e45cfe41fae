"""Covariance-matrix formalism for Gaussian states.

Convention: quadratures are ordered (q1, p1, ..., qN, pN), the vacuum
covariance matrix is the identity, and the stored matrix is the real
symmetric matrix of symmetrized second moments,
Gamma_sl = 2 <{R_s, R_l}/2> - 2 <R_s><R_l>. (The textbook definition
subtracts i*Lambda from 2<R_s R_l>; that term exactly cancels the
antisymmetric part of the unsymmetrized moments, which is how a real
matrix comes out.) A matrix is a legal state iff Gamma + i*Lambda >= 0,
with Lambda the direct sum of 2x2 blocks [[0, 1], [-1, 0]].

This module is a covariance-matrix data model and a cross-oracle for the
Fock-basis route on two-mode Gaussian states, pure or mixed. A two-mode
CovarianceMatrix is a state to the measures module: its symplectic
spectrum is the third source, after Schmidt coefficients and
partial-transpose spectra, of the (w, neg) pair every measure value is
read from. Its partial-transpose trace norm is max(1, 1/nu_min) in the
smallest symplectic eigenvalue nu_min of the momentum-flipped matrix
(Vidal and Werner, PRA 65, 032314 (2002)), so w = 1 and
neg = (max(1, 1/nu_min) - 1)/2. Multimode negativities are out of scope.
States are zero-mean: no quantity here depends on first moments, so none
are stored. Functions take a CovarianceMatrix, the one check of shape,
finiteness and symmetry; validate_cm then checks only the uncertainty
relation and symplectic_eigenvalues only positive definiteness. Each
check raises a ValueError that names the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measures import MeasureSpec, evaluate_measure
from .states import require_squeezing
from .tensor import _integer, require_finite

CM_SYMMETRY_TOL = 1e-10
CM_BONA_FIDE_TOL = 1e-8
# The largest r of the covariance route. The spectrum's rounding grows with
# the entries, cosh 2r: on tmsvs_cm's matrix |ratio - tanh r| is 1.8e-12 at
# r = 5, 1.4e-11 at 6 and 1.6e-9 at 8. At r = 10 the smallest eigenvalue of
# Gamma, e^(-2r), lies below the rounding of entries near 2.4e8, so
# symplectic_eigenvalues refuses Gamma; cosh 2r overflows from r ~ 355.
CM_MAX_R = 5.0


def symplectic_form(modes: int) -> np.ndarray:
    """Direct sum of `modes` copies of [[0, 1], [-1, 0]]."""
    # In integers, so no entry is the -0.0 that float zeros times -1 give.
    return np.kron(np.eye(modes, dtype=int), [[0, 1], [-1, 0]]).astype(float)


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Gamma, refused unless square of even, nonzero size, finite and
    symmetric.

    A Gaussian state carries no Fock truncation, so its measure results
    report a truncation_deficit of 0.
    """

    gamma: np.ndarray
    modes: int = field(init=False)
    truncation_deficit = 0.0

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 != 0:
            raise ValueError(f"covariance matrix must be square with even dimension, got {g.shape}")
        if g.size == 0:
            raise ValueError("covariance matrix is empty: it needs at least one mode")
        require_finite(g, "covariance matrix")
        if (defect := float(np.max(np.abs(g - g.T)))) > CM_SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric (defect {defect:.3e})")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "modes", g.shape[0] // 2)

    @cached_property
    def _pt_parts(self) -> tuple[float, float]:
        """(w, neg) of the partial transpose across mode 0 | mode 1: w = 1
        and neg = (max(1, 1/nu_min) - 1)/2, from the smallest symplectic
        eigenvalue nu_min after the momentum flip. Only two modes, and
        only a matrix validate_cm accepts, are taken."""
        if self.modes != 2:
            raise ValueError(f"the covariance route supports exactly 2 modes, got {self.modes}")
        validate_cm(self)
        nu = symplectic_eigenvalues(cm_partial_transpose(self, (0,)))
        return 1.0, float((max(1.0, 1.0 / nu[-1]) - 1.0) / 2.0)


def validate_cm(cm: CovarianceMatrix) -> None:
    """Refuse Gamma unless Gamma + i*Lambda is PSD down to -CM_BONA_FIDE_TOL."""
    g = cm.gamma
    min_eig = float(np.linalg.eigvalsh((g + g.T) / 2 + 1j * symplectic_form(cm.modes))[0])
    if min_eig < -CM_BONA_FIDE_TOL:
        raise ValueError(f"invalid covariance matrix: uncertainty relation violated "
                         f"(min eig {min_eig:.3e})")


def tmsvs_cm(r: float) -> CovarianceMatrix:
    """Covariance matrix of a two-mode squeezed vacuum with squeezing r.

    Diagonal blocks cosh(2r) * I, off-diagonal blocks sinh(2r) * diag(1, -1):
    the q quadratures are correlated, the p quadratures anticorrelated.
    """
    r = require_squeezing(r)
    if r > CM_MAX_R:
        raise ValueError(f"the covariance route takes 0 < r <= {CM_MAX_R}, got r = {r}")
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    g = np.array([
        [c, 0.0, s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, -s, 0.0, c],
    ])
    return CovarianceMatrix(g)


def cm_partial_transpose(cm: CovarianceMatrix, modes_a) -> CovarianceMatrix:
    """Momentum-sign flip on the party-A modes.

    Realizes the partial transpose at the covariance level; the output may
    legitimately violate the uncertainty relation, which is exactly the
    entanglement signal.
    """
    modes_a = sorted(set(_integer(i, "each entry of modes_a") for i in modes_a))
    if any(i < 0 or i >= cm.modes for i in modes_a):
        raise ValueError(f"mode indices {modes_a} out of range for {cm.modes} modes")
    f = np.ones(2 * cm.modes)
    f[[2 * i + 1 for i in modes_a]] = -1.0
    return CovarianceMatrix(cm.gamma * np.outer(f, f))


def symplectic_eigenvalues(cm: CovarianceMatrix) -> np.ndarray:
    """Positive moduli of the spectrum of i*Lambda*Gamma, descending, each
    value once. A Gamma that is not positive definite is refused by name."""
    g = cm.gamma
    if (min_eig := np.linalg.eigvalsh((g + g.T) / 2)[0]) <= 0:
        raise ValueError(f"covariance matrix must be positive definite (min eig {min_eig:.3e})")
    w = np.linalg.eigvals(1j * symplectic_form(cm.modes) @ g)
    # The spectrum comes in +/- pairs; keep one representative per pair.
    return np.sort(np.abs(w))[::-1][::2]


def cm_ratio_negativity(cm: CovarianceMatrix) -> float:
    """Ratio negativity of a two-mode Gaussian state, pure or mixed, from
    its covariance matrix, across mode 0 | mode 1: evaluate_measure's
    ratio of the matrix's (w, neg) pair. The pair is checked against
    dense Fock-basis states, pure and lossy, in the test suite. Multimode
    inputs are refused.
    """
    return evaluate_measure(MeasureSpec("ratio"), cm).value
