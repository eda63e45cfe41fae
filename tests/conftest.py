"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: eigenvalues via
characteristic-polynomial root finding, covariance matrices via ladder
operators on the dense Fock state, conversion probabilities via the
tail-sum ratio formula.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from qchain import groupop, monogamy, tensor
from qchain.reports import CHAIN_SCHEMA, IDENTICAL_LINKS_SCHEMA, LINK_SCHEMAS, STATE_SCHEMA


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients by the trace recursion
    (Faddeev-LeVerrier), highest power first."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return coeffs


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a small Hermitian matrix via np.roots on the
    characteristic polynomial (companion-matrix path, not eigvalsh)."""
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)


def dense_partial_transpose(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Textbook two-party partial transpose by reshape bookkeeping."""
    return (rho.reshape(d_a, d_b, d_a, d_b)
            .transpose(2, 1, 0, 3)
            .reshape(d_a * d_b, d_a * d_b))


def ladder_annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def moment_oracle_cm(psi_matrix: np.ndarray) -> np.ndarray:
    """Covariance matrix of a two-mode pure state from dense quadrature
    moments, vacuum-variance-one convention, ordering (q1, p1, q2, p2)."""
    psi = np.asarray(psi_matrix, dtype=complex)
    d = psi.shape[0]
    a = ladder_annihilation(d)
    q = (a + a.conj().T) / np.sqrt(2)
    p = (a - a.conj().T) / (1j * np.sqrt(2))

    def apply(op, mode):
        return op @ psi if mode == 0 else psi @ op.T

    ops = [(q, 0), (p, 0), (q, 1), (p, 1)]
    means = [np.real(np.vdot(psi, apply(op, m))) for op, m in ops]
    gamma = np.zeros((4, 4))
    for s, (op_s, m_s) in enumerate(ops):
        for l, (op_l, m_l) in enumerate(ops):
            val = np.vdot(apply(op_s, m_s), apply(op_l, m_l))
            gamma[s, l] = 2.0 * (np.real(val) - means[s] * means[l])
    return gamma


def lossy_tmsvs_amplitudes(r: float, eta: float, cutoff: int) -> np.ndarray:
    """Normalized amplitudes psi[a, b, c] over three modes of cutoff levels:
    a two-mode squeezed vacuum on A-B, truncated to photon numbers below
    cutoff, after a beam splitter of transmissivity eta mixes B with vacuum
    on C, in real arithmetic:
    psi[m, m - k, k] = c_m sqrt(C(m, k)) eta^((m-k)/2) (1 - eta)^(k/2),
    c_m = sqrt(1 - chi^2) chi^m, chi = tanh r. The splitter acts on B and C
    only, so it is local across A|BC, and swapping B with C is eta -> 1 - eta."""
    chi = np.tanh(r)
    psi = np.zeros((cutoff, cutoff, cutoff))
    for k in range(cutoff):
        m = np.arange(k, cutoff)
        binom = np.array([math.comb(int(x), k) for x in m], dtype=float)
        psi[m, m - k, k] = (np.sqrt(1 - chi ** 2) * chi ** m * np.sqrt(binom)
                            * eta ** ((m - k) / 2) * (1 - eta) ** (k / 2))
    return psi / np.linalg.norm(psi)


def lossy_tmsvs_matrix(r: float, eta: float, cutoff: int, rotation=None) -> np.ndarray:
    """Density matrix over (cutoff, cutoff) of lossy_tmsvs_amplitudes traced
    over C: the truncated two-mode squeezed vacuum after a pure-loss channel
    of transmissivity eta on mode B. A real orthogonal `rotation`
    (cutoff x cutoff) acts on mode A, which keeps every negativity but
    couples the Fock blocks of the partial transpose."""
    psi = lossy_tmsvs_amplitudes(r, eta, cutoff)
    if rotation is not None:
        psi = np.einsum("am,mbc->abc", rotation, psi)
    ab_c = psi.reshape(cutoff * cutoff, cutoff)
    rho = ab_c @ ab_c.T
    return rho / np.trace(rho)


def lossy_tmsvs_cm(r: float, eta: float) -> np.ndarray:
    """Covariance matrix of the untruncated state lossy_tmsvs_matrix
    describes: mode A keeps cosh 2r, mode B becomes eta cosh 2r + 1 - eta,
    and the correlations sqrt(eta) sinh 2r."""
    a, s = math.cosh(2 * r), math.sinh(2 * r)
    b, c = eta * a + 1 - eta, math.sqrt(eta) * s
    return np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])


def scp_oracle(lam) -> float:
    """Maximum conversion probability to the uniform pair by the tail-sum
    ratio formula: min over k >= 1 of tail(lam, k) / tail(uniform, k)."""
    lam = sorted(lam, reverse=True)
    mu = [0.5, 0.5]
    best = 1.0
    for k in range(1, len(lam)):
        tail_lam = sum(lam[k:])
        tail_mu = sum(mu[k:]) if k < len(mu) else 0.0
        if tail_mu == 0.0:
            if tail_lam > 0:
                return 0.0
            continue
        best = min(best, tail_lam / tail_mu)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def slab_budget(monkeypatch):
    """budget(n) sets tensor.GRID_SLAB_BYTES, the name _slab_max reads, to
    n bytes and returns a list that then collects the row count of every
    slab the grid checks of groupop and monogamy take."""
    rows = []
    real = tensor._slab_max

    def recording(axes, slab, what):
        def counted(start, stop):
            rows.append(stop - start)
            return slab(start, stop)
        return real(axes, counted, what)

    for module in (groupop, monogamy):
        monkeypatch.setattr(module, "_slab_max", recording)

    def budget(n_bytes):
        monkeypatch.setattr(tensor, "GRID_SLAB_BYTES", n_bytes)
        return rows
    return budget


def _coupled(diagonal, upper, lower):
    """diag(diagonal) with entries (0, 1) = upper and (1, 0) = lower."""
    m = np.diag(diagonal)
    m[0, 1], m[1, 0] = upper, lower
    return m


# Real 4x4 matrices that DensityMatrix refuses, with a fragment of the
# message each gets. The non-PSD one has eigenvalues 1.2, -0.2, 0, 0.
REFUSED_REAL_MATRICES = {
    "non-symmetric": (_coupled([0.25] * 4, 0.2, 0.0), "not Hermitian"),
    "non-finite": (_coupled([0.25] * 4, np.nan, np.nan), "non-finite"),
    "infinite": (_coupled([0.25] * 4, np.inf, np.inf), "non-finite"),
    "non-unit trace": (_coupled([0.5] * 4, 0.1, 0.1), "trace"),
    "non-PSD": (_coupled([0.5, 0.5, 0.0, 0.0], 0.7, 0.7), "negative eigenvalue"),
}


# Every object schema of the input files, with the prefix that names its
# fields in messages.
_INPUT_OBJECT_SCHEMAS = ([(branch, "") for branch in STATE_SCHEMA["oneOf"]]
                         + [(CHAIN_SCHEMA, ""), (IDENTICAL_LINKS_SCHEMA, "links.")]
                         + [(link, "") for link in LINK_SCHEMAS.values()])


def typed_fields() -> list[tuple[dict, str, str, str]]:
    """(schema, key, field name, type) for every typed property of the
    input object schemas: type is "integer", "number" or "string", or
    "integer list" or "number list" for a list of integers or numbers."""
    fields = []
    for schema, prefix in _INPUT_OBJECT_SCHEMAS:
        for key, prop in schema["properties"].items():
            kind = prop.get("type")
            if kind == "array" and prop["items"].get("type") in ("integer", "number"):
                kind = f"{prop['items']['type']} list"
            if kind in ("integer", "number", "string", "integer list", "number list"):
                fields.append((schema, key, prefix + key, kind))
    return fields
