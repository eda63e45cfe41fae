"""The `repro` checks, pinned in ulps of their exact values.

`repro`'s own tolerances (1e-10 and the like) are pinned by the benchmark
reference, so they stay; this test asks far more of the same numbers. Each
exact value is computed with mpmath at 50 digits: a closed form, or for the
tmsvs-ratio checks the value of the truncated state as built. Each ulp
budget is a first-order bound on the rounding error of the operations that
compute the value, replayed here with the rules of `_Bound`, not a margin
over the error observed.

Every checked measure value is read from N = neg / w, which does not
change when a state's amplitudes or entries are all scaled by one factor.
So the error of a factor common to all of them cancels: a replay takes
such a factor as exact and charges each amplitude or entry only its own
roundings.
"""

import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from qchain.monogamy import ckw_violation_state
from qchain.repro import TMSVS_R_GRID, Check, _mixture_states, run_fixtures
from qchain.states import (PSD_TOL, TmsvsSpec, apply_kraus_branches, cutoff_for_amplitude_tail,
                           pure_from_schmidt, tmsvs_truncated)
from qchain.tensor import (SubsystemLayout, _coupled_blocks, group_subsystems, partial_transpose,
                           schmidt_decompose)

EPS = float(np.finfo(float).eps)

# "rounds to 3.191" compares with a rounded value.
NOT_PINNED = ("rounds to 3.191",)


class _Bound:
    """An exact value v and a bound, in units of EPS, on the absolute
    error of the float computed for it.

    Rules: a correctly rounded operation (+, -, *, /, sqrt, a decimal
    literal) with result v adds |v|/2; a libm call (log, pow) adds |v|,
    one ulp; errors of the operands propagate to first order through the
    operation's derivative at the exact values.
    """

    def __init__(self, v, err=0.0):
        self.v, self.err = mpmath.mpf(v), float(err)

    @staticmethod
    def literal(v):
        return _Bound(v, abs(mpmath.mpf(v)) / 2)

    def _rounded(self, v, err, ulps=0.5):
        return _Bound(v, err + ulps * float(abs(v)))

    def __add__(self, other):
        other = _lift(other)
        return self._rounded(self.v + other.v, self.err + other.err)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return self._rounded(self.v - other.v, self.err + other.err)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return self._rounded(self.v * other.v,
                             float(abs(other.v)) * self.err + float(abs(self.v)) * other.err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        v = self.v / other.v
        return self._rounded(v, (self.err + float(abs(v)) * other.err) / float(abs(other.v)))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def sqrt(self):
        v = mpmath.sqrt(self.v)
        return self._rounded(v, self.err / float(2 * v))

    def log(self):
        return self._rounded(mpmath.log(self.v), self.err / float(self.v), ulps=1)

    def __pow__(self, p):
        v = self.v ** _lift(p).v
        err = float(abs(_lift(p).v * v / self.v)) * self.err
        if isinstance(p, _Bound):
            err += float(abs(v * mpmath.log(self.v))) * p.err
        return self._rounded(v, err, ulps=1)


def _lift(x):
    return x if isinstance(x, _Bound) else _Bound(x)


def _spectral(n, delta):
    """Error bound of each eigenvalue (eigvalsh) or singular value (svd) of
    an n x n matrix, or n x m with n >= m, of 2-norm at most 1 whose
    entries are each off by at most delta: n delta by Weyl's inequality
    (||E||_2 <= n max |E_ij|), plus LAPACK's backward error p(n) EPS ||A||_2
    with p(n) = n."""
    return n * delta + n


def _sum(terms):
    """A rounded sum of terms in any order, numpy's pairwise one included:
    the terms' errors plus half of each partial sum of their magnitudes
    taken largest first, the order whose partial sums are largest."""
    partials = list(itertools.accumulate(sorted((abs(t.v) for t in terms), reverse=True)))
    err = sum(t.err for t in terms) + sum(float(p) for p in partials[1:]) / 2
    return _Bound(mpmath.fsum(t.v for t in terms), err)


def _mixed_negativity(blocks, delta):
    """N = neg / w of a partial transpose that _trace_norm_blocks splits
    into blocks with the exact spectra `blocks`, one list per block, from
    entries each off by at most delta: each eigenvalue is off by
    _spectral(block size, delta), w sums them all and neg sums the
    magnitudes of those that are not positive."""
    mu = [_Bound(v, _spectral(len(block), delta)) for block in blocks for v in block]
    return _sum([_Bound(-m.v, m.err) for m in mu if m.v <= 0]) / _sum(mu)


def _schmidt(sigmas, n, delta):
    """Schmidt coefficients sigma^2 from the singular values sigmas of an
    amplitude matrix of larger side n whose entries are each off by delta."""
    s = _spectral(n, delta)
    return [_Bound(sigma, s) * _Bound(sigma, s) for sigma in sigmas]


def _pure_negativity(lam):
    """N = neg / w of Schmidt coefficients lam as _schmidt_parts computes
    it: w = sum lam, and neg = _pair_sum(sqrt lam), the sum over j of x_j
    times the running sum x_0 + ... + x_{j-1}, x sorted ascending."""
    x = sorted((l.sqrt() for l in lam), key=lambda b: b.v)
    running, products = x[0], []
    for xj in x[1:]:
        products.append(xj * running)
        running = running + xj
    return _sum(products) / _sum(lam)


def _ratio(n):
    return n / (n + 1)


def _tmsvs_budgets():
    """{check name: (exact value, error bound in EPS)} of the tmsvs-ratio
    checks. Each exact value is that of the truncated state as built: the
    spec's float chi = tanh r taken as exact, levels 0 to the fixture's
    cutoff, renormalized, with Schmidt coefficients lambda_n the squares
    of its amplitudes."""
    budgets = {}
    for r in TMSVS_R_GRID:
        chi = _Bound(math.tanh(r))
        d = cutoff_for_amplitude_tail(math.tanh(r), 1e-10) + 1
        # tmsvs_truncated: diag = sqrt(1 - chi^2) chi^n, then diag divided
        # by np.linalg.norm(diag). Both factors are common to every
        # amplitude, so they are taken as exact.
        scale = _Bound(mpmath.sqrt(1 - chi.v ** 2))
        diag = [scale * chi ** n for n in range(d)]
        norm = _Bound(mpmath.sqrt(mpmath.fsum(a.v ** 2 for a in diag)))
        amps = [a / norm for a in diag]
        # The state hands over lambda_n as the computed amplitudes squared.
        # The amplitude matrix is diagonal, so the SVD reads the same
        # amplitudes exactly (a zero Householder tail gives tau = 0, and a
        # zero off-diagonal deflates); checked bit for bit below.
        state = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=d - 1))
        computed = state.amplitudes.reshape(d, d).diagonal().real
        assert np.array_equal(state.schmidt_coefficients, computed ** 2), r
        assert np.array_equal(schmidt_decompose(state.amplitudes, state.layout), computed ** 2), r
        neg = _pure_negativity([a * a for a in amps])
        ratio = _ratio(neg)
        budgets[f"ratio negativity at r={r}"] = (ratio.v, ratio.err)
        budgets[f"negativity at r={r}"] = (neg.v, neg.err)
    return budgets


def _budgets():
    """{check name: (exact value, error bound in EPS)}."""
    mp = mpmath.mpf
    sqrt2 = _Bound(2).sqrt()
    # Bell state: amplitudes 1 / sqrt(2), density entries their products.
    # Its nonzero amplitudes, and so its nonzero entries, are one rounded
    # value, a common factor: the Bell state's own values carry no error
    # from them (delta = 0 below).
    bell_amp = 1 / sqrt2
    bell_entry = bell_amp * bell_amp
    # Equal mixture of diag(1/2, 0, 0, 1/2) and the Bell density matrix;
    # its largest entry is (1/2 + 1/2) / 2.
    mix_entry = (_Bound(mp(1) / 2) + bell_entry) / 2
    # Each partial transpose splits into the blocks {0}, {3} and {1, 2}.
    half, quarter = mp(1) / 2, mp(1) / 4
    nonconvex_mix = _mixed_negativity([[half], [half], [quarter, -quarter]], mix_entry.err)
    nonconvex_bell = _mixed_negativity([[half], [half], [half, -half]], 0.0)
    # The classical part's 1x1 blocks are its exact diagonal entries, and
    # its negativity is 0 within far less than PSD_TOL.
    assert _mixed_negativity([[half], [0], [0], [half]], 0.0).err * EPS < PSD_TOL

    # sqrt(0.1)|00> + sqrt(0.9)|11>, measured by kron(diag(sqrt(0.8),
    # sqrt(0.2)), I) and kron(diag(sqrt(0.2), sqrt(0.8)), I). Each
    # diagonal entry of K rho K^dag is k rho_ii k; p sums four of them.
    amp = {w: _Bound.literal(mp(w) / 10).sqrt() for w in (1, 2, 8, 9)}
    rho = {(i, j): amp[i] * amp[j] for i in (1, 9) for j in (1, 9)}

    def branch(k_first, k_last):
        diag = [amp[k_first] * rho[1, 1] * amp[k_first], amp[k_last] * rho[9, 9] * amp[k_last]]
        p = diag[0] + diag[1] + 0 + 0
        # The post-state: each entry of (K rho K^dag + its transpose) / 2,
        # divided by p, a common factor.
        off = amp[k_first] * rho[1, 9] * amp[k_last]
        delta = max(((e + e) / 2 / _Bound(p.v)).err for e in (*diag, off))
        # Blocks {0}, {3} and {1, 2}, as for the mixture above.
        a, b, c = (e.v / p.v for e in (*diag, off))
        return p, _mixed_negativity([[a], [b], [c, -c]], delta)

    p1, n1 = branch(8, 2)
    p2, n2 = branch(2, 8)
    schmidt_19 = _schmidt([mp(9) ** 0.5 / mp(10) ** 0.5, mp(1) / mp(10) ** 0.5], 2, amp[9].err)
    n_in = _pure_negativity(schmidt_19)

    # (|000> + |011> + sqrt(2)|110>)/2: an entry of a reduced two-party
    # state M M^dag sums at most two products of amplitudes, each bounded
    # here by the largest, sqrt(2)/2 squared. Across A|rest the amplitude
    # matrix is 2 x 4 with singular values 1/sqrt(2), 1/sqrt(2). Each pair's
    # partial transpose has the blocks {0}, {3} and {1, 2}, or {1}, {2} and
    # {0, 3}, with the spectra 1/4, 1/2 and (1/2, -1/4). Both sides are
    # raised to the power alpha = 1.
    ckw_amp = sqrt2 / 2
    ckw_entry = ckw_amp * ckw_amp + ckw_amp * ckw_amp
    ckw_pair = _ratio(_mixed_negativity([[quarter], [half], [half, -quarter]], ckw_entry.err)) ** 1
    ckw_lhs = _ratio(_pure_negativity(_schmidt([1 / mp(2) ** 0.5] * 2, 4, ckw_amp.err))) ** 1

    # The Schmidt vector (0.9, 0.1) against the Bell state, then their
    # 16 x 16 product state, whose entries are one product of the two, the
    # Bell factor common to all of them. Its partial transpose splits into
    # four 1x1 and six 2x2 blocks: the products of the factors' spectra
    # (0.9, 0.1, +-0.3) and (1/2, 1/2, +-1/2), each 2x2 block one +- pair.
    chi_a = _ratio(n_in)
    chi_b = _ratio(_pure_negativity(_schmidt([1 / mp(2) ** 0.5] * 2, 2, 0.0)))
    factor_a = amp[9] * amp[9]
    product_entry = factor_a * _Bound(bell_entry.v)
    big, mid, small = mp(9) / 20, mp(3) / 20, mp(1) / 20
    chi_dense = _ratio(_mixed_negativity(
        [[big], [big], [small], [small], [big, -big], [small, -small]] + [[mid, -mid]] * 4,
        product_entry.err))
    formula = (chi_a + chi_b) / (1 + chi_a * chi_b)
    odds = 1 * ((1 + chi_a) / (1 - chi_a)) * ((1 + chi_b) / (1 - chi_b))
    helper = (odds - 1) / (odds + 1)

    base = 3 * (sqrt2 - 1)
    threshold = _Bound(2).log() / base.log()

    return {
        "negativity of the equal mixture": (mp(1) / 4, nonconvex_mix.err),
        # Its negativity is 0 within far less than PSD_TOL (asserted
        # above), so the clamp sets it to exactly 0.
        "negativity of the classical part": (mp(0), 0.0),
        "negativity of the Bell part": (mp(1) / 2, nonconvex_bell.err),
        "sqrt-negativity of the mixture": (mp(1) / 2, nonconvex_mix.sqrt().err),
        "average sqrt-negativity of the parts": (mpmath.sqrt(2) / 4,
                                                 ((0 + nonconvex_bell.sqrt()) / 2).err),
        "first outcome probability": (mp(26) / 100, p1.err),
        "second outcome probability": (mp(74) / 100, p2.err),
        "input negativity": (mp(3) / 10, n_in.err),
        "first branch negativity": (mp(6) / 13, n1.err),
        "second branch negativity": (mp(6) / 37, n2.err),
        "fourth-power value of the input": (mp(81) / 10000, (n_in ** 4).err),
        "average fourth-power value of the branches": (
            mp(1296) / 109850 + mp(1296) / 2532650, (p1 * n1 ** 4 + p2 * n2 ** 4).err),
        "pairwise ratio negativity (first partner)": (mp(1) / 5, ckw_pair.err),
        "pairwise ratio negativity (second partner)": (mp(1) / 5, ckw_pair.err),
        "one-against-rest ratio negativity": (mp(1) / 3, ckw_lhs.err),
        "ratio negativity of the first factor": (mp(3) / 13, chi_a.err),
        "ratio negativity of the second factor": (mp(1) / 3, chi_b.err),
        "dense value matches the composition rule": (mp(11) / 21, chi_dense.err),
        "composition rule closed form": (mp(11) / 21, formula.err),
        "odds-product helper agrees": (mp(11) / 21, helper.err),
        "threshold value": (threshold.v, threshold.err),
        "agreement with the auxiliary function": (threshold.v, threshold.err),
        "base identity (3(sqrt2-1))^threshold = 2": (mp(2), (base ** threshold).err),
    }


def test_closed_form_checks_within_their_ulp_budgets():
    with mpmath.workdps(50):
        budgets = {**_budgets(), **_tmsvs_budgets()}
        checks = [c for fixture in run_fixtures() for c in fixture.checks
                  if c.kind == "close" and not c.name.startswith(NOT_PINNED)]
        assert sorted(c.name for c in checks) == sorted(budgets)
        assert len(checks) == 31
        lines, over = [], []
        for c in checks:
            exact, bound = budgets[c.name]
            ulp = math.ulp(float(exact))
            budget = math.ceil(bound * EPS / ulp)
            distance = float(abs(mpmath.mpf(c.computed) - exact) / ulp)
            lines.append(f"{c.name}: {distance:.2f} ulps, budget {budget}")
            if distance > budget:
                over.append(c.name)
    assert not over, "over budget: " + ", ".join(over) + "\n" + "\n".join(lines)


def test_replayed_blocks_are_the_kernels():
    """The blocks _budgets replays are those _trace_norm_blocks splits each
    partial transpose into, by size: a Fock-basis split, never one dense
    eigensolve, whose errors would grow with the whole matrix."""
    def sizes(matrix, layout):
        return sorted(b.size for b in _coupled_blocks(partial_transpose(matrix, layout)))

    pair = SubsystemLayout((2, 2), (0,))
    classical, bell, mix = _mixture_states()
    assert sizes(classical.matrix, pair) == [1, 1, 1, 1]
    assert sizes(bell.matrix, pair) == sizes(mix.matrix, pair) == [1, 1, 2]
    kraus = [np.kron(np.diag(np.sqrt(k)), np.eye(2)) for k in ([0.8, 0.2], [0.2, 0.8])]
    for _, out in apply_kraus_branches(pure_from_schmidt([0.1, 0.9], (2, 2)), kraus):
        assert sizes(out.matrix, pair) == [1, 1, 2]
    psi = ckw_violation_state().amplitudes
    for b in (1, 2):
        m = group_subsystems(psi, (2, 2, 2), (0, b))
        assert sizes(m @ m.conj().T, pair) == [1, 1, 2]
    product = np.kron(pure_from_schmidt([0.9, 0.1], (2, 2)).density_matrix().matrix,
                      bell.matrix)
    assert sizes(product, SubsystemLayout((2, 2, 2, 2), (0, 2))) == [1] * 4 + [2] * 6


@pytest.mark.parametrize("kind,computed,passed", [("close", 0.5 + 1e-12, True),
                                                  ("greater", 0.25, False)])
def test_check_json_adds_pass_to_its_fields(kind, computed, passed):
    check = Check(name="a check", kind=kind, computed=computed, expected=0.5, tolerance=1e-10)
    expected = {"name": "a check", "kind": kind, "computed": computed, "expected": 0.5,
                "tolerance": 1e-10, "pass": passed}
    assert check.to_json() == expected
    assert json.dumps(check.to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)
