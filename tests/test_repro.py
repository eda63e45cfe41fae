"""The `repro` checks, pinned in ulps of their exact values.

`repro`'s own tolerances (1e-10 and the like) are pinned by the benchmark
reference, so they stay; this test asks far more of the same numbers. Each
exact value is computed with mpmath at 50 digits: a closed form, or for the
tmsvs-ratio checks the value of the truncated state as built. Each ulp
budget is a first-order bound on the rounding error of the operations that
compute the value, replayed here with the rules of `_Bound`, not a margin
over the error observed.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from qchain.repro import TMSVS_R_GRID, Check, run_fixtures
from qchain.states import PSD_TOL, TmsvsSpec, cutoff_for_amplitude_tail, tmsvs_truncated

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


def _mixed_trace_norm(t, n, delta):
    """t = sum of |eigenvalues| of an n x n partial transpose: n values
    each off by _spectral(n, delta), and n - 1 rounded additions."""
    return _Bound(t, n * _spectral(n, delta) + (n - 1) * t / 2)


def _pure_trace_norm(sigmas, n, delta):
    """t = (sum_i sqrt(sigma_i^2))^2 from the singular values sigmas of an
    amplitude matrix of larger side n, as the Schmidt route computes it."""
    s = _spectral(n, delta)
    roots = [(_Bound(sigma, s) * _Bound(sigma, s)).sqrt() for sigma in sigmas]
    total = roots[0]
    for root in roots[1:]:
        total = total + root
    return total * total


def _negativity(t):
    return (t - 1) / 2


def _ratio(t):
    n = _negativity(t)
    return n / (n + 1)


def _tmsvs_budgets():
    """{check name: (exact value, error bound in EPS)} of the tmsvs-ratio
    checks. Each exact value is that of the truncated state as built: the
    spec's float chi = tanh r taken as exact, levels 0 to the fixture's
    cutoff, renormalized, with trace norm (sum_n sqrt(lambda_n))^2."""
    budgets = {}
    for r in TMSVS_R_GRID:
        chi = _Bound(math.tanh(r))
        d = cutoff_for_amplitude_tail(math.tanh(r), 1e-10) + 1
        # tmsvs_truncated: diag = sqrt(1 - chi^2) chi^n, then diag divided
        # by np.linalg.norm(diag) = sqrt(diag . diag). The terms decrease
        # with n, and a sum of positive terms replayed largest first bounds
        # the rounding of any summation order, BLAS's included.
        scale = (1 - chi ** 2).sqrt()
        diag = [scale * chi ** n for n in range(d)]
        squares = [a * a for a in diag]
        total = squares[0]
        for sq in squares[1:]:
            total = total + sq
        norm = total.sqrt()
        amps = [a / norm for a in diag]
        # The amplitude matrix is diagonal, so the SVD reads the computed
        # amplitudes exactly (a zero Householder tail gives tau = 0, and a
        # zero off-diagonal deflates); checked bit for bit below. Then
        # sum_n sqrt(sigma_n^2), largest first, squared.
        state = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=d - 1))
        computed = state.amplitudes.reshape(d, d).diagonal().real
        assert np.array_equal(state.schmidt_coefficients, computed ** 2), r
        roots = [(a * a).sqrt() for a in amps]
        total = roots[0]
        for root in roots[1:]:
            total = total + root
        t = total * total
        ratio, neg = _ratio(t), _negativity(t)
        budgets[f"ratio negativity at r={r}"] = (ratio.v, ratio.err)
        budgets[f"negativity at r={r}"] = (neg.v, neg.err)
    return budgets


def _budgets():
    """{check name: (exact value, error bound in EPS)}."""
    mp = mpmath.mpf
    sqrt2 = _Bound(2).sqrt()
    # Bell state: amplitudes 1 / sqrt(2), density entries their products.
    bell_amp = 1 / sqrt2
    bell_entry = bell_amp * bell_amp
    # Equal mixture of diag(1/2, 0, 0, 1/2) and the Bell density matrix;
    # its largest entry is (1/2 + 1/2) / 2.
    mix_entry = (_Bound(mp(1) / 2) + bell_entry) / 2
    nonconvex_mix = _negativity(_mixed_trace_norm(mp(3) / 2, 4, mix_entry.err))
    nonconvex_bell = _negativity(_mixed_trace_norm(mp(2), 4, bell_entry.err))

    # sqrt(0.1)|00> + sqrt(0.9)|11>, measured by kron(diag(sqrt(0.8),
    # sqrt(0.2)), I) and kron(diag(sqrt(0.2), sqrt(0.8)), I). Each
    # diagonal entry of K rho K^dag is k rho_ii k; p sums four of them.
    amp = {w: _Bound.literal(mp(w) / 10).sqrt() for w in (1, 2, 8, 9)}
    rho = {(i, j): amp[i] * amp[j] for i in (1, 9) for j in (1, 9)}

    def branch(k_first, k_last, n_exact):
        diag = [amp[k_first] * rho[1, 1] * amp[k_first], amp[k_last] * rho[9, 9] * amp[k_last]]
        p = diag[0] + diag[1] + 0 + 0
        # The post-state: each entry of (K rho K^dag + its transpose) / 2,
        # divided by p.
        off = amp[k_first] * rho[1, 9] * amp[k_last]
        delta = max(((e + e) / 2 / p).err for e in (*diag, off))
        n = _negativity(_mixed_trace_norm(1 + 2 * n_exact, 4, delta))
        return p, n

    p1, n1 = branch(8, 2, mp(6) / 13)
    p2, n2 = branch(2, 8, mp(6) / 37)
    schmidt_19 = _pure_trace_norm([mp(9) ** 0.5 / mp(10) ** 0.5, mp(1) / mp(10) ** 0.5],
                                  2, amp[9].err)
    n_in = _negativity(schmidt_19)

    # (|000> + |011> + sqrt(2)|110>)/2: an entry of a reduced two-party
    # state M M^dag sums at most two products of amplitudes, each bounded
    # here by the largest, sqrt(2)/2 squared. Across A|rest the amplitude
    # matrix is 2 x 4 with singular values 1/sqrt(2), 1/sqrt(2). Both sides
    # are raised to the power alpha = 1.
    ckw_amp = sqrt2 / 2
    ckw_entry = ckw_amp * ckw_amp + ckw_amp * ckw_amp
    ckw_pair = _ratio(_mixed_trace_norm(mp(3) / 2, 4, ckw_entry.err)) ** 1
    ckw_lhs = _ratio(_pure_trace_norm([1 / mp(2) ** 0.5] * 2, 4, ckw_amp.err)) ** 1

    # The Schmidt vector (0.9, 0.1) against the Bell state, then their
    # 16 x 16 product state, whose entries are one product of the two.
    chi_a = _ratio(schmidt_19)
    chi_b = _ratio(_pure_trace_norm([1 / mp(2) ** 0.5] * 2, 2, bell_amp.err))
    factor_a = amp[9] * amp[9]
    product_entry = factor_a * bell_entry
    chi_dense = _ratio(_mixed_trace_norm(mp(16) / 5, 16, product_entry.err))
    formula = (chi_a + chi_b) / (1 + chi_a * chi_b)
    odds = 1 * ((1 + chi_a) / (1 - chi_a)) * ((1 + chi_b) / (1 - chi_b))
    helper = (odds - 1) / (odds + 1)

    base = 3 * (sqrt2 - 1)
    threshold = _Bound(2).log() / base.log()

    return {
        "negativity of the equal mixture": (mp(1) / 4, nonconvex_mix.err),
        # Its trace norm is 1 within the bound below, so the PSD_TOL clamp
        # sets the negativity to exactly 0.
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
        # The classical part's trace norm is 1 within far less than PSD_TOL.
        assert _mixed_trace_norm(1, 4, 0.0).err * EPS < PSD_TOL
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


@pytest.mark.parametrize("kind,computed,passed", [("close", 0.5 + 1e-12, True),
                                                  ("greater", 0.25, False)])
def test_check_json_adds_pass_to_its_fields(kind, computed, passed):
    check = Check(name="a check", kind=kind, computed=computed, expected=0.5, tolerance=1e-10)
    expected = {"name": "a check", "kind": kind, "computed": computed, "expected": 0.5,
                "tolerance": 1e-10, "pass": passed}
    assert check.to_json() == expected
    assert json.dumps(check.to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)
