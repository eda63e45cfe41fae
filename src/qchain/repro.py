"""Built-in verification fixtures with exactly known values.

Each fixture recomputes a small, fully pinned scenario end to end and
compares against closed-form expectations:

  nonconvexity            mixing a separable state with a Bell pair raises
                          sqrt-negativity above the average of the parts
  monotone-counterexample a local two-outcome measurement raises the
                          average fourth-power negativity
  ckw-violation           three-qubit state whose pairwise ratio
                          negativities sum above the one-against-rest value
  tmsvs-ratio             ratio negativity of a truncated two-mode squeezed
                          vacuum equals tanh r; negativity equals
                          (e^{2r}-1)/2
  tensor-composition      ratio negativity of a tensor product follows the
                          odds-product rule
  alpha-threshold         the monogamy power threshold and its auxiliary-
                          function form agree and round to 3.191

Used by the `repro` CLI command; the exit code is 0 only if every check
passes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .measures import (
    compose_ratio_tensor,
    f_negativity,
    negativity,
    ratio_negativity,
)
from .monogamy import alpha_threshold, aux_g, ckw_residual, ckw_violation_state
from .states import (
    DensityMatrix,
    TmsvsSpec,
    apply_kraus_branches,
    bell_state,
    cutoff_for_amplitude_tail,
    pure_from_schmidt,
    tmsvs_truncated,
)
from .tensor import SubsystemLayout, kron


@dataclass(frozen=True)
class Check:
    name: str
    kind: str          # "close" or "greater"
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        if self.kind == "close":
            return abs(self.computed - self.expected) <= self.tolerance
        return self.computed > self.expected

    def to_json(self) -> dict:
        return {**asdict(self), "pass": self.passed}


@dataclass(frozen=True)
class Fixture:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed,
                "checks": [c.to_json() for c in self.checks]}


def _mixture_states():
    layout = SubsystemLayout((2, 2), (0,))
    rho1 = np.zeros((4, 4), dtype=complex)
    rho1[0, 0] = rho1[3, 3] = 0.5
    bell = bell_state().density_matrix().matrix
    mix = (rho1 + bell) / 2
    return DensityMatrix(rho1, layout), DensityMatrix(bell, layout), DensityMatrix(mix, layout)


def fixture_nonconvexity() -> Fixture:
    rho1, rho2, mix = _mixture_states()
    n1, n2, n_mix = negativity(rho1), negativity(rho2), negativity(mix)
    sqrt_f = math.sqrt
    f_mix = f_negativity(sqrt_f, mix)
    f_avg = (f_negativity(sqrt_f, rho1) + f_negativity(sqrt_f, rho2)) / 2
    checks = [
        Check("negativity of the equal mixture", "close", n_mix, 0.25, 1e-10),
        Check("negativity of the classical part", "close", n1, 0.0, 1e-10),
        Check("negativity of the Bell part", "close", n2, 0.5, 1e-10),
        Check("sqrt-negativity of the mixture", "close", f_mix, 0.5, 1e-10),
        Check("average sqrt-negativity of the parts", "close", f_avg, math.sqrt(2) / 4, 1e-10),
        Check("mixture exceeds the average (sqrt)", "greater", f_mix, f_avg, 0.0),
    ]
    # Same witness for the other function families known to be nonconvex.
    for label, f in (("log-family", lambda x: math.log(2 * x + 1)),
                     ("ratio-family", lambda x: x / (x + 1))):
        fm = f_negativity(f, mix)
        fa = (f_negativity(f, rho1) + f_negativity(f, rho2)) / 2
        checks.append(Check(f"mixture exceeds the average ({label})", "greater", fm, fa, 0.0))
    return Fixture("nonconvexity", tuple(checks))


def fixture_monotone_counterexample() -> Fixture:
    psi = pure_from_schmidt([0.1, 0.9], (2, 2))
    m1 = np.diag([math.sqrt(0.8), math.sqrt(0.2)]).astype(complex)
    m2 = np.diag([math.sqrt(0.2), math.sqrt(0.8)]).astype(complex)
    eye = np.eye(2, dtype=complex)
    branches = apply_kraus_branches(psi, [kron(m1, eye), kron(m2, eye)])
    (p1, out1), (p2, out2) = branches
    n_in = negativity(psi)
    n1, n2 = negativity(out1), negativity(out2)
    quartic = lambda x: x ** 4
    f_in = f_negativity(quartic, psi)
    f_avg = p1 * n1 ** 4 + p2 * n2 ** 4
    expected_avg = 1296 / 109850 + 1296 / 2532650
    return Fixture("monotone-counterexample", (
        Check("first outcome probability", "close", p1, 0.26, 1e-10),
        Check("second outcome probability", "close", p2, 0.74, 1e-10),
        Check("input negativity", "close", n_in, 0.3, 1e-10),
        Check("first branch negativity", "close", n1, 6 / 13, 1e-10),
        Check("second branch negativity", "close", n2, 6 / 37, 1e-10),
        Check("fourth-power value of the input", "close", f_in, 1296 / 160000, 1e-10),
        Check("average fourth-power value of the branches", "close", f_avg, expected_avg, 1e-10),
        Check("measurement raises the average", "greater", f_avg, f_in, 0.0),
    ))


def fixture_ckw_violation() -> Fixture:
    psi = ckw_violation_state()
    rep1 = ckw_residual(psi, 1.0)
    thr = 3.191
    rep_thr = ckw_residual(psi, thr)
    lhs_pow = rep1.lhs
    return Fixture("ckw-violation", (
        Check("pairwise ratio negativity (first partner)", "close", rep1.rhs_terms[0], 0.2, 1e-10),
        Check("pairwise ratio negativity (second partner)", "close", rep1.rhs_terms[1], 0.2, 1e-10),
        Check("one-against-rest ratio negativity", "close", lhs_pow, 1 / 3, 1e-10),
        Check("unpowered residual is negative", "greater", -rep1.residual, 0.0, 0.0),
        Check("residual at power 3.191 is positive", "greater", rep_thr.residual, 0.0, 0.0),
    ))


TMSVS_R_GRID = (0.1, 0.5, 1.0, 1.5)


def fixture_tmsvs_ratio() -> Fixture:
    checks = []
    for r in TMSVS_R_GRID:
        chi = math.tanh(r)
        cutoff = cutoff_for_amplitude_tail(chi, 1e-10)
        state = tmsvs_truncated(TmsvsSpec.from_r(r, cutoff=cutoff))
        checks.append(Check(f"ratio negativity at r={r}", "close",
                            ratio_negativity(state), chi, 1e-9))
        checks.append(Check(f"negativity at r={r}", "close",
                            negativity(state), (math.exp(2 * r) - 1) / 2, 1e-7))
    return Fixture("tmsvs-ratio", tuple(checks))


def fixture_tensor_composition() -> Fixture:
    a = pure_from_schmidt([0.9, 0.1], (2, 2))
    b = bell_state()
    chi_a, chi_b = ratio_negativity(a), ratio_negativity(b)
    composite_layout = SubsystemLayout((2, 2, 2, 2), (0, 2))
    product = DensityMatrix(kron(a.density_matrix().matrix, b.density_matrix().matrix),
                            composite_layout)
    chi_dense = ratio_negativity(product)
    formula = (chi_a + chi_b) / (1 + chi_a * chi_b)
    return Fixture("tensor-composition", (
        Check("ratio negativity of the first factor", "close", chi_a, 3 / 13, 1e-10),
        Check("ratio negativity of the second factor", "close", chi_b, 1 / 3, 1e-10),
        Check("dense value matches the composition rule", "close", chi_dense, formula, 1e-10),
        Check("composition rule closed form", "close", formula, 11 / 21, 1e-12),
        Check("odds-product helper agrees", "close",
              compose_ratio_tensor([chi_a, chi_b]), formula, 1e-12),
        Check("strictly below the plain sum", "greater", chi_a + chi_b, chi_dense, 0.0),
    ))


def fixture_alpha_threshold() -> Fixture:
    thr = alpha_threshold()
    via_g = aux_g(1 / math.sqrt(2), 1 / math.sqrt(2))
    return Fixture("alpha-threshold", (
        Check("threshold value", "close", thr, math.log(2) / math.log(3 * (math.sqrt(2) - 1)), 0.0),
        Check("agreement with the auxiliary function", "close", thr, via_g, 1e-12),
        Check("rounds to 3.191", "close", thr, 3.191, 5e-4),
        Check("base identity (3(sqrt2-1))^threshold = 2", "close",
              (3 * (math.sqrt(2) - 1)) ** thr, 2.0, 1e-12),
    ))


FIXTURES = {
    "nonconvexity": fixture_nonconvexity,
    "monotone-counterexample": fixture_monotone_counterexample,
    "ckw-violation": fixture_ckw_violation,
    "tmsvs-ratio": fixture_tmsvs_ratio,
    "tensor-composition": fixture_tensor_composition,
    "alpha-threshold": fixture_alpha_threshold,
}


def run_fixtures(only: str | None = None) -> list[Fixture]:
    if only is not None:
        if only not in FIXTURES:
            raise ValueError(f"unknown fixture {only!r}; available: {sorted(FIXTURES)}")
        return [FIXTURES[only]()]
    return [fn() for fn in FIXTURES.values()]
