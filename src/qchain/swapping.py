"""Swapping rules for 1D chains and the characteristic length.

Three link kinds are supported, each with the measure that multiplies
under its optimal deterministic swapping protocol:

  qubit_pure  -- concurrence (singlet conversion probability also multiplies
                 under the probabilistic conversion scheme),
  qudit_pure  -- G-concurrence,
  tmsvs       -- ratio negativity (tanh of the squeezing parameter).

Chains hold links of one kind and one local dimension; the end-to-end value
is the product of per-hop values and the characteristic length is -1/ln of
the per-link value.

Each value has one rule: a link built from a target value carries exactly
that value, a link built from Schmidt coefficients takes its value from
`measures` (so a d = 2 qudit link equals the matching qubit link bit for
bit), and every product of link values comes from one walk of the chain,
which `chain_compose` reads at its last link and `chain_prefixes` at every
link. A swap is the two-link chain turned back into a link, and the Fock
cross-check takes its composite from the same chain.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

from .measures import MeasureSpec, g_concurrence_pure, ratio_negativity, scp_pure_qubit
from .states import TmsvsSpec, require_squeezing, tmsvs_truncated
from .tensor import _check_distribution, _integer

LINK_KINDS = ("qubit_pure", "qudit_pure", "tmsvs")

# Multiplicative measures per link kind; the first entry is the native one.
SUPPORTED_MEASURES = {
    "qubit_pure": ("concurrence", "scp"),
    "qudit_pure": ("g_concurrence",),
    "tmsvs": ("ratio", "alpha_ratio"),
}


@dataclass(frozen=True)
class LinkResource:
    """One link of a chain: its kind, Schmidt data (none for a qudit link
    built from a target) or squeezing parameter, and the value of its
    kind's native measure."""

    kind: str
    schmidt: tuple[float, ...] | None = None
    d: int | None = None
    r: float | None = None
    native_value: float = field(default=None)

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.native_value is None or not (0.0 <= self.native_value <= 1.0):
            raise ValueError(f"native measure value must lie in [0, 1], got {self.native_value}")


def _target(value: float, name: str) -> float:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def qubit_link(lam=None, concurrence: float | None = None) -> LinkResource:
    """Pure 2-qubit link from a Schmidt pair or a target concurrence.

    A target link carries exactly the target as its value, with the
    canonical Schmidt pair of that concurrence for `scp`.
    """
    if (lam is None) == (concurrence is None):
        raise ValueError("give exactly one of lam or concurrence")
    if lam is None:
        c = _target(concurrence, "concurrence")
        return LinkResource(kind="qubit_pure", schmidt=canonical_qubit_schmidt(c), d=2,
                            native_value=c)
    lam = tuple(float(x) for x in _check_distribution(lam, 2))
    return LinkResource(kind="qubit_pure", schmidt=lam, d=2, native_value=g_concurrence_pure(lam, 2))


def qudit_link(lam=None, d: int | None = None, g_concurrence: float | None = None) -> LinkResource:
    """Pure 2-qudit link from a Schmidt vector of at least two coefficients,
    or from a local dimension d >= 2 and a target G-concurrence.

    A target link carries exactly the target as its value and no Schmidt
    vector: the swapping rule fixes only the measure value.
    """
    if (lam is None) == (g_concurrence is None):
        raise ValueError("give exactly one of lam or g_concurrence")
    if lam is None:
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 2:
            raise ValueError(f"qudit links need an integer local dimension d >= 2, got {d!r}")
        return LinkResource(kind="qudit_pure", d=int(d),
                            native_value=_target(g_concurrence, "G-concurrence"))
    lam = tuple(float(x) for x in _check_distribution(lam, None if d is None else _integer(d, "d")))
    if len(lam) < 2:
        raise ValueError(f"qudit links need at least 2 Schmidt coefficients, got {len(lam)}")
    return LinkResource(kind="qudit_pure", schmidt=lam, d=len(lam),
                        native_value=g_concurrence_pure(lam, len(lam)))


def tmsvs_link(r: float) -> LinkResource:
    r = require_squeezing(r)
    return LinkResource(kind="tmsvs", r=r, native_value=math.tanh(r))


def canonical_qubit_schmidt(concurrence: float) -> tuple[float, float]:
    """The Schmidt pair (1 +/- sqrt(1 - C^2))/2 realizing a concurrence.

    The small value is computed as C^2 / (2 (1 + sqrt(1 - C^2))), which is
    equal and does not cancel, so a weak link keeps its concurrence.
    """
    root = math.sqrt(max(0.0, 1.0 - concurrence ** 2))
    return ((1.0 + root) / 2.0, concurrence ** 2 / (2.0 * (1.0 + root)))


def characteristic_length(link_measure_value: float) -> float:
    """-1/ln(e) with the link spacing as the length unit; +inf at e = 1."""
    e = float(link_measure_value)
    if not 0.0 < e <= 1.0:
        raise ValueError(f"measure value must lie in (0, 1], got {e}")
    if e == 1.0:
        return math.inf
    return -1.0 / math.log(e)


@dataclass(frozen=True)
class ChainResult:
    kind: str
    measure: str
    alpha: float
    per_hop: tuple[float, ...]
    end_to_end: float
    characteristic_length: float
    length: int
    composite_r: float | None = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind, "measure": self.measure, "alpha": self.alpha,
            "per_hop": list(self.per_hop), "end_to_end": self.end_to_end,
            "characteristic_length": ("inf" if math.isinf(self.characteristic_length)
                                      else self.characteristic_length),
            "length": self.length,
        }
        if self.composite_r is not None:
            out["composite_r"] = self.composite_r
        return out


def _walk(links, measure: str | None, alpha: float):
    """Check a chain once and walk it: its kind, measure, per-hop values,
    and one running state (end-to-end product, product of native values,
    every link alive) per prefix.

    This is the one place that multiplies link values. The products run
    left to right, which gives math.prod's bits, so each prefix's state
    equals that of the prefix composed alone.
    """
    links = list(links)
    if not links:
        raise ValueError("chain must have at least one link")
    kinds = {lk.kind for lk in links}
    if len(kinds) > 1:
        raise ValueError(f"heterogeneous chains are not supported: {sorted(kinds)}")
    dims = {lk.d for lk in links}
    if len(dims) > 1:
        raise ValueError(f"link dimensions differ: {sorted(dims)}")
    kind = links[0].kind
    if measure is None:
        measure = SUPPORTED_MEASURES[kind][0]
        if kind == "tmsvs" and alpha != 1.0:
            measure = "alpha_ratio"
    if measure not in SUPPORTED_MEASURES[kind]:
        raise ValueError(
            f"measure {measure!r} is not multiplicative under {kind} swapping; "
            f"supported: {SUPPORTED_MEASURES[kind]}")
    MeasureSpec(measure, alpha)  # the measures' alpha rule
    if measure == "alpha_ratio":
        per_hop = tuple(lk.native_value ** alpha for lk in links)
    elif measure == "scp":
        per_hop = tuple(scp_pure_qubit(lk.schmidt) for lk in links)
    else:
        per_hop = tuple(lk.native_value for lk in links)
    end, chi, alive, states = 1.0, 1.0, True, []
    for value, lk in zip(per_hop, links):
        end *= value
        chi *= lk.native_value
        alive = alive and lk.native_value > 0.0
        states.append((end, chi, alive))
    return kind, measure, per_hop, states


def _prefix_result(kind: str, measure: str, alpha: float, per_hop: tuple, length: int,
                   state: tuple) -> ChainResult:
    """The ChainResult of the prefix of `length` links whose running state
    is `state`, or a ValueError naming why that chain has no reliable value."""
    end, chi, alive = state
    if end < sys.float_info.min and alive:
        raise ValueError(f"the end-to-end value of {length} links, {end!r}, lies below the "
                         f"normal float64 range, so its characteristic length is not reliable")
    composite_r = None
    if kind == "tmsvs":
        if chi < sys.float_info.min:
            raise ValueError(f"the product of tanh r over {length} links, {chi!r}, lies below "
                             f"the normal float64 range, so the composite squeezing parameter "
                             f"is not reliable")
        if chi == 1.0:
            raise ValueError("the product of tanh r over the links rounds to 1 in float64, "
                             "so the composite squeezing parameter cannot be represented")
        composite_r = math.atanh(chi)
    # -l/ln(end); continuous extension 0 for a dead link, +inf for all-Bell.
    xi = characteristic_length(end ** (1.0 / length)) if end > 0 else 0.0
    return ChainResult(kind=kind, measure=measure, alpha=alpha, per_hop=per_hop,
                       end_to_end=end, characteristic_length=xi, length=length,
                       composite_r=composite_r)


def chain_compose(links, measure: str | None = None, alpha: float = 1.0) -> ChainResult:
    """Compose a homogeneous chain of links under a multiplicative measure.

    end_to_end is the product of per-hop values; for tmsvs chains the
    composite squeezing parameter is also reported. Links of different
    kinds or local dimensions, and non-multiplicative measure/kind
    pairings, are rejected. A product below the normal float64 range is
    rejected unless a link is dead (value 0), which gives xi = 0.
    """
    kind, measure, per_hop, states = _walk(links, measure, alpha)
    return _prefix_result(kind, measure, alpha, per_hop, len(states), states[-1])


def chain_prefixes(links, measure: str | None = None, alpha: float = 1.0) -> list[ChainResult]:
    """The ChainResult of every prefix of a chain, from one walk.

    Row l equals chain_compose(links[:l], measure, alpha) except that its
    per_hop is empty, so the rows take time and memory linear in the
    chain's length. A chain whose prefix chain_compose would refuse is
    refused with the first such prefix's message.
    """
    kind, measure, _, states = _walk(links, measure, alpha)
    return [_prefix_result(kind, measure, alpha, (), length, state)
            for length, state in enumerate(states, 1)]


def swap(link1: LinkResource, link2: LinkResource) -> LinkResource:
    """Optimal swap of two links: the two-link chain as one link of the same kind.

    Its native value is the chain's end_to_end product, exactly, for every
    kind. A qubit output also carries the canonical Schmidt pair of that
    value, a qudit output carries no Schmidt vector, and a tmsvs output
    carries the chain's composite squeezing parameter.
    """
    res = chain_compose([link1, link2])
    if res.kind == "qubit_pure":
        return qubit_link(concurrence=res.end_to_end)
    if res.kind == "qudit_pure":
        return qudit_link(d=link1.d, g_concurrence=res.end_to_end)
    return LinkResource(kind="tmsvs", r=res.composite_r, native_value=res.end_to_end)


@dataclass(frozen=True)
class FockCrosscheckReport:
    r: float
    length: int
    cutoff: int
    composite_r: float
    expected: dict[float, float]   # alpha -> tanh(r)^(l*alpha)
    computed: dict[float, float]   # alpha -> dense alpha-ratio negativity
    deviation: dict[float, float]


def chain_fock_crosscheck(r: float, length: int, cutoff: int,
                          alphas=(1.0, 0.5, 2.0, 3.191)) -> FockCrosscheckReport:
    """Check the Fock-basis measure route on the composite state that
    `chain_compose` reports.

    Takes the composite squeezing parameter of `length` identical links
    from `chain_compose`, builds that truncated two-mode squeezed state
    densely, and compares its alpha-ratio negativities (via the dense
    partial-transpose route) against tanh(r)^(length*alpha). No swap is
    simulated, so this does not test the multiplication rule itself.
    """
    if length < 2:
        raise ValueError(f"need at least 2 links, got {length}")
    composite_r = chain_compose([tmsvs_link(r)] * length).composite_r
    dense = tmsvs_truncated(TmsvsSpec.from_r(composite_r, cutoff=cutoff)).density_matrix()
    chi_dense = ratio_negativity(dense)
    expected, computed, deviation = {}, {}, {}
    for a in alphas:
        expected[a] = math.tanh(r) ** (length * a)
        computed[a] = chi_dense ** a
        deviation[a] = abs(computed[a] - expected[a])
    return FockCrosscheckReport(r=r, length=length, cutoff=cutoff, composite_r=composite_r,
                                expected=expected, computed=computed, deviation=deviation)
