import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.gaussian import tmsvs_cm
from qchain.measures import (
    concurrence_pure,
    g_concurrence_pure,
    ratio_negativity,
    scp_pure_qubit,
)
from qchain.states import TmsvsSpec, pure_from_schmidt, substream, tmsvs_truncated
from qchain.swapping import (
    chain_compose,
    chain_fock_crosscheck,
    characteristic_length,
    canonical_qubit_schmidt,
    canonical_qudit_schmidt,
    qubit_link,
    qudit_link,
    swap,
    tmsvs_link,
)

EPS = np.finfo(float).eps


class TestSwapTmsvs:
    def test_equal_links(self):
        out = swap(tmsvs_link(0.5), tmsvs_link(0.5))
        assert out.kind == "tmsvs"
        assert out.native_value == math.tanh(0.5) * math.tanh(0.5)
        assert abs(out.r - math.atanh(math.tanh(0.5) ** 2)) < 1e-15

    def test_near_maximal_partner_is_lossless(self):
        out = swap(tmsvs_link(0.5), tmsvs_link(20.0))
        assert abs(out.native_value - math.tanh(0.5)) < 1e-12

    def test_fock_crosscheck_of_one_swap(self):
        out = swap(tmsvs_link(0.5), tmsvs_link(0.5))
        st = tmsvs_truncated(TmsvsSpec(r=out.r, chi=out.native_value, cutoff=40))
        links = math.tanh(0.5) ** 2
        assert abs(ratio_negativity(st) - links) < 1e-6

    def test_rule_multiplicativity(self):
        rng = substream(34, 0)
        for _ in range(500):
            r1, r2 = rng.uniform(0.05, 2.0, 2)
            out = swap(tmsvs_link(r1), tmsvs_link(r2))
            assert abs(out.native_value - math.tanh(r1) * math.tanh(r2)) <= 1e-10 * out.native_value
            assert abs(math.tanh(out.r) - out.native_value) <= 1e-12

    def test_rejects_nonpositive(self):
        for r in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="squeezing parameter r must be finite and > 0"):
                swap(tmsvs_link(r), tmsvs_link(1.0))

    def test_saturated_product_is_named(self):
        # tanh r is exactly 1.0 in float64 from r ~ 19.06 on, so the
        # product of two such links has no atanh.
        for chain in ([tmsvs_link(20.0)], [tmsvs_link(20.0), tmsvs_link(25.0)]):
            with pytest.raises(ValueError, match="rounds to 1 in float64"):
                chain_compose(chain)
        with pytest.raises(ValueError, match="rounds to 1 in float64"):
            swap(tmsvs_link(20.0), tmsvs_link(25.0))


class TestSwapQubit:
    def test_two_bell_links_stay_bell(self):
        bell = qubit_link(concurrence=1.0)
        out = swap(bell, bell)
        assert out.native_value == 1.0
        assert np.allclose(out.schmidt, (0.5, 0.5))

    def test_product_concurrence_and_canonical_pair(self):
        link = qubit_link(concurrence=0.6)
        out = swap(link, link)
        assert abs(out.native_value - 0.36) < 1e-12
        # Solving 2 sqrt(l (1-l)) = 0.36 gives l = (1 + sqrt(1 - 0.36^2))/2.
        expected_hi = (1 + math.sqrt(1 - 0.36 ** 2)) / 2
        assert abs(out.schmidt[0] - expected_hi) < 1e-12
        assert abs(out.schmidt[1] - (1 - expected_hi)) < 1e-12

    def test_dead_partner_kills_the_chain(self):
        out = swap(qubit_link(concurrence=0.6), qubit_link(concurrence=0.0))
        assert out.native_value == 0.0
        assert out.schmidt == (1.0, 0.0)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            swap(qubit_link(concurrence=0.5), tmsvs_link(0.5))

    def test_rule_vs_state_multiplicativity(self):
        rng = substream(31, 0)
        for _ in range(500):
            c1, c2 = rng.uniform(0.01, 1.0, 2)
            out = swap(qubit_link(concurrence=c1), qubit_link(concurrence=c2))
            assert abs(out.native_value - c1 * c2) <= 1e-10 * c1 * c2

    def test_dense_state_crosscheck(self):
        rng = substream(32, 0)
        for _ in range(100):
            c1, c2 = rng.uniform(0.05, 1.0, 2)
            out = swap(qubit_link(concurrence=c1), qubit_link(concurrence=c2))
            state = pure_from_schmidt(out.schmidt, (2, 2))
            assert abs(concurrence_pure(state) - c1 * c2) < 1e-6


class TestSwapQudit:
    def test_maximally_entangled_qutrits(self):
        link = qudit_link(lam=[1 / 3] * 3)
        out = swap(link, link)
        assert abs(out.native_value - 1.0) < 1e-12

    def test_value_is_product(self):
        lam = [0.5, 0.3, 0.2]
        link = qudit_link(lam=lam)
        cg = g_concurrence_pure(lam, 3)
        out = swap(link, link)
        assert abs(out.native_value - cg ** 2) < 1e-10

    def test_output_state_matches_target_value(self):
        out = swap(qudit_link(lam=[0.5, 0.3, 0.2]), qudit_link(lam=[0.6, 0.25, 0.15]))
        assert abs(g_concurrence_pure(out.schmidt, 3) - out.native_value) < 1e-10

    def test_qubit_consistency(self):
        for c1, c2 in [(0.6, 0.6), (0.9, 0.4), (1.0, 0.7)]:
            as_qudit = swap(qudit_link(lam=canonical_qubit_schmidt(c1), d=2),
                            qudit_link(lam=canonical_qubit_schmidt(c2), d=2))
            as_qubit = swap(qubit_link(concurrence=c1), qubit_link(concurrence=c2))
            assert as_qudit.schmidt == as_qubit.schmidt

    def test_dimension_mismatch(self):
        # A swap refuses the same links as the two-link chain, with one message.
        links = [qudit_link(lam=[0.5, 0.5]), qudit_link(lam=[0.4, 0.3, 0.3])]
        with pytest.raises(ValueError, match="dimensions"):
            swap(*links)
        for chain in (links, links[::-1], [links[0]] * 3 + [links[1]]):
            with pytest.raises(ValueError, match=r"link dimensions differ: \[2, 3\]"):
                chain_compose(chain)

    def test_rule_multiplicativity(self):
        rng = substream(33, 0)
        for _ in range(500):
            lam1 = rng.uniform(0.05, 1.0, 3)
            lam1 /= lam1.sum()
            lam2 = rng.uniform(0.05, 1.0, 3)
            lam2 /= lam2.sum()
            l1, l2 = qudit_link(lam=lam1), qudit_link(lam=lam2)
            out = swap(l1, l2)
            target = l1.native_value * l2.native_value
            assert abs(out.native_value - target) <= 1e-10 * max(target, 1e-300)
            # State-level: the emitted Schmidt vector carries the value.
            assert abs(g_concurrence_pure(out.schmidt, 3) - target) < 1e-6


class TestCanonicalSchmidt:
    def test_qudit_solver_hits_target(self):
        for d in (3, 4, 6):
            for target in (0.1, 0.5, 0.868941, 0.99):
                lam = canonical_qudit_schmidt(target, d)
                assert abs(sum(lam) - 1.0) < 1e-12
                assert abs(g_concurrence_pure(lam, d) - target) < 1e-9

    def test_extremes(self):
        assert canonical_qudit_schmidt(1.0, 3) == (1 / 3, 1 / 3, 1 / 3)
        assert canonical_qudit_schmidt(0.0, 3)[0] == 1.0

    def test_qubit_case_matches_closed_form(self):
        lam = canonical_qudit_schmidt(0.36, 2)
        assert abs(lam[0] - (1 + math.sqrt(1 - 0.36 ** 2)) / 2) < 1e-9

    @pytest.mark.parametrize("c", [10.0 ** -k for k in (1, 4, 8, 12, 50, 150)] + [0.6, 0.999])
    def test_weak_qubit_link_keeps_its_concurrence(self, c):
        # The small Schmidt value C^2 / (2 (1 + sqrt(1 - C^2))) does not
        # cancel; (1 - sqrt(1 - C^2))/2 read 5.55e-17 at C = 1e-8.
        lam = canonical_qubit_schmidt(c)
        assert abs(lam[0] + lam[1] - 1.0) <= 2.3e-16
        assert abs(qubit_link(concurrence=c).native_value - c) <= 4e-16 * c

    def test_pinned_weak_link_values(self):
        assert qubit_link(concurrence=1e-8).native_value == 1e-8
        assert qubit_link(concurrence=1e-6).native_value == 1e-6
        link = qubit_link(concurrence=0.00195)
        out = swap(swap(link, link), link)
        assert abs(out.native_value - 0.00195 ** 3) <= 1e-15 * 0.00195 ** 3
        as_qudit = qudit_link(lam=canonical_qubit_schmidt(0.00195), d=2)
        out = swap(swap(as_qudit, as_qudit), as_qudit)
        assert abs(out.native_value - 0.00195 ** 3) <= 1e-15 * 0.00195 ** 3


class TestChainCompose:
    def test_ten_squeezed_links(self):
        res = chain_compose([tmsvs_link(0.5)] * 10)
        assert math.isclose(res.end_to_end, math.tanh(0.5) ** 10, rel_tol=1e-12)
        assert abs(res.composite_r - math.atanh(math.tanh(0.5) ** 10)) < 1e-12

    def test_single_link(self):
        res = chain_compose([qubit_link(concurrence=0.7)])
        assert res.end_to_end == 0.7
        assert res.length == 1

    def test_three_qubit_links(self):
        res = chain_compose([qubit_link(concurrence=0.6)] * 3)
        assert math.isclose(res.end_to_end, 0.216, rel_tol=1e-12)

    def test_end_to_end_is_product_of_hops(self):
        res = chain_compose([tmsvs_link(r) for r in (0.2, 0.5, 0.9, 1.4)])
        prod = 1.0
        for v in res.per_hop:
            prod *= v
        assert res.end_to_end == prod

    def test_heterogeneous_rejected(self):
        with pytest.raises(ValueError, match="heterogeneous"):
            chain_compose([qubit_link(concurrence=0.5), tmsvs_link(0.5)])

    def test_non_multiplicative_pairing_rejected(self):
        with pytest.raises(ValueError, match="not multiplicative"):
            chain_compose([tmsvs_link(0.5)], measure="concurrence")

    def test_scp_measure_on_qubit_links(self):
        link = qubit_link(lam=(0.9, 0.1))
        res = chain_compose([link] * 2, measure="scp")
        assert math.isclose(res.end_to_end, 0.04, rel_tol=1e-12)
        assert math.isclose(res.per_hop[0], scp_pure_qubit([0.9, 0.1]), rel_tol=1e-12)

    def test_monotone_decay(self):
        values = [chain_compose([tmsvs_link(0.5)] * l).end_to_end for l in range(1, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_length_independence_of_xi(self):
        xi_ref = -1.0 / math.log(math.tanh(0.5))
        for l in range(1, 21):
            res = chain_compose([tmsvs_link(0.5)] * l)
            xi_l = -l / math.log(res.end_to_end)
            assert math.isclose(xi_l, xi_ref, rel_tol=1e-10)
            assert math.isclose(res.characteristic_length, xi_ref, rel_tol=1e-10)

    def test_bell_links_have_infinite_reach(self):
        res = chain_compose([qubit_link(concurrence=1.0)] * 100)
        assert res.end_to_end == 1.0
        assert math.isinf(res.characteristic_length)


class TestCharacteristicLength:
    def test_anchor_values(self):
        e = math.tanh(0.5)
        assert math.isclose(characteristic_length(e), -1.0 / math.log(e), rel_tol=1e-15)
        assert characteristic_length(1.0) == math.inf
        assert math.isclose(characteristic_length(1.0 / math.e), 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            characteristic_length(bad)


class TestAssociativityAndGauge:
    def test_swap_associativity(self):
        a, b, c = (qubit_link(concurrence=x) for x in (0.9, 0.6, 0.3))
        left = swap(swap(a, b), c)
        right = swap(a, swap(b, c))
        assert abs(left.native_value - right.native_value) < 1e-12

        t1, t2, t3 = (tmsvs_link(r) for r in (0.4, 0.8, 1.1))
        left_t = swap(swap(t1, t2), t3)
        right_t = swap(t1, swap(t2, t3))
        assert abs(left_t.native_value - right_t.native_value) < 1e-12

    def test_gauge_redundancy(self):
        chis = [math.tanh(r) for r in (0.2, 0.5, 0.8, 1.1, 1.7)]
        for alpha in (0.5, 1.0, 2.0, 3.191):
            prod_then_power = math.prod(chis) ** alpha
            power_then_prod = math.prod(c ** alpha for c in chis)
            assert math.isclose(prod_then_power, power_then_prod, rel_tol=1e-12)


class TestFockCrosscheck:
    def test_five_links(self):
        report = chain_fock_crosscheck(0.5, 5, cutoff=40)
        assert report.deviation[1.0] < 1e-8

    def test_two_strong_links(self):
        report = chain_fock_crosscheck(1.0, 2, cutoff=40)
        assert report.deviation[1.0] < 1e-7

    def test_alpha_reports_related_by_squaring(self):
        report = chain_fock_crosscheck(0.5, 3, cutoff=30, alphas=(1.0, 2.0))
        assert abs(report.expected[2.0] - report.expected[1.0] ** 2) < 1e-10
        assert abs(report.computed[2.0] - report.computed[1.0] ** 2) < 1e-10

    def test_composite_r_matches_rule(self):
        report = chain_fock_crosscheck(0.5, 4, cutoff=30)
        assert abs(math.tanh(report.composite_r) - math.tanh(0.5) ** 4) < 1e-12

    def test_needs_two_links(self):
        with pytest.raises(ValueError):
            chain_fock_crosscheck(0.5, 1, cutoff=30)

    @pytest.mark.parametrize("r,length", [(0.1, 20), (0.5, 5), (0.3, 10), (1.0, 3)])
    def test_composite_r_is_chain_compose(self, r, length):
        report = chain_fock_crosscheck(r, length, cutoff=30, alphas=(1.0,))
        assert report.composite_r == chain_compose([tmsvs_link(r)] * length).composite_r


class TestQuditTargets:
    # d exp(mean(log lambda)) carries a rounding error that grows with
    # |ln g|; the bisection itself stops one ulp of q from the target.
    @pytest.mark.parametrize("d", range(3, 17))
    def test_link_hits_target(self, d):
        for g in (1e-150, 1e-100, 1e-30, 1e-10, 1e-6, 0.01, 0.5, 0.999999):
            value = qudit_link(d=d, g_concurrence=g).native_value
            assert abs(value - g) <= 8 * EPS * (1.0 + abs(math.log(g))) * g, (d, g, value)

    @pytest.mark.parametrize("d", range(3, 17))
    def test_maximally_entangled_link(self, d):
        # d exp(mean(log(1/d))) rounds to 1 + 2.2e-16 at d = 6, 8 and 14;
        # the G-concurrence reads at most 1 there, so the link is accepted.
        for link in (qudit_link(d=d, g_concurrence=1.0), qudit_link(lam=[1 / d] * d)):
            assert 1.0 - 8 * EPS <= link.native_value <= 1.0

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_unreachable_target_raises(self, d):
        # lambda_{d-1} would lie below the smallest normal float64.
        with pytest.raises(ValueError, match="underflows"):
            canonical_qudit_schmidt(1e-300, d)
        with pytest.raises(ValueError, match="underflows"):
            qudit_link(d=d, g_concurrence=1e-300)


QUBIT_LINK_SPECS = st.one_of(
    st.tuples(st.just("target"), st.floats(0.0, 1.0)),
    st.tuples(st.just("lambda"), st.floats(0.0, 0.5).map(lambda x: (1.0 - x, x))))


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(QUBIT_LINK_SPECS, min_size=1, max_size=6))
def test_d2_qudit_links_are_qubit_links(specs):
    qubits = [qubit_link(concurrence=v) if how == "target" else qubit_link(lam=v)
              for how, v in specs]
    qudits = [qudit_link(d=2, g_concurrence=v) if how == "target" else qudit_link(lam=v, d=2)
              for how, v in specs]
    for a, b in zip(qubits, qudits):
        assert (a.schmidt, a.native_value) == (b.schmidt, b.native_value)
    a, b = functools.reduce(swap, qubits), functools.reduce(swap, qudits)
    assert (a.schmidt, a.native_value) == (b.schmidt, b.native_value)
    a, b = chain_compose(qubits), chain_compose(qudits)
    assert (a.per_hop, a.end_to_end, a.characteristic_length) \
        == (b.per_hop, b.end_to_end, b.characteristic_length)


class TestLinkValidation:
    def test_qubit_link_requires_exactly_one_spec(self):
        with pytest.raises(ValueError):
            qubit_link()
        with pytest.raises(ValueError):
            qubit_link(lam=(0.5, 0.5), concurrence=0.5)

    def test_measure_value_dispatch(self):
        link = tmsvs_link(0.5)
        assert link.measure_value("ratio") == math.tanh(0.5)
        assert link.measure_value("alpha_ratio", 2.0) == math.tanh(0.5) ** 2
        with pytest.raises(ValueError):
            link.measure_value("g_concurrence")


@st.composite
def chains(draw):
    """A homogeneous chain of 1-8 links, a measure it supports and a power."""
    kind = draw(st.sampled_from(["qubit", "qudit", "tmsvs"]))
    n = draw(st.integers(1, 8))
    value = st.floats(1e-3, 1.0)
    if kind == "qubit":
        links = [qubit_link(concurrence=draw(value)) for _ in range(n)]
        measure = draw(st.sampled_from(["concurrence", "scp"]))
    elif kind == "qudit":
        d = draw(st.integers(2, 5))
        links = [qudit_link(d=d, g_concurrence=draw(value)) for _ in range(n)]
        measure = "g_concurrence"
    else:
        links = [tmsvs_link(draw(st.floats(0.05, 3.0))) for _ in range(n)]
        measure = draw(st.sampled_from(["ratio", "alpha_ratio"]))
    return links, measure, draw(st.floats(0.25, 4.0))


@settings(max_examples=80, deadline=None)
@given(case=chains())
def test_chain_values_multiply(case):
    links, measure, alpha = case
    res = chain_compose(links, measure=measure, alpha=alpha)
    assert res.per_hop == tuple(lk.measure_value(measure, alpha) for lk in links)
    assert math.isclose(res.end_to_end, math.prod(res.per_hop), rel_tol=1e-12)
    assert res.length == len(links)
    if res.composite_r is not None:
        chis = [lk.native_value for lk in links]
        assert math.isclose(math.tanh(res.composite_r), math.prod(chis), rel_tol=1e-12)


@st.composite
def link_pairs(draw):
    """Two links of one kind (and one d), with the kind's native values."""
    kind = draw(st.sampled_from(["qubit", "qudit", "tmsvs"]))
    if kind == "qubit":
        return [qubit_link(concurrence=v) if how == "target" else qubit_link(lam=v)
                for how, v in (draw(QUBIT_LINK_SPECS), draw(QUBIT_LINK_SPECS))]
    if kind == "qudit":
        d = draw(st.integers(2, 6))
        return [qudit_link(d=d, g_concurrence=draw(st.floats(1e-3, 1.0))) for _ in range(2)]
    return [tmsvs_link(draw(st.floats(1e-3, 18.0))) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(pair=link_pairs())
def test_swap_is_the_two_link_chain(pair):
    # A qubit or qudit output's native value is that of the canonical
    # Schmidt vector for the product, so it may differ from v in its last
    # bits; a tmsvs output carries v itself.
    l1, l2 = pair
    v = chain_compose([l1, l2]).end_to_end
    assert v == l1.native_value * l2.native_value
    out = swap(l1, l2)
    if l1.kind == "qubit_pure":
        assert out == qubit_link(concurrence=v)
    elif l1.kind == "qudit_pure":
        assert out == qudit_link(d=l1.d, g_concurrence=v)
    else:
        assert out.native_value == v
        assert out.r == math.atanh(v)


class TestSqueezingParameter:
    @pytest.mark.parametrize("r", [0.0, -0.5, math.inf, -math.inf, math.nan])
    def test_one_rule_everywhere(self, r):
        # The link, the Fock cross-check, the spec and the covariance
        # matrix share states.require_squeezing and its message.
        for build in (tmsvs_link, lambda x: chain_fock_crosscheck(x, 2, 10),
                      TmsvsSpec.from_r, lambda x: TmsvsSpec(r=x, chi=0.5, cutoff=5), tmsvs_cm):
            with pytest.raises(ValueError, match=r"squeezing parameter r must be finite and > 0, "
                                                 rf"got {r}"):
                build(r)
