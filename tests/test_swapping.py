import copy
import dataclasses
import functools
import json
import math
import pickle
import re
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qchain.swapping
from qchain.gaussian import tmsvs_cm
from qchain.measures import MeasureSpec, evaluate_measure, ratio_negativity
from qchain.reports import CHAIN_SCHEMA, LINK_SCHEMAS, chain_from_json
from qchain.states import (
    TmsvsSpec,
    pure_from_schmidt,
    random_haar_pure,
    substream,
    tmsvs_truncated,
)
from qchain.swapping import (
    LinkResource,
    chain_compose,
    chain_fock_crosscheck,
    chain_prefixes,
    characteristic_length,
    canonical_qubit_schmidt,
    qubit_link,
    qudit_link,
    swap,
    tmsvs_link,
)
from qchain.tensor import TRACE_TOL, SubsystemLayout

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
        st = tmsvs_truncated(TmsvsSpec(r=out.r, cutoff=40))
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
            assert abs(evaluate_measure(MeasureSpec("concurrence"), state).value - c1 * c2) < 1e-6


class TestSwapQudit:
    def test_maximally_entangled_qutrits(self):
        link = qudit_link(lam=[1 / 3] * 3)
        out = swap(link, link)
        assert abs(out.native_value - 1.0) < 1e-12

    def test_value_is_product(self):
        lam = [0.5, 0.3, 0.2]
        link = qudit_link(lam=lam)
        cg = 3 * (0.5 * 0.3 * 0.2) ** (1 / 3)
        out = swap(link, link)
        assert abs(out.native_value - cg ** 2) < 1e-10

    def test_qubit_consistency(self):
        for c1, c2 in [(0.6, 0.6), (0.9, 0.4), (1.0, 0.7)]:
            as_qudit = swap(qudit_link(lam=canonical_qubit_schmidt(c1), d=2),
                            qudit_link(lam=canonical_qubit_schmidt(c2), d=2))
            as_qubit = swap(qubit_link(lam=canonical_qubit_schmidt(c1)),
                            qubit_link(lam=canonical_qubit_schmidt(c2)))
            assert as_qudit.native_value == as_qubit.native_value
            assert as_qudit.schmidt is None

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
            assert out.native_value == l1.native_value * l2.native_value
            assert (out.d, out.schmidt) == (3, None)


class TestCanonicalSchmidt:
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
        assert math.isclose(res.per_hop[0], 0.2, rel_tol=1e-12)

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

    def test_long_chain_keeps_one_running_state(self):
        # The link list's copy and the per-hop tuple take 8 bytes a link
        # (1.6 MB at 10^5 links); a running state kept for every prefix
        # took about 110 more (13.6 MB in all).
        links = [tmsvs_link(5.0)] * 10**5
        tracemalloc.start()
        try:
            res = chain_compose(links)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.end_to_end == chain_prefixes(links)[-1].end_to_end
        assert peak < 4e6, peak


class TestCharacteristicLength:
    def test_anchor_values(self):
        e = math.tanh(0.5)
        assert math.isclose(characteristic_length(e), -1.0 / math.log(e), rel_tol=1e-15)
        assert characteristic_length(1.0) == math.inf
        assert math.isclose(characteristic_length(1.0 / math.e), 1.0, rel_tol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2, math.nan])
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
        report = chain_fock_crosscheck(0.5, 3, cutoff=30)
        assert abs(report.expected[2.0] - report.expected[1.0] ** 2) < 1e-10
        assert abs(report.computed[2.0] - report.computed[1.0] ** 2) < 1e-10

    def test_composite_r_matches_rule(self):
        report = chain_fock_crosscheck(0.5, 4, cutoff=30)
        assert abs(math.tanh(report.composite_r) - math.tanh(0.5) ** 4) < 1e-12

    def test_needs_two_links(self):
        with pytest.raises(ValueError):
            chain_fock_crosscheck(0.5, 1, cutoff=30)

    @pytest.mark.parametrize("length", [5.0, True, "5"])
    def test_length_must_be_an_integer(self, length):
        # 5.0 ended in a bare TypeError from repeating the link list.
        with pytest.raises(ValueError, match=f"^{re.escape(f'length must be an integer, got {length!r}')}$"):
            chain_fock_crosscheck(0.5, length, cutoff=30)

    @pytest.mark.parametrize("r,length", [(0.1, 20), (0.5, 5), (0.3, 10), (1.0, 3)])
    def test_composite_r_is_chain_compose(self, r, length):
        report = chain_fock_crosscheck(r, length, cutoff=30)
        assert report.composite_r == chain_compose([tmsvs_link(r)] * length).composite_r


class TestQuditTargets:
    @pytest.mark.parametrize("d", range(3, 17))
    def test_link_hits_target(self, d):
        for g in (1e-150, 1e-100, 1e-30, 1e-10, 1e-6, 0.01, 0.5, 0.999999):
            assert qudit_link(d=d, g_concurrence=g).native_value == g

    @pytest.mark.parametrize("d", range(3, 17))
    def test_maximally_entangled_link(self, d):
        # d exp(mean(log(1/d))) rounds to 1 + 2.2e-16 at d = 6, 8 and 14;
        # the G-concurrence reads at most 1 there, so the link is accepted.
        for link in (qudit_link(d=d, g_concurrence=1.0), qudit_link(lam=[1 / d] * d)):
            assert 1.0 - 8 * EPS <= link.native_value <= 1.0

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_unreachable_target_raises(self, d):
        # Only targets outside [0, 1] are unreachable. G-concurrence 1e-300,
        # whose Schmidt vector at d >= 3 underflows float64, is held exactly:
        # the link holds the value, not a vector.
        for g in (-1e-300, 1.0 + EPS, math.nan, math.inf):
            with pytest.raises(ValueError, match="G-concurrence must lie in"):
                qudit_link(d=d, g_concurrence=g)
        link = qudit_link(d=d, g_concurrence=1e-300)
        assert (link.native_value, link.d, link.schmidt) == (1e-300, d, None)
        assert chain_compose([link]).end_to_end == 1e-300

    @pytest.mark.parametrize("d", [None, 1, 0, 2.0, 3.5, True, "3"])
    def test_target_needs_an_integer_dimension(self, d):
        if d is None or type(d) is int:
            with pytest.raises(ValueError, match=f"local dimension d >= 2, got {d}"):
                qudit_link(d=d, g_concurrence=0.5)
            return
        # A non-integer d is refused by tensor._integer, with one message on
        # both branches.
        for build in (lambda: qudit_link(d=d, g_concurrence=0.5),
                      lambda: qudit_link(lam=[0.5, 0.5], d=d)):
            with pytest.raises(ValueError, match=re.escape(f"d must be an integer, got {d!r}")):
                build()

    @pytest.mark.parametrize("c", [-0.1, 1.0 + EPS, math.nan, math.inf])
    def test_qubit_target_outside_unit_interval(self, c):
        with pytest.raises(ValueError, match="concurrence must lie in"):
            qubit_link(concurrence=c)

    @pytest.mark.parametrize("lam,d", [([1.0], None), ([1.0], 1)])
    def test_one_schmidt_coefficient_refused(self, lam, d):
        # One coefficient is a product state, not a qudit link.
        with pytest.raises(ValueError, match="at least 2 Schmidt coefficients, got 1"):
            qudit_link(lam=lam, d=d)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(0.0, 1.0), d=st.integers(2, 16), g=st.floats(0.0, 1.0))
@example(c=5e-324, d=16, g=1e-300)
@example(c=sys.float_info.min, d=3, g=5e-324)
def test_target_links_hold_their_target(c, d, g):
    assert qubit_link(concurrence=c).native_value == c
    link = qudit_link(d=d, g_concurrence=g)
    assert (link.native_value, link.d) == (g, d)


QUBIT_LINK_SPECS = st.one_of(
    st.tuples(st.just("target"), st.floats(0.0, 1.0)),
    st.tuples(st.just("lambda"), st.floats(0.0, 0.5).map(lambda x: (1.0 - x, x))))


def outcome(build):
    """build()'s result, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(QUBIT_LINK_SPECS, min_size=1, max_size=6))
def test_d2_qudit_links_are_qubit_links(specs):
    # Equal values and chain results. A qubit target link carries its
    # canonical pair and a qudit target link no vector, so Schmidt vectors
    # are compared only for links built from lambda.
    qubits = [qubit_link(concurrence=v) if how == "target" else qubit_link(lam=v)
              for how, v in specs]
    qudits = [qudit_link(d=2, g_concurrence=v) if how == "target" else qudit_link(lam=v, d=2)
              for how, v in specs]
    for (how, _), a, b in zip(specs, qubits, qudits):
        assert a.native_value == b.native_value
        if how == "lambda":
            assert a.schmidt == b.schmidt
    a = outcome(lambda: functools.reduce(swap, qubits).native_value)
    assert a == outcome(lambda: functools.reduce(swap, qudits).native_value)
    a = outcome(lambda: chain_compose(qubits))
    b = outcome(lambda: chain_compose(qudits))
    if isinstance(a, str):
        assert a == b
    else:
        assert (a.per_hop, a.end_to_end, a.characteristic_length) \
            == (b.per_hop, b.end_to_end, b.characteristic_length)


class TestLinkValidation:
    def test_qubit_link_requires_exactly_one_spec(self):
        with pytest.raises(ValueError):
            qubit_link()
        with pytest.raises(ValueError):
            qubit_link(lam=(0.5, 0.5), concurrence=0.5)
        with pytest.raises(ValueError, match="give exactly one of lam or g_concurrence"):
            qudit_link()

    @pytest.mark.parametrize("build,message", [
        (lambda: qubit_link(concurrence=1.5), "concurrence must lie in [0, 1], got 1.5"),
        (lambda: chain_compose([]), "chain must have at least one link"),
        (lambda: qubit_link((0.3, 0.3)), "Schmidt coefficients must sum to 1, got 0.6"),
        (lambda: qubit_link((0.5, 0.25, 0.25)), "need exactly 2 Schmidt coefficients, got 3"),
        (lambda: qubit_link(), "give exactly one of lam or concurrence"),
        (lambda: qubit_link((1.2, -0.2)), "Schmidt coefficients must be a non-negative vector"),
        (lambda: qudit_link((0.5, 0.5), d=3), "need exactly 3 Schmidt coefficients, got 2"),
        # True built a link of value 1.0, [True, False] the pair (1.0, 0.0),
        # numpy parsed strings, and a string target raised a bare TypeError.
        (lambda: qubit_link(concurrence=True), "concurrence must be a real number, got True"),
        (lambda: qubit_link(concurrence=np.True_),
         "concurrence must be a real number, got np.True_"),
        (lambda: qubit_link(concurrence="0.5"), "concurrence must be a real number, got '0.5'"),
        (lambda: qudit_link(d=3, g_concurrence=True),
         "G-concurrence must be a real number, got True"),
        (lambda: qubit_link([True, False]),
         "each Schmidt coefficient must be a real number, got True"),
        (lambda: qubit_link(["0.5", "0.5"]),
         "each Schmidt coefficient must be a real number, got '0.5'"),
        (lambda: qudit_link(["0.5", "0.5"]),
         "each Schmidt coefficient must be a real number, got '0.5'"),
        (lambda: qubit_link(np.array([True, False])),
         "each Schmidt coefficient must be a real number, got True"),
    ], ids=["value_above_one", "empty_chain", "qubit_pair_sum", "qubit_three_coefficients",
            "qubit_no_pair", "qubit_negative", "qudit_size", "qubit_target_true",
            "qubit_target_numpy_true", "qubit_target_string", "qudit_target_true",
            "qubit_boolean_pair", "qubit_string_pair", "qudit_string_vector",
            "qubit_numpy_boolean_pair"])
    def test_malformed_link_or_chain_refused(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("schmidt,d,message", [
        (None, None, "qudit links need a local dimension d >= 2, got None"),
        (None, -3, "qudit links need a local dimension d >= 2, got -3"),
        (None, 1, "qudit links need a local dimension d >= 2, got 1"),
        (None, 3.0, "d must be an integer, got 3.0"),
        ((1.0,), None, "qudit links need at least 2 Schmidt coefficients, got 1"),
    ], ids=["qudit_no_d", "qudit_negative_d", "qudit_d1", "qudit_float_d",
            "qudit_one_coefficient"])
    def test_link_dimension_must_match_its_kind(self, schmidt, d, message):
        # A d = -3 qudit chain composed until a swap refused it.
        target = 0.5 if schmidt is None else None
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qudit_link(schmidt, d=d, g_concurrence=target)

    @pytest.mark.parametrize("build,d", [
        (lambda: qubit_link((0.9, 0.1)), 2),
        (lambda: qubit_link(np.array([0.9, 0.1])), 2),
        (lambda: qudit_link((0.5, 0.3, 0.2)), 3),
        (lambda: qudit_link(d=np.int64(4), g_concurrence=0.6), 4),
        (lambda: tmsvs_link(0.55), None),
    ], ids=["qubit_none", "qubit_numpy", "qudit_from_vector", "qudit_numpy", "tmsvs"])
    def test_link_dimension_is_stored_as_its_kind_reads_it(self, build, d):
        link = build()
        assert link.d == d and type(link.d) is type(d)
        assert link.schmidt is None or {type(x) for x in link.schmidt} == {float}

    def test_measure_value_dispatch(self):
        link = tmsvs_link(0.5)
        assert chain_compose([link], "ratio").per_hop[0] == math.tanh(0.5)
        assert chain_compose([link], "alpha_ratio", 2.0).per_hop[0] == math.tanh(0.5) ** 2
        with pytest.raises(ValueError):
            chain_compose([link], "g_concurrence").per_hop[0]


class TestAlphaOnlyForAlphaRatio:
    LINKS = {"concurrence": qubit_link(concurrence=0.5), "scp": qubit_link(concurrence=0.5),
             "g_concurrence": qudit_link(d=3, g_concurrence=0.5), "ratio": tmsvs_link(0.5)}

    @pytest.mark.parametrize("measure", sorted(LINKS))
    @pytest.mark.parametrize("alpha", [2.0, 0.5, math.nan])
    def test_refused(self, measure, alpha):
        link = self.LINKS[measure]
        message = rf"alpha {alpha!r} applies only to the alpha_ratio measure; '{measure}'"
        with pytest.raises(ValueError, match=message):
            chain_compose([link], measure, alpha).per_hop[0]
        with pytest.raises(ValueError, match=message):
            chain_compose([link] * 2, measure=measure, alpha=alpha)

    def test_default_measure_takes_the_power_only_on_tmsvs(self):
        with pytest.raises(ValueError, match="'concurrence' takes alpha 1"):
            chain_compose([qubit_link(concurrence=0.5)], alpha=2.0)
        with pytest.raises(ValueError, match="'g_concurrence' takes alpha 1"):
            chain_compose([qudit_link(d=3, g_concurrence=0.5)], alpha=2.0)
        res = chain_compose([tmsvs_link(0.5)], alpha=2.0)
        assert (res.measure, res.per_hop) == ("alpha_ratio", (math.tanh(0.5) ** 2.0,))


class TestUnderflowRefused:
    """A chain product below the normal float64 range has no reliable xi."""

    def test_last_normal_product_is_accepted(self):
        # 0.5^1022 is the smallest normal float64, 2.2250738585072014e-308.
        res = chain_compose([qubit_link(concurrence=0.5)] * 1022)
        assert res.end_to_end == sys.float_info.min
        assert res.characteristic_length == -1.0 / math.log(0.5)

    @pytest.mark.parametrize("count", [1023, 1060, 1074, 1100])
    def test_subnormal_or_zero_product_is_refused(self, count):
        # A subnormal product keeps few bits: at 1060 links xi would be
        # 1.4426949210, not 1/ln 2 = 1.4426950409, and from 1075 links the
        # product is 0, which would read as a dead link.
        with pytest.raises(ValueError, match=rf"end-to-end value of {count} links, .* below the "
                                             r"normal float64 range"):
            chain_compose([qubit_link(concurrence=0.5)] * count)

    def test_weak_single_link_is_refused(self):
        with pytest.raises(ValueError, match="of 1 links"):
            chain_compose([qudit_link(d=3, g_concurrence=1e-310)])

    def test_dead_link_keeps_xi_zero(self):
        res = chain_compose([qubit_link(concurrence=0.0)] + [qubit_link(concurrence=0.5)] * 1100)
        assert (res.end_to_end, res.characteristic_length) == (0.0, 0.0)
        out = swap(qudit_link(d=4, g_concurrence=0.0), qudit_link(d=4, g_concurrence=1e-300))
        assert out.native_value == 0.0

    def test_swap_of_weak_links_is_refused(self):
        with pytest.raises(ValueError, match="of 2 links, 0.0, lies below"):
            swap(tmsvs_link(1e-200), tmsvs_link(1e-200))
        with pytest.raises(ValueError, match="of 2 links"):
            swap(qubit_link(concurrence=1e-160), qubit_link(concurrence=1e-160))

    def test_tmsvs_tanh_product_is_checked_apart_from_the_power(self):
        # alpha = 0.5 keeps the per-hop product normal while the product
        # of tanh r, which gives the composite r, underflows.
        links = [tmsvs_link(1e-200)] * 2
        assert math.prod(chain_compose([lk], "alpha_ratio", 0.5).per_hop[0] for lk in links) == 1e-200
        with pytest.raises(ValueError, match="product of tanh r over 2 links, 0.0, lies below"):
            chain_compose(links, alpha=0.5)


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
    alpha = draw(st.floats(0.25, 4.0)) if measure == "alpha_ratio" else 1.0
    return links, measure, alpha


@settings(max_examples=80, deadline=None)
@given(case=chains())
def test_chain_values_multiply(case):
    links, measure, alpha = case
    res = chain_compose(links, measure=measure, alpha=alpha)
    assert res.per_hop == tuple(chain_compose([lk], measure, alpha).per_hop[0] for lk in links)
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
    l1, l2 = pair
    v = l1.native_value * l2.native_value
    if 0.0 < v < sys.float_info.min or (v == 0.0 and min(l1.native_value, l2.native_value) > 0):
        with pytest.raises(ValueError, match="of 2 links"):
            swap(l1, l2)
        return
    assert chain_compose([l1, l2]).end_to_end == v
    out = swap(l1, l2)
    assert (out.kind, out.native_value) == (l1.kind, v)
    if l1.kind == "qubit_pure":
        assert out == qubit_link(concurrence=v)
    elif l1.kind == "qudit_pure":
        assert out == qudit_link(d=l1.d, g_concurrence=v)
    else:
        assert out.r == math.atanh(v)


@st.composite
def walk_chains(draw):
    """A chain of 1-40 links of one kind that may hold dead links, links
    near 1e-160 and saturated squeezing, with a measure it supports (or
    the default) and a power."""
    kind = draw(st.sampled_from(["qubit", "qudit", "tmsvs"]))
    n = draw(st.integers(1, 40))
    if kind == "tmsvs":
        r = st.one_of(st.floats(1e-161, 1e-159), st.floats(1e-3, 25.0))
        links = [tmsvs_link(draw(r)) for _ in range(n)]
        measure = draw(st.sampled_from([None, "ratio", "alpha_ratio"]))
        alpha = 1.0 if measure == "ratio" else draw(st.sampled_from([1.0, 0.5, 2.5]))
        return links, measure, alpha
    value = st.one_of(st.just(0.0), st.floats(1e-161, 1e-159), st.floats(0.0, 1.0))
    if kind == "qubit":
        links = [qubit_link(concurrence=draw(value)) for _ in range(n)]
        return links, draw(st.sampled_from([None, "concurrence", "scp"])), 1.0
    d = draw(st.integers(2, 5))
    return [qudit_link(d=d, g_concurrence=draw(value)) for _ in range(n)], None, 1.0


@settings(max_examples=200, deadline=None)
@given(case=walk_chains())
def test_prefixes_are_the_composed_prefixes(case):
    # Each row is its prefix's chain_compose bit for bit, and a chain with
    # a refused prefix is refused with the first such prefix's message.
    links, measure, alpha = case
    composed = [outcome(lambda: chain_compose(links[:l], measure, alpha))
                for l in range(1, len(links) + 1)]
    refused = [res for res in composed if isinstance(res, str)]
    if refused:
        with pytest.raises(ValueError) as info:
            chain_prefixes(links, measure, alpha)
        assert str(info.value) == refused[0]
        return

    def fields(res):
        return repr((res.end_to_end, res.characteristic_length, res.composite_r, res.kind,
                     res.measure, res.alpha, res.length))

    rows = chain_prefixes(links, measure, alpha)
    assert [fields(row) for row in rows] == [fields(res) for res in composed]
    assert {row.per_hop for row in rows} == {()}


class TestSqueezingParameter:
    @pytest.mark.parametrize("r", [0.0, -0.5, math.inf, -math.inf, math.nan, "0.5", True])
    def test_one_rule_everywhere(self, r):
        # The link, the Fock cross-check, the spec and the covariance
        # matrix share states.require_squeezing and its message. A string
        # r was read as a float.
        rule = f"finite and > 0, got {r}" if isinstance(r, float) else f"a real number, got {r!r}"
        for build in (tmsvs_link, lambda x: chain_fock_crosscheck(x, 2, 10),
                      TmsvsSpec.from_r, lambda x: TmsvsSpec(r=x, cutoff=5), tmsvs_cm):
            with pytest.raises(ValueError, match=re.escape(f"squeezing parameter r must be {rule}")):
                build(r)


class TestSchmidtChecksRunOnce:
    """A Schmidt vector is checked once, where a caller passes it; a link's
    stored pair and a pure state's own coefficients are not checked again."""

    LAM = [0.9, 0.1]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        check = qchain.swapping._check_distribution

        def counting_check(lam, *args):
            calls.append(tuple(np.asarray(lam, dtype=float)))
            return check(lam, *args)

        monkeypatch.setattr(qchain.swapping, "_check_distribution", counting_check)
        return calls

    @pytest.mark.parametrize("build", [
        lambda lam: qubit_link(lam),
        lambda lam: qudit_link(lam),
        lambda lam: qudit_link(lam, d=2),
    ], ids=["qubit_link", "qudit_link", "qudit_link_with_d"])
    def test_a_callers_vector_is_checked_once(self, calls, build):
        build(self.LAM)
        assert calls == [tuple(self.LAM)]

    @pytest.mark.parametrize("build", [
        lambda: qubit_link(concurrence=0.6),
        lambda: qudit_link(d=3, g_concurrence=0.6),
        lambda: swap(qubit_link(concurrence=0.6), qubit_link(concurrence=0.8)),
        lambda: swap(tmsvs_link(0.5), tmsvs_link(0.7)),
    ], ids=["qubit_target", "qudit_target", "swap", "tmsvs_swap"])
    def test_target_links_are_not_checked(self, calls, build):
        build()
        assert calls == []

    @pytest.mark.parametrize("compose", [chain_compose, chain_prefixes])
    def test_scp_chains_check_no_hop(self, calls, compose):
        links = [qubit_link(self.LAM), qubit_link(concurrence=0.6)] * 50
        calls.clear()
        compose(links, measure="scp")
        assert calls == []

    def test_scp_of_a_pure_state_is_not_checked_again(self, calls):
        psi = random_haar_pure(SubsystemLayout((2, 2), (0,)), 3)
        evaluate_measure(MeasureSpec("scp"), psi)
        assert calls == []


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 1.0), slack=st.floats(-TRACE_TOL, TRACE_TOL))
@example(a=0.5, slack=0.0)
@example(a=1.0, slack=0.0)
@example(a=1e-17, slack=0.0)
def test_scp_hops_keep_the_checked_formula(a, slack):
    # Any pair the unit-weight rule accepts, and the canonical pair of its
    # concurrence: each hop is twice the smaller coefficient, as computed
    # when every hop checked its pair. Longer chains take the same hops.
    lam = np.array([a, 1.0 - a + slack])
    assume(lam[1] >= 0 and abs(float(lam.sum()) - 1.0) <= TRACE_TOL)
    link = qubit_link(lam)
    target = qubit_link(concurrence=link.native_value)
    for lk, pair in ((link, lam), (target, target.schmidt)):
        expected = 2.0 * float(np.min(pair))
        # A subnormal value, alive, is refused by the chain's float64 range rule.
        assume(expected == 0.0 or expected >= sys.float_info.min)
        assert chain_compose([lk], measure="scp").per_hop == (expected,)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_scp_of_haar_qubit_pairs_keeps_the_checked_formula(seed):
    psi = random_haar_pure(SubsystemLayout((2, 2), (0,)), seed)
    lam = psi.schmidt_coefficients
    assert evaluate_measure(MeasureSpec("scp"), psi).value == 2.0 * float(np.min(lam / lam.sum()))


BUILDERS = "qubit_link, qudit_link or tmsvs_link"


def schmidt_vectors(size):
    """Normalized Schmidt vectors of `size` coefficients (an integer strategy)."""
    weights = size.flatmap(lambda n: st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return weights.map(lambda w: [x / math.fsum(w) for x in w])


@st.composite
def built_links(draw):
    """A link from one form of a builder, or the swap of two links of one kind."""
    form = draw(st.sampled_from(["qubit_pair", "qubit_target", "qudit_vector", "qudit_target",
                                 "tmsvs", "swap"]))
    if form == "qubit_pair":
        return qubit_link(draw(schmidt_vectors(st.just(2))))
    if form == "qubit_target":
        return qubit_link(concurrence=draw(st.floats(0.0, 1.0)))
    if form == "qudit_vector":
        return qudit_link(draw(schmidt_vectors(st.integers(2, 6))))
    if form == "qudit_target":
        return qudit_link(d=draw(st.integers(2, 16)), g_concurrence=draw(st.floats(0.0, 1.0)))
    if form == "tmsvs":
        return tmsvs_link(draw(st.floats(1e-6, 19.0)))
    out = outcome(lambda: swap(*draw(link_pairs())))
    assume(not isinstance(out, str))
    return out


@settings(max_examples=200, deadline=None)
@given(link=built_links())
def test_links_are_values(link):
    # A copy is the same link; no route but a builder makes a new one.
    for other in (copy.copy(link), copy.deepcopy(link), pickle.loads(pickle.dumps(link))):
        assert other == link and hash(other) == hash(link) and repr(other) == repr(link)
    with pytest.raises(TypeError, match=BUILDERS):
        dataclasses.replace(link, native_value=0.5)
    with pytest.raises(TypeError, match=BUILDERS):
        LinkResource(**vars(link))


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),
    (("tmsvs", 0.5), {"r": 3.0}),
    (("qubit_pure", 0.6), {"schmidt": (0.5, 0.5)}),
    (("qudit_pure", 0.6), {"d": 3}),
    (("mixed", 0.5), {}),
], ids=["no_arguments", "tmsvs_value_apart_from_r", "qubit_value_apart_from_pair", "qudit_target",
        "unknown_kind"])
def test_links_are_made_only_by_the_builders(args, kwargs):
    # A link built directly kept a value unrelated to its data: tmsvs 0.5
    # at r = 3 composed as 0.5, not tanh 3.
    with pytest.raises(TypeError, match=BUILDERS):
        LinkResource(*args, **kwargs)


def link_fields(link) -> dict:
    """The link's fields with their types, floats as float.hex."""
    def exact(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(map(exact, v))
        return type(v).__name__, v
    return {name: exact(v) for name, v in vars(link).items()}


FILE_NUMBERS = {"unit": st.one_of(st.floats(0.0, 1.0), st.integers(0, 1)),
                "r": st.one_of(st.floats(1e-6, 19.0), st.integers(1, 19))}


@st.composite
def chain_file_entries(draw):
    """A chain kind, link entries valid under its LINK_SCHEMAS entry as a
    file holds them, and each entry's builder call."""
    kind = draw(st.sampled_from(sorted(LINK_SCHEMAS)))
    entries, builds = [], []
    for _ in range(draw(st.integers(1, 4))):
        if kind == "tmsvs":
            entry = {"r": draw(FILE_NUMBERS["r"])}
            build = functools.partial(tmsvs_link, entry["r"])
        elif kind == "qubit" and draw(st.booleans()):
            entry = {"lambda": draw(schmidt_vectors(st.just(2)))}
            build = functools.partial(qubit_link, entry["lambda"])
        elif kind == "qubit":
            entry = {"concurrence": draw(FILE_NUMBERS["unit"])}
            build = functools.partial(qubit_link, concurrence=entry["concurrence"])
        elif draw(st.booleans()):
            lam = draw(schmidt_vectors(st.integers(2, 6)))
            entry = {"lambda": lam, **({"d": len(lam)} if draw(st.booleans()) else {})}
            build = functools.partial(qudit_link, lam, d=entry.get("d"))
        else:
            entry = {"d": draw(st.integers(2, 16)), "g_concurrence": draw(FILE_NUMBERS["unit"])}
            build = functools.partial(qudit_link, d=entry["d"], g_concurrence=entry["g_concurrence"])
        entries.append(json.loads(json.dumps(entry)))
        builds.append(build)
    return kind, entries, builds


@settings(max_examples=200, deadline=None)
@given(case=chain_file_entries(), identical=st.integers(0, 3))
def test_chain_file_links_are_the_builders_links(case, identical):
    # As a list, or the first entry repeated as {identical, count}.
    kind, entries, builds = case
    doc = {"kind": kind, "links": entries}
    if identical:
        doc["links"], builds = {"identical": entries[0], "count": identical}, builds[:1] * identical
    jsonschema.validate(doc, CHAIN_SCHEMA)
    links = chain_from_json(doc)[0]
    assert [link_fields(lk) for lk in links] == [link_fields(build()) for build in builds]
