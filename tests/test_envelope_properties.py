"""Property suite: `privacy_curve`'s tangent sweep builds the hull of every
count-vector line, `first_breakpoint`'s first sweep step finds its first kink,
`privacy_bound`'s greedy finds the best line's value, and the instance
profile they read matches its Fraction references.

Random instances with k 2-5 and r <= 10. Every other pmf is uniform or
tie-heavy (weights 1 and 2), so many lines tie, several anchor sizes reach
the envelope at the same level and several lines meet at one kink. Both
routes must agree exactly: the sweep and the Fraction hull over
`enumerate_lines` (`reference_privacy_curve`) in every segment, breakpoint
and anchor size, the first sweep step and that hull's first breakpoint, and the
greedy's bound and the best enumerated line at each level. Ties also make
the profile's index tie-break decide its orders and its top-l list.

On r <= 6 the bound is also checked against the polytope P of the oracle's
program (`test_oracle_properties`): it is 1 minus the best 0/1 point of P,
found by trying every labeling of the symbols.
"""

from fractions import Fraction as F
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from listprivacy import (  # noqa: E402
    Instance,
    anchor_set,
    first_breakpoint,
    privacy_at_one,
    privacy_at_zero,
    privacy_bound,
    privacy_curve,
    top_elements,
)
from listprivacy.core import ranked  # noqa: E402
from conftest import reference_privacy_curve  # noqa: E402


@st.composite
def instances(draw, r_max=10):
    r = draw(st.integers(2, r_max))
    k = draw(st.integers(2, min(r, 5)))
    f = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=r - k, max_size=r - k))
    kind = draw(st.sampled_from(["random", "uniform", "random", "ties"]))
    if kind == "uniform":
        weights = [1] * r
    else:
        choices = st.integers(1, 12) if kind == "random" else st.sampled_from([1, 2])
        weights = draw(st.lists(choices, min_size=r, max_size=r))
    pmf = tuple(F(w, sum(weights)) for w in weights)
    return Instance(pmf=pmf, f=tuple(draw(st.permutations(f))), l=draw(st.integers(1, r - 1)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inst=instances())
# Three lines meet at the kink 1/2, and the sweep evaluates there first and
# gets the middle one, which leads on no interval: a zero-width piece inside
# the curve, which about one tie-heavy instance in a thousand has.
@example(inst=Instance(pmf=(F(1, 9),) * 5 + (F(2, 9),) * 2, f=(2, 3, 1, 3, 1, 2, 0), l=3))
def test_curve_is_the_reference_hull(inst):
    assert privacy_curve(inst) == reference_privacy_curve(inst)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inst=instances())
def test_first_breakpoint_is_the_curves_first_kink(inst):
    rho1 = first_breakpoint(inst)
    assert rho1 == reference_privacy_curve(inst).breakpoints[0]
    assert privacy_bound(inst, rho1) == privacy_at_zero(inst)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inst=instances(), drawn=st.fractions(0, 1, max_denominator=60))
def test_bound_is_the_best_line(inst, drawn):
    curve = privacy_curve(inst)
    for rho in (F(0), F(1, inst.k), first_breakpoint(inst), F(1), drawn):
        assert privacy_bound(inst, rho) == 1 - anchor_set(inst, rho).objective == curve.value_at(rho)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inst=instances())
def test_profile_matches_its_fraction_references(inst):
    pw, den, orders, prefix, top = inst._profile
    assert [F(p, den) for p in pw] == list(inst.pmf)
    for i, block in enumerate(inst.preimages):
        assert list(orders[i]) == ranked(inst.pmf, block)
        assert len(prefix[i]) == len(block) + 1
        for c, v in enumerate(prefix[i]):
            assert F(v, den) == inst.mass(top_elements(block, c, inst.pmf))
    assert top == top_elements(range(inst.r), inst.l, inst.pmf)
    curve = reference_privacy_curve(inst)
    assert privacy_at_zero(inst) == curve.value_at(0)
    assert privacy_at_one(inst) == curve.value_at(1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(inst=instances(r_max=6), drawn=st.fractions(0, 1, max_denominator=60))
def test_bound_is_the_best_zero_one_point(inst, drawn):
    # Each symbol is left out, an anchor (beta = 1) or a pick (alpha = 1);
    # a labeling is a point of P when every output i has at most l anchors
    # and picks of f^-1(i) together, and it scores its anchors' mass plus
    # rho times its picks'.
    points = []
    for labels in product((0, 1, 2), repeat=inst.r):
        anchors = labels.count(1)
        picks = [0] * inst.k
        for x, label in enumerate(labels):
            picks[inst.f[x]] += label == 2
        if anchors + max(picks) <= inst.l:
            anchor = sum((p for p, label in zip(inst.pmf, labels) if label == 1), F(0))
            pick = sum((p for p, label in zip(inst.pmf, labels) if label == 2), F(0))
            points.append((anchor, pick))
    for rho in (F(0), F(1, inst.k), first_breakpoint(inst), F(1), drawn):
        best = max(anchor + rho * pick for anchor, pick in points)
        assert privacy_bound(inst, rho) == 1 - best
