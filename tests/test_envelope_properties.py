"""Property suite: `first_breakpoint`'s tangent steps find the curve's first
kink, and the instance profile they read matches its Fraction references.

Random instances with k 2-5 and r <= 10. Every other pmf is uniform or
tie-heavy (weights 1 and 2), so many lines tie and several anchor sizes
reach the top-l mass at the same level. Both routes must agree exactly:
the steps on the greedy evaluator and the first breakpoint of the hull of
every count-vector line. Ties also make the profile's index tie-break
decide its orders and its top-l list.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from listprivacy import (  # noqa: E402
    Instance,
    first_breakpoint,
    privacy_at_one,
    privacy_at_zero,
    privacy_bound,
    privacy_curve,
    top_elements,
)
from listprivacy.core import ranked  # noqa: E402


@st.composite
def instances(draw):
    r = draw(st.integers(2, 10))
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
def test_first_breakpoint_is_the_curves_first_kink(inst):
    rho1 = first_breakpoint(inst)
    assert rho1 == privacy_curve(inst).breakpoints[0]
    assert privacy_bound(inst, rho1) == privacy_at_zero(inst)


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
    curve = privacy_curve(inst)
    assert privacy_at_zero(inst) == curve.value_at(0)
    assert privacy_at_one(inst) == curve.value_at(1)
