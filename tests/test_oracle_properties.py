"""Property suite: the oracle's separation is `best_list` on integer scores,
and its two programs agree.

Random instances, uniform pmfs among them, and random vertices whose entries
repeat and include zeros, so many scores tie and the index tie-break decides
the lists. The vertex is written as ints over a common scale, the lcm of its
denominators times a random factor, as the oracle reads each round's vertex;
with the pmf over its common denominator, the integer scores are the Fraction
scores times one positive scale. On smaller instances, the compact program's
optimum must equal the cutting-plane loop's, which a witness read checks, and
stay within the envelope's bound.
"""

import math
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from listprivacy import Instance, exact_privacy, privacy_bound  # noqa: E402
from listprivacy.adversary import best_list  # noqa: E402
from listprivacy.core import over_common_denominator  # noqa: E402


@st.composite
def instances(draw, r_max=12):
    r = draw(st.integers(2, r_max))
    k = draw(st.integers(2, min(r, 4)))
    f = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=r - k, max_size=r - k))
    if draw(st.booleans()):
        weights = [1] * r
    else:
        weights = draw(st.lists(st.integers(1, 12), min_size=r, max_size=r))
    pmf = tuple(F(w, sum(weights)) for w in weights)
    return Instance(pmf=pmf, f=tuple(draw(st.permutations(f))), l=draw(st.integers(1, r - 1)))


@st.composite
def vertices(draw, inst):
    """r * k entries, then k epigraph values, drawn from a few small values."""
    values = st.sampled_from([F(0), F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 7)])
    n = inst.r * inst.k + inst.k
    return draw(st.lists(values, min_size=n, max_size=n))


@st.composite
def cases(draw):
    inst = draw(instances())
    return inst, draw(vertices(inst)), draw(st.integers(1, 6))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=cases())
def test_integer_lists_match_best_list(case):
    inst, w, factor = case
    pw, den = over_common_denominator(inst.pmf)
    assert [F(p, den) for p in pw] == list(inst.pmf)
    scale = math.lcm(*(v.denominator for v in w)) * factor
    ints = [v.numerator * (scale // v.denominator) for v in w]
    k = inst.k
    for i in range(k):
        mass, lst = best_list([p * ints[x * k + i] for x, p in enumerate(pw)], inst.l)
        want_mass, want_lst = best_list([inst.pmf[x] * w[x * k + i] for x in range(inst.r)], inst.l)
        assert lst == want_lst
        assert type(mass) is int
        assert F(mass, den * scale) == want_mass


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    inst=instances(r_max=7),
    rho=st.sampled_from([F(0), F(1, 5), F(1, 3), F(1, 2), F(3, 4), F(1)]),
)
def test_compact_optimum_is_the_loops_within_the_bound(inst, rho):
    result = exact_privacy(inst, rho)
    result.witness  # raises unless the loop reaches the same optimum
    assert result.optimum <= privacy_bound(inst, rho)
