"""Property suite: the oracle's separation is `best_list` on integer scores,
and its two programs agree.

Random instances, uniform pmfs among them, and random vertices whose entries
repeat and include zeros, so many scores tie and the index tie-break decides
the lists. The vertex is written as ints over a common scale, the lcm of its
denominators times a random factor, as the oracle reads each round's vertex;
with the pmf over its common denominator, the integer scores are the Fraction
scores times one positive scale. On smaller instances, the compact program's
optimum must equal the cutting-plane loop's, which a witness read checks, and
the program over symbols with its stochastic rows kept, and stay within the
envelope's bound.

Tie-heavy instances, whose masses are 1 or 2 over their sum or all equal,
split into few symbol classes: there too the class program's optimum must
equal the program over symbols and the loop's, and relabeling the symbols
must leave it unchanged.

The oracle is an LP over the polytope P of the pairs (alpha, beta) with
alpha, beta >= 0, alpha_x + beta_x <= 1, and, for each output i, the sum of
beta plus the sum of alpha over f^-1(i) at most l: its optimum is 1 minus
the largest sum of p_x (beta_x + rho alpha_x) over P. With the anchor mass
sum(beta) fixed at an integer b, that largest sum is attained at a 0/1
point with b anchors, and on binary instances some integer b attains the
oracle's optimum.

The rule that settles classes is checked with no LP: on both kinds of
instance, giving each settled class its settled row, rho at its output and
1 - rho at its noise output, never lowers a random rho-recoverable
mechanism's privacy, and each noise output has the l heavy symbols the rule
asks for.

Metamorphic relations hold with no reference to compare with: relabeling
the symbols or the outputs leaves the optimum, the envelope's bound and, on
binary instances, the optimal add-noise mechanism's privacy unchanged; a
longer list never raises any of them; garbling a random mechanism's
response through a random k x k channel never lowers its privacy; and
splitting one output's preimage into two outputs never raises the optimum.
"""

import math
import random
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from listprivacy import (  # noqa: E402
    Instance,
    StochasticMatrix,
    exact_privacy,
    is_recoverable,
    list_privacy,
    optimal_binary_qr,
    privacy_bound,
)
from listprivacy.adversary import best_list  # noqa: E402
from listprivacy.core import over_common_denominator  # noqa: E402
from listprivacy.oracle import _settled  # noqa: E402
from listprivacy.simplex import EQUAL, GREATER  # noqa: E402
from conftest import (  # noqa: E402
    polytope,
    random_mechanism,
    solve_rational,
    symbol_program,
    zero_one_points,
)

LEVELS = st.sampled_from([F(0), F(1, 5), F(1, 3), F(1, 2), F(3, 4), F(1)])


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


@st.composite
def tie_heavy_instances(draw):
    """Up to 8 symbols of mass 1 or 2 over their sum, or all equal, and 2 to
    4 outputs."""
    r = draw(st.integers(2, 8))
    k = draw(st.integers(2, min(r, 4)))
    f = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=r - k, max_size=r - k))
    if draw(st.booleans()):
        weights = [1] * r
    else:
        weights = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    pmf = tuple(F(w, sum(weights)) for w in weights)
    return Instance(pmf=pmf, f=tuple(draw(st.permutations(f))), l=draw(st.integers(1, r - 1)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=instances(r_max=7), rho=LEVELS)
def test_compact_optimum_is_the_loops_within_the_bound(inst, rho):
    result = exact_privacy(inst, rho)
    symbols = solve_rational(*symbol_program(inst, rho, GREATER))
    assert result.optimum == 1 - symbols.objective
    result.witness  # raises unless the loop reaches the same optimum
    assert result.optimum <= privacy_bound(inst, rho)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=tie_heavy_instances(), rho=LEVELS)
def test_class_optimum_is_the_symbol_programs_and_the_loops(inst, rho):
    result = exact_privacy(inst, rho)
    symbols = solve_rational(*symbol_program(inst, rho, GREATER))
    assert result.optimum == 1 - symbols.objective
    result.witness  # raises unless the loop reaches the same optimum


@settings(derandomize=True, deadline=None, max_examples=300)
@given(inst=st.one_of(instances(r_max=10), tie_heavy_instances()), rho=LEVELS)
def test_optimum_is_the_best_point_of_the_polytope(inst, rho):
    best = solve_rational(*polytope(inst, rho), maximize=True)
    assert exact_privacy(inst, rho).optimum == 1 - best.objective


def anchor_mass_values(inst, rho):
    """psi(b) for b = 0..l: the best value over P with the anchor mass
    sum(beta) fixed at b, each from the LP over P with that row added."""
    costs, rows, senses, rhs = polytope(inst, rho)
    anchors = [0] * inst.r + [1] * inst.r
    values = []
    for b in range(inst.l + 1):
        fixed = solve_rational(costs, [*rows, anchors], [*senses, EQUAL], [*rhs, b], maximize=True)
        values.append(fixed.objective)
    return values


@settings(derandomize=True, deadline=None, max_examples=200)
@given(inst=st.one_of(instances(r_max=6), tie_heavy_instances()), rho=LEVELS)
def test_fixed_integer_anchor_mass_has_a_zero_one_optimum(inst, rho):
    # With sum(beta) = b the rest of P is a transportation problem, so its
    # optimum is a 0/1 point: the best labeling with b anchors.
    points = zero_one_points(inst)
    for b, psi in enumerate(anchor_mass_values(inst, rho)):
        assert psi == max(anchor + rho * pick for n, anchor, pick in points if n == b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(inst=st.one_of(instances(r_max=6), tie_heavy_instances()), rho=LEVELS)
def test_binary_optimum_is_attained_at_an_integer_anchor_mass(inst, rho):
    # Outputs 1..k-1 merged into one give a binary instance; there the
    # oracle gains nothing from a fractional anchor mass.
    binary = Instance(pmf=inst.pmf, f=tuple(min(v, 1) for v in inst.f), l=inst.l)
    assert exact_privacy(binary, rho).optimum == 1 - max(anchor_mass_values(binary, rho))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=tie_heavy_instances(), rho=LEVELS, data=st.data())
def test_relabeled_symbols_keep_the_optimum(inst, rho, data):
    # Symbol x becomes symbol perm[x]: a permutation moves symbols within
    # their classes and across them, and the classes move with it.
    perm = data.draw(st.permutations(range(inst.r)))
    pmf, f = [None] * inst.r, [None] * inst.r
    for x, y in enumerate(perm):
        pmf[y], f[y] = inst.pmf[x], inst.f[x]
    relabeled = Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)
    moved = {(w, i, frozenset(perm[x] for x in members)) for w, i, members in inst._classes}
    assert moved == {(w, i, frozenset(members)) for w, i, members in relabeled._classes}
    assert exact_privacy(relabeled, rho).optimum == exact_privacy(inst, rho).optimum


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    inst=st.one_of(instances(r_max=10), tie_heavy_instances()),
    rho=st.fractions(0, 1, max_denominator=12),
    seed=st.integers(0, 2**16),
)
def test_settled_rows_never_lower_privacy(inst, rho, seed):
    mech = random_mechanism(random.Random(seed), inst, rho)
    rows = list(mech.rows)
    for (_, f, members), i0 in zip(inst._classes, _settled(inst, rho)):
        if i0 is None:
            continue
        p = inst.pmf[members[0]]
        heavy = [x for x in inst.preimages[i0] if inst.pmf[x] * rho >= p * (1 - rho)]
        assert i0 != f and len(heavy) >= inst.l
        row = [F(0)] * inst.k
        row[f], row[i0] = rho, 1 - rho
        for x in members:
            rows[x] = tuple(row)
    settled = StochasticMatrix(rows=tuple(rows))
    assert is_recoverable(settled, inst, rho)
    assert list_privacy(inst, settled).privacy >= list_privacy(inst, mech).privacy


def _binary_privacy(inst, rho):
    """The privacy of the optimal add-noise mechanism, on binary instances only."""
    return list_privacy(inst, optimal_binary_qr(inst, rho)).privacy if inst.k == 2 else None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=st.one_of(instances(r_max=8), tie_heavy_instances()), rho=LEVELS, data=st.data())
def test_relabeling_keeps_the_optimum_and_the_bound(inst, rho, data):
    # Symbol x becomes perm[x]; output i becomes outs[i].
    perm = data.draw(st.permutations(range(inst.r)))
    outs = data.draw(st.permutations(range(inst.k)))
    pmf, f = [None] * inst.r, [None] * inst.r
    for x, y in enumerate(perm):
        pmf[y], f[y] = inst.pmf[x], inst.f[x]
    symbols = Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)
    outputs = Instance(pmf=inst.pmf, f=tuple(outs[v] for v in inst.f), l=inst.l)
    want = (exact_privacy(inst, rho).optimum, privacy_bound(inst, rho), _binary_privacy(inst, rho))
    for relabeled in (symbols, outputs):
        got = exact_privacy(relabeled, rho).optimum, privacy_bound(relabeled, rho)
        assert (*got, _binary_privacy(relabeled, rho)) == want


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=st.one_of(instances(r_max=8), tie_heavy_instances()), rho=LEVELS)
def test_longer_lists_never_raise_privacy(inst, rho):
    assume(inst.l + 1 < inst.r)
    longer = inst.with_list_size(inst.l + 1)
    assert exact_privacy(longer, rho).optimum <= exact_privacy(inst, rho).optimum
    assert privacy_bound(longer, rho) <= privacy_bound(inst, rho)
    if inst.k == 2:
        assert _binary_privacy(longer, rho) <= _binary_privacy(inst, rho)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    inst=st.one_of(instances(r_max=10), tie_heavy_instances()),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_garbling_never_lowers_privacy(inst, seed, data):
    # The response i is replaced by j with chance channel[i][j]: the
    # adversary could garble it itself, so it learns no more.
    mech = random_mechanism(random.Random(seed), inst)
    k = inst.k
    channel = []
    for _ in range(k):
        weights = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        weights[data.draw(st.integers(0, k - 1))] += 1
        channel.append([F(w, sum(weights)) for w in weights])
    garbled = StochasticMatrix(
        rows=tuple(
            tuple(sum(row[i] * channel[i][j] for i in range(k)) for j in range(k))
            for row in mech.rows
        )
    )
    assert list_privacy(inst, garbled).privacy >= list_privacy(inst, mech).privacy


@settings(derandomize=True, deadline=None, max_examples=150)
@given(inst=st.one_of(instances(r_max=8), tie_heavy_instances()), rho=LEVELS, data=st.data())
def test_refining_f_never_raises_the_optimum(inst, rho, data):
    # Output i's preimage splits into two nonempty outputs, i and a new k.
    # Merging them again is post-processing, which never lowers privacy,
    # and keeps every rho-recoverable mechanism of the refinement
    # rho-recoverable for f, so the refinement's optimum is at most f's.
    # The envelope's refinement is unproven, so the bound is not compared.
    split = [i for i, block in enumerate(inst.preimages) if len(block) > 1]
    assume(split)
    block = inst.preimages[data.draw(st.sampled_from(split))]
    moved = data.draw(st.sets(st.sampled_from(block), min_size=1, max_size=len(block) - 1))
    f = tuple(inst.k if x in moved else v for x, v in enumerate(inst.f))
    refined = Instance(pmf=inst.pmf, f=f, l=inst.l)
    assert refined.k == inst.k + 1 <= refined.r
    assert exact_privacy(refined, rho).optimum <= exact_privacy(inst, rho).optimum
