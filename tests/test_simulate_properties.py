"""Property suite: the chunked kernel counts the reference loop's misses.

Random instances, mechanisms with zero entries, and estimators whose lists
share symbols (always hit), leave symbols out (always miss) and split the
rest (mixed). The pmfs include masses below 2**-8, which put several cuts in
one leading-byte bucket, and dyadic masses, whose cuts land on byte
boundaries.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from listprivacy import Instance, ListEstimator, StochasticMatrix, simulate_game  # noqa: E402
from listprivacy.simulate import _CHUNK  # noqa: E402
from conftest import reference_simulate_game  # noqa: E402


@st.composite
def pmfs(draw, r):
    kind = draw(st.sampled_from(["random", "tiny", "dyadic"]))
    if kind == "dyadic":
        # Split a random mass in halves until there are r of them.
        masses = [F(1)]
        for pick in draw(st.lists(st.integers(0, 1 << 20), min_size=r - 1, max_size=r - 1)):
            half = masses.pop(pick % len(masses)) / 2
            masses += [half, half]
        return tuple(masses)
    choices = st.integers(1, 12) if kind == "random" else st.sampled_from([1, 7, 1000, 10**6])
    weights = draw(st.lists(choices, min_size=r, max_size=r))
    return tuple(F(w, sum(weights)) for w in weights)


@st.composite
def games(draw):
    r = draw(st.integers(2, 40))
    k = draw(st.integers(2, min(r, 4)))
    f = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=r - k, max_size=r - k))
    l = draw(st.integers(1, r - 1))
    inst = Instance(pmf=draw(pmfs(r)), f=tuple(draw(st.permutations(f))), l=l)
    rows = []
    for _ in range(r):
        weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k))
        weights[draw(st.integers(0, k - 1))] += 1
        rows.append(tuple(F(w, sum(weights)) for w in weights))
    # Symbols in every list always hit; the rest fill each list at random.
    shared = draw(st.lists(st.integers(0, r - 1), max_size=l, unique=True))
    rest = [x for x in range(r) if x not in shared]
    lists = tuple(
        tuple(shared) + tuple(draw(st.permutations(rest))[: l - len(shared)]) for _ in range(k)
    )
    return inst, StochasticMatrix(rows=tuple(rows)), ListEstimator(lists=lists)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    game=games(),
    trials=st.sampled_from([_CHUNK + 1, _CHUNK, _CHUNK - 1, 1]),
    seed=st.integers(0, 1 << 32),
)
def test_misses_equal_the_reference_loop(game, trials, seed):
    inst, mech, est = game
    got = simulate_game(inst, mech, est, trials, seed).misses
    assert got == reference_simulate_game(inst, mech, est, trials, seed)
