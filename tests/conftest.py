"""Shared helpers for the test suite.

Randomized tests draw from seeded `random.Random` generators so every run
sees the same cases. Probabilities are built from small random integers and
normalized, which keeps everything an exact Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from listprivacy import Instance, StochasticMatrix, top_elements
from listprivacy.envelope import EnvelopeLine


def random_instance(rng: random.Random, r_max=8, k_max=4, l_max=None) -> Instance:
    """A random valid instance with strictly positive rational pmf."""
    r = rng.randint(2, r_max)
    k = rng.randint(2, min(k_max, r))
    weights = [rng.randint(1, 12) for _ in range(r)]
    total = sum(weights)
    pmf = tuple(Fraction(w, total) for w in weights)
    # Surjective f: first hit every output once, then fill at random.
    f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
    rng.shuffle(f)
    cap = r - 1 if l_max is None else min(l_max, r - 1)
    l = rng.randint(1, cap)
    return Instance(pmf=pmf, f=tuple(f), l=l)


def random_binary_instance(rng: random.Random, r_max=6, l_max=3) -> Instance:
    while True:
        inst = random_instance(rng, r_max=r_max, k_max=2, l_max=l_max)
        if inst.k == 2:
            return inst


def random_mechanism(rng: random.Random, inst: Instance, rho=None) -> StochasticMatrix:
    """A random row-stochastic matrix; rho-recoverable when rho is given."""
    rho = Fraction(0) if rho is None else Fraction(rho)
    rows = []
    for x in range(inst.r):
        weights = [rng.randint(0, 9) for _ in range(inst.k)]
        if sum(weights) == 0:
            weights[rng.randrange(inst.k)] = 1
        total = sum(weights)
        slack = 1 - rho
        row = [rho * (j == inst.f[x]) + slack * Fraction(w, total) for j, w in enumerate(weights)]
        rows.append(tuple(row))
    return StochasticMatrix(rows=tuple(rows))


def random_rho(rng: random.Random) -> Fraction:
    den = rng.randint(1, 24)
    return Fraction(rng.randint(0, den), den)


def grid(n: int) -> list[Fraction]:
    """n+1 equispaced rationals covering [0,1]."""
    return [Fraction(j, n) for j in range(n + 1)]


def reference_lines(inst: Instance) -> list[EnvelopeLine]:
    """Exhaustive reference: one line per subset of at most l symbols.

    The slope of a subset is the mass of the l - |subset| heaviest symbols
    left in each preimage.
    """
    lines = []
    for t in range(inst.l + 1):
        for members in combinations(range(inst.r), t):
            chosen = set(members)
            slope = Fraction(0)
            for block in inst.preimages:
                rest = [x for x in block if x not in chosen]
                slope += inst.mass(top_elements(rest, min(inst.l - t, len(rest)), inst.pmf))
            lines.append(EnvelopeLine(anchor=members, intercept=inst.mass(members), slope=slope))
    return lines


def reference_anchor(inst: Instance, rho: Fraction, lines=None) -> tuple[tuple[int, ...], Fraction]:
    """Exhaustive reference anchor and its objective at rho.

    Scans every subset: among the best ones of the largest cardinality, each
    is replaced by the per-preimage top picks of the same counts, and the
    lexicographically smallest result wins.
    """
    lines = reference_lines(inst) if lines is None else lines
    best = max(line.value_at(rho) for line in lines)
    top_card = max(line.cardinality for line in lines if line.value_at(rho) == best)
    canonical = set()
    for line in lines:
        if line.value_at(rho) == best and line.cardinality == top_card:
            picks = []
            for block in inst.preimages:
                inside = sum(1 for x in line.anchor if x in block)
                picks.extend(top_elements(block, inside, inst.pmf))
            canonical.add(tuple(sorted(picks)))
    return min(canonical), best
