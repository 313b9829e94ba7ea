"""Shared helpers for the test suite.

Randomized tests draw from seeded `random.Random` generators so every run
sees the same cases. Probabilities are built from small random integers and
normalized, which keeps everything an exact Fraction.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple, Sequence

import pytest

import listprivacy.envelope as envelope
import listprivacy.oracle as oracle
import listprivacy.simplex as simplex
from listprivacy import Instance, ListEstimator, StochasticMatrix, top_elements
from listprivacy.adversary import PrivacyReport
from listprivacy.core import check_dims, ensure_rho, over_common_denominator
from listprivacy.envelope import CurveSegment, EnvelopeLine, PrivacyCurve
from listprivacy.simplex import EQUAL, GREATER, LESS, LpStatus

try:
    from hypothesis import Phase, settings
except ImportError:  # the property suites skip themselves
    pass
else:
    # Hypothesis's explain phase replays a failing example's shrinks under a
    # line tracer; on a solver fault that replay ran for minutes. It only
    # annotates the report of a test that already failed.
    settings.register_profile("listprivacy", phases=[p for p in Phase if p is not Phase.explain])
    settings.load_profile("listprivacy")


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


def seeded_instance(r, k, l, seed, max_weight=12) -> Instance:
    """A random instance of exactly r symbols, k outputs and list size l, its
    weights drawn from 1 to max_weight: with 2, many symbols tie."""
    rng = random.Random(seed)
    weights = [rng.randint(1, max_weight) for _ in range(r)]
    f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
    rng.shuffle(f)
    return Instance(pmf=tuple(Fraction(w, sum(weights)) for w in weights), f=tuple(f), l=l)


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


def reference_privacy_curve(inst: Instance) -> PrivacyCurve:
    """Fraction hull reference for `privacy_curve`: the upper envelope of every
    `enumerate_lines` line by slope order with exact intersection
    arithmetic, with kinks and anchor sizes read off the surviving pieces.
    """
    # For equal slopes only the highest intercept can ever lead, so each
    # slope keeps its first line in preference order at rho = 0.
    lines = sorted(
        envelope.enumerate_lines(inst), key=lambda ln: (ln.slope, envelope._preference(ln, 0))
    )
    # Left-to-right sweep: keep (line, start) pairs where each line begins to
    # lead. A newcomer with a steeper slope evicts every line it overtakes at
    # or before that line's own start.
    hull: list[tuple[EnvelopeLine, Fraction]] = []
    for idx, line in enumerate(lines):
        if idx and line.slope == lines[idx - 1].slope:
            continue
        start = Fraction(0)
        while hull:
            leader, led_from = hull[-1]
            cross = (leader.intercept - line.intercept) / (line.slope - leader.slope)
            if cross <= led_from:
                hull.pop()
                continue
            start = cross
            break
        if start < 1:
            hull.append((line, start))
    segments = []
    sizes = []
    for idx, (line, start) in enumerate(hull):
        end = hull[idx + 1][1] if idx + 1 < len(hull) else Fraction(1)
        segments.append(
            CurveSegment(
                rho_lo=start,
                rho_hi=end,
                slope=-line.slope,
                intercept=1 - line.intercept,
            )
        )
        sizes.append(line.cardinality)
    if sizes[0] != inst.l:
        raise AssertionError("curve does not start at full anchor cardinality")
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError("anchor cardinality increased along the curve")
    # Kinks where the anchor cardinality drops give the breakpoints; a drop by
    # d emits the same abscissa d times, and drops that never happen before
    # rho = 1 are recorded at 1.
    breakpoints: list[Fraction] = []
    for idx in range(1, len(hull)):
        drop = sizes[idx - 1] - sizes[idx]
        breakpoints.extend([hull[idx][1]] * drop)
    breakpoints.extend([Fraction(1)] * sizes[-1])
    if len(breakpoints) != inst.l:
        raise AssertionError("breakpoint count does not match the list size")
    return PrivacyCurve(
        segments=tuple(segments),
        breakpoints=tuple(breakpoints),
        lambda_sizes=tuple(sizes),
    )


def _reference_pivot(T: list, basis: list, red: list, row: int, col: int):
    prow = T[row]
    piv = prow[col]
    if piv != 1:
        prow = [v / piv for v in prow]
        T[row] = prow
    for i in range(len(T)):
        if i == row:
            continue
        f = T[i][col]
        if f != 0:
            T[i] = [a - f * p for a, p in zip(T[i], prow)]
    f = red[col]
    if f != 0:
        red[:] = [a - f * p for a, p in zip(red, prow)]
    basis[row] = col


def _reference_reduced_costs(T: list, basis: list, cost: list) -> list:
    red = list(cost) + [cost[0] * 0]
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb != 0:
            Ti = T[i]
            red = [a - cb * t for a, t in zip(red, Ti)]
    return red


def _reference_run(T: list, basis: list, cost: list) -> tuple[str, list]:
    """Minimize cost over the current basic feasible solution, in place."""
    rhs = len(cost)
    red = _reference_reduced_costs(T, basis, cost)
    stall = 0
    bland = False
    while True:
        enter = -1
        if bland:
            for j in range(rhs):
                if red[j] < 0:
                    enter = j
                    break
        else:
            best = red[rhs] * 0
            for j in range(rhs):
                if red[j] < best:
                    best = red[j]
                    enter = j
        if enter < 0:
            return "optimal", red
        leave = -1
        best_ratio = None
        for i in range(len(T)):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][rhs] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", red
        if best_ratio == 0:
            stall += 1
            # The solver's stall limit, as a literal: a changed limit must not move this too.
            if stall >= 12:
                bland = True
        else:
            stall = 0
            bland = False
        _reference_pivot(T, basis, red, leave, enter)


@dataclass(frozen=True)
class LpSolution:
    """A `solve_rational` answer; objective and x are None unless optimal."""

    status: LpStatus
    objective: Fraction | None
    x: tuple[Fraction, ...] | None


def _integers(values: Sequence) -> tuple[dict[int, int], int]:
    """The nonzero values by index, as ints over the lcm of their denominators,
    and that lcm; a value other than an int or a Fraction is read by `Fraction()`."""
    nonzero = {}
    for j, v in enumerate(values):
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        if v:
            nonzero[j] = v
    ints, den = over_common_denominator(list(nonzero.values()))
    return dict(zip(nonzero, ints)), den


def solve_rational(
    costs: Sequence,
    rows: Sequence[Sequence],
    senses: Sequence[str],
    rhs: Sequence,
    maximize: bool = False,
) -> LpSolution:
    """Solve min (or max) costs.x subject to rows op rhs and x >= 0, exactly,
    with `simplex.solve_lp`.

    `senses[i]` is one of "<=", "=", ">="; coefficients are ints, Fractions or
    anything `Fraction()` accepts. Each row is written as ints over the lcm of
    its denominators, which is its scale, and a row with a negative rhs is
    negated and its sense flipped. The costs are written as ints over the lcm
    of theirs, and the objective is divided back by it. The core is looked up
    at each call, so a test that patches `simplex.solve_lp` sees these solves
    too. Returns exact Fractions for the objective and the structural
    variables.
    """
    m, n = len(rows), len(costs)
    if len(senses) != m or len(rhs) != m:
        raise ValueError("rows, senses, rhs must have equal length")
    for s in senses:
        if s not in (LESS, EQUAL, GREATER):
            raise ValueError(f"unknown sense {s!r}")
    sign = -1 if maximize else 1
    nonzero, c_den = _integers(costs)
    cost = {j: v * sign for j, v in nonzero.items()}
    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    int_rows = []
    for row, s, bv in zip(rows, senses, rhs):
        if len(row) != n:
            raise ValueError("row width does not match the cost vector")
        ints, den = _integers([*row, bv])
        b = ints.pop(n, 0)
        if b < 0:
            ints = {j: -v for j, v in ints.items()}
            b = -b
            s = flip[s]
        int_rows.append((ints, s, b, den))

    status, basic, objective = simplex.solve_lp(n, int_rows, cost)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, objective=None, x=None)
    x = [Fraction(0)] * n
    for j, (num, scale) in basic.items():
        x[j] = Fraction(num, scale)
    return LpSolution(status=status, objective=Fraction(*objective) / c_den * sign, x=tuple(x))


def reference_solve_rational(
    costs: Sequence,
    rows: Sequence[Sequence],
    senses: Sequence[str],
    rhs: Sequence,
    maximize: bool = False,
) -> LpSolution:
    """Dense-`Fraction` reference for `solve_rational`: same rules, same answers.

    Every tableau entry is a Fraction and every pivot updates every entry of
    every row it touches. The integer solver must return the same status,
    objective and vertex on every program.
    """
    m, n = len(rows), len(costs)
    if len(senses) != m or len(rhs) != m:
        raise ValueError("rows, senses, rhs must have equal length")
    for s in senses:
        if s not in (LESS, EQUAL, GREATER):
            raise ValueError(f"unknown sense {s!r}")
    sign = -1 if maximize else 1
    c_struct = [Fraction(v) * sign for v in costs]

    A: list[list] = []
    b: list = []
    sense: list[str] = []
    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    for row, s, bv in zip(rows, senses, rhs):
        if len(row) != n:
            raise ValueError("row width does not match the cost vector")
        rq = [Fraction(v) for v in row]
        bq = Fraction(bv)
        if bq < 0:
            rq = [-v for v in rq]
            bq = -bq
            s = flip[s]
        A.append(rq)
        b.append(bq)
        sense.append(s)

    zero = Fraction(0)
    one = Fraction(1)
    slack_col: dict[int, int] = {}
    ncol = n
    for i, s in enumerate(sense):
        if s != EQUAL:
            slack_col[i] = ncol
            ncol += 1
    art_start = ncol
    art_col: dict[int, int] = {}
    for i, s in enumerate(sense):
        if s != LESS:
            art_col[i] = ncol
            ncol += 1

    T: list[list] = []
    basis: list[int] = []
    for i in range(m):
        row = A[i] + [zero] * (ncol - n) + [b[i]]
        if i in slack_col:
            row[slack_col[i]] = one if sense[i] == LESS else -one
        if i in art_col:
            row[art_col[i]] = one
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        T.append(row)

    if art_col:
        pcost = [zero] * ncol
        for col in art_col.values():
            pcost[col] = one
        status, red = _reference_run(T, basis, pcost)
        if status != "optimal":
            raise AssertionError("phase one is bounded below by zero")
        if -red[ncol] != 0:
            return LpSolution(status=LpStatus.INFEASIBLE, objective=None, x=None)
        # Clear leftover degenerate artificials from the basis, dropping rows
        # that turn out redundant, then discard the artificial columns.
        arts = set(art_col.values())
        for i in range(len(T) - 1, -1, -1):
            if basis[i] not in arts:
                continue
            pivot_col = next(
                (j for j in range(art_start) if T[i][j] != 0),
                None,
            )
            if pivot_col is None:
                del T[i]
                del basis[i]
            else:
                _reference_pivot(T, basis, red, i, pivot_col)
        T = [row[:art_start] + [row[ncol]] for row in T]
        ncol = art_start

    cost = c_struct + [zero] * (ncol - n)
    status, red = _reference_run(T, basis, cost)
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, objective=None, x=None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][ncol]
    objective = -red[ncol] * sign
    return LpSolution(status=LpStatus.OPTIMAL, objective=objective, x=tuple(x))


def dense_program(n: int, rows: Sequence, cost: dict) -> tuple[list, list, list, list]:
    """A `simplex.solve_lp` program as `solve_rational` takes it: costs, rows,
    senses and rhs, each row's entries and rhs divided by its scale as Fractions."""
    costs = [cost.get(j, 0) for j in range(n)]
    dense = [[Fraction(coeffs.get(j, 0), scale) for j in range(n)] for coeffs, _, _, scale in rows]
    senses = [s for _, s, _, _ in rows]
    rhs = [Fraction(b, scale) for _, _, b, scale in rows]
    return costs, dense, senses, rhs


def reference_solve_lp(n: int, rows: Sequence, cost: dict):
    """Dense-`Fraction` reference for `simplex.solve_lp`: `reference_solve_rational`
    on the `dense_program`, its answer in `solve_lp`'s shape, every nonzero
    structural variable as its (numerator, denominator)."""
    sol = reference_solve_rational(*dense_program(n, rows, cost))
    if sol.status is not LpStatus.OPTIMAL:
        return sol.status, None, None
    x = {j: (v.numerator, v.denominator) for j, v in enumerate(sol.x) if v}
    return sol.status, x, (sol.objective.numerator, sol.objective.denominator)


def reference_thresholds(probs: Sequence[Fraction]) -> list[int]:
    """Reference for simulate._thresholds: a Fraction running sum of the
    masses, times 2**64, rounded up after each one."""
    out = []
    acc = Fraction(0)
    for p in probs:
        acc += p
        out.append(math.ceil(acc * (1 << 64)))
    return out


def reference_simulate_game(
    inst: Instance,
    mech: StochasticMatrix,
    estimator: ListEstimator,
    trials: int,
    seed: int,
) -> int:
    """Trial-at-a-time reference for simulate_game: the number of misses.

    Each trial draws x, then z, as one getrandbits(64) call each, and picks
    the bin by bisecting the exact thresholds.
    """
    rng = random.Random(seed)
    draw = rng.getrandbits
    x_cuts = reference_thresholds(inst.pmf)
    z_cuts = [reference_thresholds(row) for row in mech.rows]
    members = [frozenset(lst) for lst in estimator.lists]
    misses = 0
    for _ in range(trials):
        x = bisect_right(x_cuts, draw(64))
        z = bisect_right(z_cuts[x], draw(64))
        if x not in members[z]:
            misses += 1
    return misses


def reference_list_privacy(inst: Instance, mech: StochasticMatrix) -> PrivacyReport:
    """Reference for list_privacy: per output, sort (score, index) pairs by
    the key (-score, index), so ties go to the smaller index."""
    check_dims(inst, mech)
    lists = []
    masses = []
    for i in range(inst.k):
        scores = [(inst.pmf[x] * mech.rows[x][i], x) for x in range(inst.r)]
        scores.sort(key=lambda sv: (-sv[0], sv[1]))
        picked = scores[: inst.l]
        masses.append(sum((s for s, _ in picked), Fraction(0)))
        lists.append(tuple(sorted(x for _, x in picked)))
    privacy = 1 - sum(masses)
    if not 0 <= privacy <= 1:
        raise AssertionError(f"privacy {privacy} escaped [0, 1]")
    return PrivacyReport(
        privacy=privacy,
        estimator=ListEstimator(lists=tuple(lists)),
        per_output_mass=tuple(masses),
    )


def _list_row(inst: Instance, i: int, lst: tuple[int, ...]) -> list:
    """The dense row `mass of lst under output i - t(i) <= 0`: pmf entries, else int."""
    k = inst.k
    row = [0] * (inst.r * k + k)
    for x in lst:
        row[x * k + i] = inst.pmf[x]
    row[inst.r * k + i] = -1
    return row


def _fixed_rows(inst: Instance, rho: Fraction):
    """Dense rows, senses and rhs of the stochastic rows, then the recover rows,
    of a mechanism whose row x must recover output f(x)."""
    r, k = inst.r, inst.k
    rows = [[0] * (r * k + k) for _ in range(2 * r if rho > 0 else r)]
    for x in range(r):
        rows[x][x * k : x * k + k] = [1] * k
        if rho > 0:
            rows[r + x][x * k + inst.f[x]] = 1
    m = len(rows) - r
    return rows, [EQUAL] * r + [GREATER] * m, [1] * r + [rho] * m


def _program(inst: Instance, list_rows: list, fixed) -> tuple[list, list, list, list]:
    """Costs, rows, senses and rhs: the list rows, then the `_fixed_rows`."""
    rows, senses, rhs = fixed
    m = len(list_rows)
    costs = [0] * (inst.r * inst.k) + [1] * inst.k
    return costs, list_rows + rows, [LESS] * m + senses, [0] * m + rhs


def _lp_parts(inst: Instance, rho: Fraction, lists: Sequence[Sequence[tuple[int, ...]]]):
    """Cost vector and constraint rows; variables are w(x,i) then t(i).

    `lists[i]` are the candidate l-lists whose mass bounds t(i) from below.
    Their rows come first, output by output, then the fixed rows.
    """
    rows = [_list_row(inst, i, lst) for i in range(inst.k) for lst in lists[i]]
    return _program(inst, rows, _fixed_rows(inst, rho))


def symbol_program(inst: Instance, rho: Fraction, sense: str):
    """The compact top-l program over symbols, with nothing substituted: an
    independent reference for the oracle's program over symbol classes.

    Minimize the sum over outputs of l*u_i + sum_x v(x,i), where
    v(x,i) + u_i - p_x*w(x,i) >= 0 is written with `sense` ">=" as is and
    with "<=" negated; the optimum is each output's top-l mass, summed. The
    variables are w(x,i), then u_i, then v(x,i); the top-l rows come first,
    then the stochastic and recover rows of the loop's program.
    """
    r, k = inst.r, inst.k
    nw = r * k
    n = 2 * nw + k
    costs = [0] * nw + [inst.l] * k + [1] * nw
    sign = 1 if sense == GREATER else -1
    rows, senses, rhs = [], [], []
    for i in range(k):
        for x, p in enumerate(inst.pmf):
            row = [0] * n
            row[x * k + i] = -sign * p
            row[nw + i] = sign
            row[nw + k + x * k + i] = sign
            rows.append(row)
            senses.append(sense)
            rhs.append(0)
    # The loop's stochastic and recover rows, with zeros for the v columns.
    fixed_rows, fixed_senses, fixed_rhs = _fixed_rows(inst, rho)
    rows += [row + [0] * nw for row in fixed_rows]
    return costs, rows, senses + fixed_senses, rhs + fixed_rhs


def polytope(inst: Instance, rho: Fraction) -> tuple[list, list, list, list]:
    """The oracle's program over the polytope P, for `solve_rational` with
    maximize=True: (costs, rows, senses, rhs). Columns alpha_0..alpha_{r-1},
    then beta_0..beta_{r-1}; a row alpha_x + beta_x <= 1 per symbol, then a
    row per output i, the sum of beta plus the sum of alpha over f^-1(i) at
    most l. It scores p_x (beta_x + rho alpha_x), and its optimum is 1 minus
    the oracle's."""
    r = inst.r
    rows = []
    for x in range(r):
        row = [0] * (2 * r)
        row[x] = row[r + x] = 1
        rows.append(row)
    for block in inst.preimages:
        row = [0] * r + [1] * r
        for x in block:
            row[x] = 1
        rows.append(row)
    rhs = [1] * r + [inst.l] * inst.k
    costs = [p * rho for p in inst.pmf] + list(inst.pmf)
    return costs, rows, [LESS] * len(rows), rhs


def zero_one_points(inst: Instance) -> list[tuple[int, Fraction, Fraction]]:
    """Every 0/1 point of P by brute force, as (anchor count, anchor mass,
    pick mass). Each symbol is left out, an anchor (beta = 1) or a pick
    (alpha = 1); a labeling is a point of P when every output i has at most
    l anchors and picks of f^-1(i) together. It scores its anchor mass plus
    rho times its pick mass."""
    points = []
    for labels in product((0, 1, 2), repeat=inst.r):
        anchors = labels.count(1)
        picks = [0] * inst.k
        for x, label in enumerate(labels):
            picks[inst.f[x]] += label == 2
        if anchors + max(picks) <= inst.l:
            anchor = sum((p for p, label in zip(inst.pmf, labels) if label == 1), Fraction(0))
            pick = sum((p for p, label in zip(inst.pmf, labels) if label == 2), Fraction(0))
            points.append((anchors, anchor, pick))
    return points


class ReferenceResult(NamedTuple):
    optimum: Fraction
    witness: StochasticMatrix


def reference_exact_privacy(inst: Instance, rho) -> ReferenceResult:
    """Reference cutting-plane loop for exact_privacy: same rows, same pivots.

    Every round rebuilds the whole program with `_lp_parts` and evaluates a
    validated witness matrix with the reference adversary. The oracle's
    witness read must give the same result after the same rounds and the
    same pivots.
    """
    rho = ensure_rho(rho)
    r, k = inst.r, inst.k
    lists = [[top_elements(range(r), inst.l, inst.pmf)] for _ in range(k)]
    while True:
        costs, rows, senses, rhs = _lp_parts(inst, rho, lists)
        sol = solve_rational(costs, rows, senses, rhs)
        if sol.status is not LpStatus.OPTIMAL:
            raise AssertionError(f"privacy program should always solve, got {sol.status}")
        witness = StochasticMatrix(
            rows=tuple([tuple([sol.x[x * k + i] for i in range(k)]) for x in range(r)])
        )
        optimum = 1 - sol.objective
        report = reference_list_privacy(inst, witness)
        if report.privacy == optimum:
            break
        if report.privacy > optimum:
            raise AssertionError(
                f"witness certifies {report.privacy}, program claims {optimum}"
            )
        for i in range(k):
            if report.per_output_mass[i] > sol.x[r * k + i]:
                lists[i].append(report.estimator.lists[i])
    return ReferenceResult(optimum=optimum, witness=witness)


# Most pivots one `solve_lp` call may take in any test, and the most bits an
# entry of the pivot row or of the reduced-cost row may hold after a pivot.
# Tier-1 reaches at most 122 pivots in one call and 239 bits.
PIVOT_CAP = 20_000
BITS_CAP = 4096


@pytest.fixture(autouse=True)
def pivot_cap(monkeypatch):
    """Fail any `solve_lp` call past PIVOT_CAP pivots, or whose pivot row or
    reduced-cost row holds an entry over BITS_CAP bits after a pivot, so that
    a pivoting rule that cycles, or a stale tableau whose ints grow by
    thousands of bits a pivot, fails its test instead of hanging the suite.
    A call is known by its `basis` list, which `solve_lp` makes once and
    hands every pivot of the call; holding the last one keeps its identity
    from being reused. A test's own spy on `simplex._pivot` wraps this one."""
    pivot = simplex._pivot
    call = [None, 0]  # the current call's basis, and its pivots so far

    def capped(T, basis, red, row, col, *rest):
        if basis is not call[0]:
            call[:] = [basis, 0]
        call[1] += 1
        if call[1] > PIVOT_CAP:
            raise RuntimeError(f"over {PIVOT_CAP:,} pivots in one solve_lp call: the solver cycles")
        pivot(T, basis, red, row, col, *rest)
        if max(abs(v).bit_length() for v in (*T[row].values(), *red.values())) > BITS_CAP:
            raise RuntimeError(f"a tableau entry over {BITS_CAP:,} bits: its ints blow up")

    monkeypatch.setattr(simplex, "_pivot", capped)


@pytest.fixture
def pivot_log(monkeypatch):
    """`pivot_log(module, name)` wraps the pivot function `module.name` so
    that every pivot appends its (row, column) to the list it returns.

    Scaling a row by a positive number changes no pivoting decision, so two
    solvers given the same program must log the same pairs in the same order.
    Any argument after the column, as `simplex._pivot`'s rows to eliminate,
    is passed through unchanged.
    """

    def install(module, name: str) -> list:
        log = []
        pivot = getattr(module, name)

        def record(T, basis, red, row, col, *rest):
            log.append((row, col))
            pivot(T, basis, red, row, col, *rest)

        monkeypatch.setattr(module, name, record)
        return log

    return install


@pytest.fixture
def tangent_sweeps(monkeypatch) -> list:
    """The instances `envelope._tangent_sweep` starts on, in call order. The
    first kink's search starts one, which should happen once per instance;
    `privacy_curve` starts one too, so a test that counts builds no curve."""
    sweeps = []
    sweep = envelope._tangent_sweep

    def record(inst):
        sweeps.append(inst)
        return sweep(inst)

    monkeypatch.setattr(envelope, "_tangent_sweep", record)
    return sweeps


@pytest.fixture
def solves(monkeypatch) -> list:
    """Every `oracle.solve_lp` call's `(n, rows, cost, answer)`, in call
    order: the one seam between the oracle and its LP core, recorded without
    changing a solve. The recorder wraps the `solve_lp` it replaced."""
    calls = []
    solve = oracle.solve_lp

    @functools.wraps(solve)
    def record(n, rows, cost):
        answer = solve(n, rows, cost)
        calls.append((n, rows, cost, answer))
        return answer

    monkeypatch.setattr(oracle, "solve_lp", record)
    return calls
