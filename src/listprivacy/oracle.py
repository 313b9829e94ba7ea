"""Independent LP oracle for the exact best achievable list privacy.

Maximizing privacy over admissible mechanisms is a linear program once the
adversary's best-list mass per output is replaced by an epigraph variable
bounded below by every candidate list. The program is solved with the exact
rational simplex and shares only the ranking rule of `core.ranked` with the
analytic bound, so the two routes can be compared at face value. Most of the
k * C(r, l) list rows are slack, so they are generated by Kelley's
cutting-plane method: the optimal adversary, run on the candidate witness,
finds each output's violated list. A round that adds no cut is the last,
and `list_privacy` then certifies the witness against every l-list.

Within one call the program stays in integers. The pmf comes as ints over
its common denominator D, with its top-l list, from the instance's profile
(`Instance._profile`), and each row is built once, as the sparse
`{column: int}` row with its own scale that `simplex.solve_lp` takes; a list
row, scaled by D, is built when its cut is generated. Every round hands the
core these rows in the same order, so its pivots are those of a program
rebuilt each round. A round reads its vertex as ints over one common scale,
scores it with the adversary's scorer and finds each output's best list with
the adversary's own `best_list`: the separation oracle is the adversary
itself. Fractions appear only for the returned optimum and the final
witness, which `list_privacy` certifies; only `active_lists`, which
`oracle --rho` prints, enumerates a witness's tied best lists, on the same
integer scores.

Rows carry no names. `lp_lines` formats each row as soon as it is built and
names it only in its line, and the CLI's `--lp-dump` writes each line as it
comes, so a dump holds neither the program's rows nor its text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .adversary import _scores, best_list, list_privacy
from .core import (
    Instance,
    StochasticMatrix,
    _check_sequence,
    _check_type,
    check_dims,
    ensure_rho,
    format_rational,
    over_common_denominator,
    ranked,
)
from .errors import InstanceTooLarge
from .simplex import EQUAL, GREATER, LESS, LpStatus, solve_lp

# Most tied lists `active_lists` (and so `oracle --rho`) enumerates, and most
# list rows `lp_lines` writes; each count is taken before any list is built.
ACTIVE_LIST_LIMIT = 100_000


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum with a witness mechanism that `list_privacy` certifies."""

    optimum: Fraction
    witness: StochasticMatrix


def _list_row(inst: Instance, i: int, lst: tuple[int, ...]):
    """The row `mass of lst under output i - t(i) <= 0`, scaled by the pmf's
    common denominator."""
    k = inst.k
    pw, den = inst._profile.pw, inst._profile.den
    row = {x * k + i: pw[x] for x in lst}
    row[inst.r * k + i] = -den
    return row, LESS, 0, den


def _fixed_rows(inst: Instance, rho: Fraction) -> list:
    """The stochastic rows, then the recover rows, each of these scaled by
    rho's denominator; there are no recover rows when rho is 0."""
    r, k = inst.r, inst.k
    rows = [(dict.fromkeys(range(x * k, x * k + k), 1), EQUAL, 1, 1) for x in range(r)]
    if rho > 0:
        q = rho.denominator
        rows += [({x * k + inst.f[x]: q}, GREATER, rho.numerator, q) for x in range(r)]
    return rows


def active_lists(inst: Instance, mech: StochasticMatrix):
    """Per output, every l-list of largest mass under the mechanism, ascending.

    Such a list is every symbol scoring above the l-th best score plus a choice
    among the symbols tied with it. Raises InstanceTooLarge when there are more
    than ACTIVE_LIST_LIMIT of them, and DimensionMismatch unless the matrix
    is r x k.
    """
    check_dims(inst, mech)
    entries, _ = over_common_denominator([v for row in mech.rows for v in row])
    ties = []
    for scores in _scores(inst, entries):
        cut = scores[ranked(scores, range(inst.r))[inst.l - 1]]
        above = [x for x, s in enumerate(scores) if s > cut]
        tied = [x for x, s in enumerate(scores) if s == cut]
        ties.append((above, tied, inst.l - len(above)))
    count = sum(math.comb(len(tied), need) for _, tied, need in ties)
    if count > ACTIVE_LIST_LIMIT:
        raise InstanceTooLarge(f"mechanism ties on {count} active lists, over {ACTIVE_LIST_LIMIT}")
    # Picks come in ascending order, and so do their unions with `above`.
    return tuple(
        [
            tuple([tuple(sorted(above + list(pick))) for pick in combinations(tied, need)])
            for above, tied, need in ties
        ]
    )


def exact_privacy(inst: Instance, rho) -> OracleResult:
    """Best achievable list privacy at level rho, solved exactly.

    Cutting planes: each round adds, for every output whose best list under
    the candidate witness outweighs its epigraph variable, that list as a
    row; the first round that adds none is the last. t(i) costs 1 and only
    its own list rows bound it, so each t(i) is then its best list's mass and
    the optimum is the witness's privacy, which `list_privacy` certifies.
    """
    _check_type("instance", inst, Instance)
    rho = ensure_rho(rho)
    r, k = inst.r, inst.k
    nw = r * k
    den = inst._profile.den
    fixed = _fixed_rows(inst, rho)
    cost = dict.fromkeys(range(nw, nw + k), 1)
    # Each output's list rows, in the order their cuts were generated.
    cuts = [[_list_row(inst, i, inst._profile.top)] for i in range(k)]
    while True:
        rows = [row for per_output in cuts for row in per_output]
        status, basic, objective = solve_lp(nw + k, rows + fixed, cost, 1)
        if status is not LpStatus.OPTIMAL:
            raise AssertionError(f"privacy program should always solve, got {status}")
        # The vertex as ints over one scale, the lcm of the basic scales: the scores
        # then share the scale den * scale, so best_list picks the Fraction lists.
        scale = 1
        for _, s in basic.values():
            scale = scale * s // math.gcd(scale, s)
        w = [0] * (nw + k)
        for j, (v, s) in basic.items():
            w[j] = v * (scale // s)
        best = [best_list(scores, inst.l) for scores in _scores(inst, w)]
        cut = [i for i, (mass, _) in enumerate(best) if mass > w[nw + i] * den]
        if not cut:
            break
        for i in cut:
            cuts[i].append(_list_row(inst, i, best[i][1]))
    optimum = 1 - Fraction(*objective)
    witness = StochasticMatrix(
        rows=tuple([tuple([Fraction(v, scale) for v in w[x * k : x * k + k]]) for x in range(r)])
    )
    certified = list_privacy(inst, witness).privacy
    if certified != optimum:
        raise AssertionError(f"witness certifies {certified}, program claims {optimum}")
    return OracleResult(optimum=optimum, witness=witness)


def exact_privacy_curve(
    inst: Instance, grid: Sequence
) -> tuple[tuple[Fraction, OracleResult], ...]:
    """Oracle values over a grid of levels, checked to be nonincreasing and
    concave in rho.

    rho enters the program only through its right-hand side, so the optimum
    is convex in rho and privacy concave: the slopes between consecutive
    distinct levels cannot increase. Raises InstanceFormatError when the grid
    is not a sequence.
    """
    _check_sequence("grid", grid)
    levels = [ensure_rho(rho) for rho in grid]
    results = [(rho, exact_privacy(inst, rho)) for rho in levels]
    points = sorted({rho: result.optimum for rho, result in results}.items())
    slopes = [(b - a) / (s - t) for (t, a), (s, b) in zip(points, points[1:])]
    for j, slope in enumerate(slopes):
        if slope > 0:
            raise AssertionError("oracle curve increased with rho")
        if j and slope > slopes[j - 1]:
            raise AssertionError("oracle curve is not concave in rho")
    return tuple(results)


def lp_lines(inst: Instance, rho) -> Iterator[str]:
    """The privacy program in LP interchange text, one line at a time.

    Coefficients are shortest-repr decimals of the exact rationals; external
    floating-point solvers should be compared at a small tolerance. rho and
    the row count are checked at the call, so an error comes before the first
    line; each row is then formatted only when its line is asked for, list
    rows output by output, then the fixed rows. Row names exist only here.
    Raises InstanceTooLarge when the program has more than ACTIVE_LIST_LIMIT
    list rows, k * C(r, l), and InstanceFormatError unless inst is an Instance.
    """
    _check_type("instance", inst, Instance)
    rho = ensure_rho(rho)
    r, k = inst.r, inst.k
    count = k * math.comb(r, inst.l)
    if count > ACTIVE_LIST_LIMIT:
        raise InstanceTooLarge(f"LP dump needs {count} list rows, over {ACTIVE_LIST_LIMIT}")
    nw = r * k

    def var(j: int) -> str:
        if j < nw:
            return f"w_{j // k}_{j % k}"
        return f"t_{j - nw}"

    def line(name: str, row) -> str:
        coeffs, sense, bound, scale = row
        terms = []
        # Each quotient of ints is correctly rounded: the float of the rational.
        for j in sorted(coeffs):
            coef = coeffs[j]
            lead = "-" if coef < 0 else ("+" if terms else "")
            mag = abs(coef)
            piece = var(j) if mag == scale else f"{mag / scale!r} {var(j)}"
            terms.append(f"{lead} {piece}".strip())
        return f" {name}: " + " ".join(terms) + f" {sense} {bound / scale!r}\n"

    def lines() -> Iterator[str]:
        yield f"\\ list privacy program, rho = {format_rational(rho)}\n"
        yield "Minimize\n"
        yield " obj: " + " + ".join(var(nw + i) for i in range(k)) + "\n"
        yield "Subject To\n"
        for i in range(k):
            for lst in combinations(range(r), inst.l):
                name = f"list_{i}_" + "_".join(str(x) for x in lst)
                yield line(name, _list_row(inst, i, lst))
        # map stops after the stochastic rows when rho = 0 leaves no recover rows.
        names = [f"row_{x}" for x in range(r)] + [f"recover_{x}" for x in range(r)]
        yield from map(line, names, _fixed_rows(inst, rho))
        yield "End\n"

    return lines()


def lp_text(inst: Instance, rho) -> str:
    """The whole of `lp_lines(inst, rho)` as one string."""
    return "".join(lp_lines(inst, rho))
