"""Independent LP oracle for the exact best achievable list privacy.

Maximizing privacy over admissible mechanisms is a linear program once the
adversary's best-list mass per output is replaced by an epigraph variable
bounded below by every candidate list. The program is solved with the exact
rational simplex and shares only the ranking rule of `core.ranked` with the
analytic bound, so the two routes can be compared at face value. It is
solved in two formulations:

- `exact_privacy` solves the compact top-l program, with no l-list in it,
  over symbol classes: symbols of equal mass and function value are
  interchangeable, so one row of the mechanism serves a whole class. Each
  class's stochastic row is substituted away, and its own output's top-l
  row becomes a bound on that row's surplus, so for C classes
  (`Instance._classes`) the program has Ck + C rows, every one `<=` with a
  nonnegative right-hand side: the core starts at the slack basis and runs
  no phase 1, where one row per symbol with its stochastic row kept would
  have rk + 2r rows and a phase 1.
  Its witness gives every member of a class the same row object, and
  `list_privacy` certifies it over all r symbols. On tie-heavy priors this
  is what keeps a solve small: one level of a seeded r=60, k=10, l=10
  prior of masses 1 or 2 takes 0.014-0.039 s of CPU time instead of
  0.17-0.37 s, and a uniform prior on 10^5 symbols (k=10, l=500) is a
  110-row program, solved and certified in 0.20-0.25 s (one core of a
  2-core x86-64 box, Python 3.11).
- The result's `witness`, read for `oracle --rho`, comes from the list
  program over symbols by Kelley's cutting-plane method: most of its
  k * C(r, l) list rows are slack, so the optimal adversary, run on the
  candidate witness, finds each output's violated list. Only that read runs
  the loop, so a caller that reads only optima, as `oracle --grid` does,
  never runs it.

Within one call each program stays in integers. The pmf comes as ints over
its common denominator D, with its top-l list, from the instance's profile
(`Instance._profile`), and each row is built once, as the sparse
`{column: int}` row with its own scale that `simplex.solve_lp` takes; a list
row, scaled by D, is built when its cut is generated. Every round hands the
core these rows in the same order, so its pivots, and the printed witness,
are those of a program rebuilt each round. A round reads its vertex as ints
over one common scale, scores it with the adversary's scorer and finds each
output's best list with the adversary's own `best_list`: the separation
oracle is the adversary itself. The compact program's vertex is read the
same way, each class's own-output entry being that scale minus the class's
other entries. Fractions appear only for the optima and the vertices that
`list_privacy` certifies, one per entry of a vertex read in ints; only
`active_lists`, which `oracle --rho` prints, enumerates a witness's tied
best lists, on the same integer scores. A vertex that is no mechanism, an
entry below zero or a row whose ints do not add up to the scale, is a fault
of the solve, so it raises AssertionError before any matrix is built.

Rows carry no names. `lp_lines` formats each row as soon as it is built and
names it only in its line, and the CLI's `--lp-dump` writes each line as it
comes, so a dump holds neither the program's rows nor its text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

from .adversary import _scores, best_list, list_privacy
from .core import (
    Instance,
    StochasticMatrix,
    _check_sequence,
    _check_type,
    _lcm,
    check_dims,
    ensure_rho,
    format_rational,
    parse_rational,
    ranked,
    recoverability_level,
)
from .errors import InstanceTooLarge
from .simplex import EQUAL, GREATER, LESS, LpStatus, solve_lp

# Most tied lists `active_lists` (and so `oracle --rho`) enumerates, and most
# list rows `lp_lines` writes; each count is taken before any list is built.
ACTIVE_LIST_LIMIT = 100_000


@dataclass(frozen=True)
class OracleResult:
    """The exact optimum for `inst` at level `rho`, from the compact program.

    `witness` is a mechanism that attains it, found by the cutting-plane loop
    the first time it is read and then kept. The loop solves the list
    formulation, so a witness read checks the two formulations against each
    other: its certified optimum must equal `optimum`. Built by hand, it
    checks its fields as `exact_privacy` checks its arguments.
    """

    optimum: Fraction
    inst: Instance
    rho: Fraction

    def __post_init__(self):
        _check_type("instance", self.inst, Instance)
        object.__setattr__(self, "rho", ensure_rho(self.rho))
        object.__setattr__(self, "optimum", parse_rational(self.optimum))

    @cached_property
    def witness(self) -> StochasticMatrix:
        optimum, witness = _cutting_plane(self.inst, self.rho)
        if optimum != self.optimum:
            raise AssertionError(
                f"cutting planes reach {optimum}, the compact program {self.optimum}"
            )
        return witness


def _list_row(inst: Instance, i: int, lst: tuple[int, ...]):
    """The row `mass of lst under output i - t(i) <= 0`, scaled by the pmf's
    common denominator."""
    k = inst.k
    pw, den = inst._profile.pw, inst._profile.den
    row = {x * k + i: pw[x] for x in lst}
    row[inst.r * k + i] = -den
    return row, LESS, 0, den


def _fixed_rows(inst: Instance, rho: Fraction) -> list:
    """The stochastic rows, then the recover rows, of a mechanism whose row x
    must recover output f(x), each recover row scaled by rho's denominator;
    there are no recover rows when rho is 0."""
    k = inst.k
    rows = [(dict.fromkeys(range(x * k, x * k + k), 1), EQUAL, 1, 1) for x in range(inst.r)]
    if rho > 0:
        q = rho.denominator
        rows += [({x * k + i: q}, GREATER, rho.numerator, q) for x, i in enumerate(inst.f)]
    return rows


def _solve(n: int, rows: list, cost: dict[int, int]) -> tuple[dict, Fraction]:
    """A privacy program's basic variables and minimum by this module's
    `solve_lp`; each caller reads its privacy from the minimum."""
    status, basic, objective = solve_lp(n, rows, cost)
    if status is not LpStatus.OPTIMAL:
        raise AssertionError(f"privacy program should always solve, got {status}")
    return basic, Fraction(*objective)


def active_lists(inst: Instance, mech: StochasticMatrix):
    """Per output, every l-list of largest mass under the mechanism, ascending.

    Such a list is every symbol scoring above the l-th best score plus a choice
    among the symbols tied with it. Raises InstanceTooLarge when there are more
    than ACTIVE_LIST_LIMIT of them, and DimensionMismatch unless the matrix
    is r x k.
    """
    check_dims(inst, mech)
    ties = []
    for scores in _scores(inst, mech._scaled[0]):
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
    """Best achievable list privacy at level rho, solved exactly in one LP.

    The compact top-l program over symbol classes. An output's best l-list
    mass is the minimum over u >= 0 of l*u + sum_x max(0, s_x - u), s_x its
    scores (Ogryczak and Tamir, 2003). The program is convex and unchanged
    when interchangeable symbols are permuted, so averaging an optimum over
    those permutations gives one in which each class c of m_c symbols of
    mass p_c shares one row w(c,.) (Bodi, Herr and Joswig, 2013). So each
    output i gets a column u(i) and, per class c, a column v(c,i) with the
    row `p_c w(c,i) - u(i) - v(c,i) <= 0`, scaled by the pmf's common
    denominator D, and costs l on u(i) and m_c on v(c,i): a multiset's top-l
    sum.

    Each class's stochastic row is substituted away (Andersen and Andersen,
    1995): with f = f_c, w(c,f) = 1 - S_c, S_c the sum of w(c,i) over i != f,
    has no column, and the recover row becomes `S_c <= 1 - rho`. Then v(c,f)
    gives way to the surplus y(c) = u(f) + v(c,f) + p_c S_c - p_c of the own
    output's top-l row, which is that row's slack, so the row becomes the
    bound y(c) >= 0 and goes, and v(c,f) >= 0 becomes the row
    `u(f) + p_c S_c - y(c) <= p_c`. Every row is then `<=` with rhs >= 0, so
    the slack basis is feasible and the core runs no phase 1: a crash basis
    (Bixby, 1992). The costs, times D, are l D - D n_i on u(i), n_i the
    number of symbols of output i, m_c D on v(c,i) and y(c), and -m_c p_c D
    on w(c,i); the constant they drop, D times the total mass 1, is the 1 of
    1 - top-l masses, so privacy is -min / D. The program has 2Ck + k - C
    columns and Ck + C rows. At an optimum each output's u and v terms add
    up to exactly its top-l mass, so the optimum is the privacy of the
    vertex's w part, every member given its class's row, which
    `list_privacy` certifies over all r symbols. That row is read in ints
    over the lcm of the basic scales, w(c,f) as the scale minus the rest,
    and raises AssertionError if an entry is negative.
    """
    _check_type("instance", inst, Instance)
    rho = ensure_rho(rho)
    k, l = inst.k, inst.l
    classes = inst._classes
    # Columns: v(c,i) at c * k + i, y(c) in v(c,f_c)'s place, then u(i), then
    # class c's w(c,i), i != f_c, in order of i; the recover rows come first.
    # Orders change only the pivots: on seeded k = 8-10 priors this one took
    # 6-45% fewer than w, u, v under the top-l rows.
    nu = len(classes) * k
    nw = nu + k
    blocks = [range(nw + c * (k - 1), nw + (c + 1) * (k - 1)) for c in range(len(classes))]
    den = inst._profile.den
    q = rho.denominator
    rows = [(dict.fromkeys(block, q), LESS, q - rho.numerator, q) for block in blocks]
    for i in range(k):
        for c, (w, f, _) in enumerate(classes):
            if i != f:
                row = {blocks[c][i - (i > f)]: w, nu + i: -den, c * k + i: -den}
                rows.append((row, LESS, 0, den))
            else:
                row = {nu + f: den, c * k + f: -den} | dict.fromkeys(blocks[c], w)
                rows.append((row, LESS, w, den))
    cost = dict.fromkeys(range(nu, nu + k), l * den)
    for c, (w, f, members) in enumerate(classes):
        m = len(members)
        cost |= dict.fromkeys(range(c * k, c * k + k), m * den)
        cost |= dict.fromkeys(blocks[c], -m * w)
        cost[nu + f] -= m * den
    cost = {j: v for j, v in cost.items() if v}
    basic, objective = _solve(nw + len(classes) * (k - 1), rows, cost)
    optimum = -objective / den
    # Each class's row in ints over one scale, the lcm of the basic scales,
    # its own output taking the scale minus the rest; a vertex that leaves
    # any entry negative is a fault of the solve. One row object per class,
    # shared by its members: StochasticMatrix checks it once.
    scale = _lcm([s for _, s in basic.values()])
    mech = [()] * inst.r
    for block, (_, f, members) in zip(blocks, classes):
        rest = [basic[j][0] * (scale // basic[j][1]) if j in basic else 0 for j in block]
        rest.insert(f, scale - sum(rest))
        if min(rest) < 0:
            raise AssertionError(f"vertex row {members[0]} is not a mechanism row")
        row = tuple([Fraction(v, scale) for v in rest])
        for x in members:
            mech[x] = row
    witness = StochasticMatrix(rows=tuple(mech))
    _certify(inst, rho, witness, optimum)
    return OracleResult(optimum=optimum, inst=inst, rho=rho)


def _certify(inst: Instance, rho: Fraction, witness: StochasticMatrix, optimum: Fraction) -> None:
    """The one fault check: a program's witness must be rho-recoverable, and
    its optimum the witness's privacy."""
    level = recoverability_level(witness, inst)
    if level < rho:
        raise AssertionError(f"witness recovers at {level}, below rho = {rho}")
    certified = list_privacy(inst, witness).privacy
    if certified != optimum:
        raise AssertionError(f"witness certifies {certified}, program claims {optimum}")


def _cutting_plane(inst: Instance, rho: Fraction) -> tuple[Fraction, StochasticMatrix]:
    """The optimum at level rho by cutting planes, and the certified vertex
    that attains it.

    Each round adds, for every output whose best list under the candidate
    witness outweighs its epigraph variable, that list as a row; the first
    round that adds none is the last. t(i) costs 1 and only its own list rows
    bound it, so each t(i) is then its best list's mass and the optimum is
    the witness's privacy.
    """
    r, k = inst.r, inst.k
    nw = r * k
    den = inst._profile.den
    fixed = _fixed_rows(inst, rho)
    cost = dict.fromkeys(range(nw, nw + k), 1)
    # Each output's list rows, in the order their cuts were generated.
    cuts = [[_list_row(inst, i, inst._profile.top)] for i in range(k)]
    while True:
        rows = [row for per_output in cuts for row in per_output]
        basic, objective = _solve(nw + k, rows + fixed, cost)
        optimum = 1 - objective
        # The vertex as ints over one scale, the lcm of the basic scales: the scores
        # then share the scale den * scale, so best_list picks the Fraction lists.
        scale = _lcm([s for _, s in basic.values()])
        w = [0] * (nw + k)
        for j, (v, s) in basic.items():
            w[j] = v * (scale // s)
        vertex = [w[x * k : x * k + k] for x in range(r)]
        for x, row in enumerate(vertex):
            if min(row) < 0 or sum(row) != scale:
                raise AssertionError(f"vertex row {x} is not a mechanism row")
        best = [best_list(scores, inst.l) for scores in _scores(inst, vertex)]
        cut = [i for i, (mass, _) in enumerate(best) if mass > w[nw + i] * den]
        if not cut:
            break
        for i in cut:
            cuts[i].append(_list_row(inst, i, best[i][1]))
    witness = StochasticMatrix(
        rows=tuple([tuple([Fraction(v, scale) for v in row]) for row in vertex])
    )
    _certify(inst, rho, witness, optimum)
    return optimum, witness


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
