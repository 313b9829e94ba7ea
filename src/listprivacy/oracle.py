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
  row becomes a bound on that row's surplus. A class is settled when
  another output has l symbols heavy enough that, under any
  rho-recoverable mechanism, they outscore the class's noise there: its
  best row is then rho at its output and 1 - rho at that one, and it
  leaves the program but for one row. So for C classes
  (`Instance._classes`), F of them free, the program has F(k + 1) + (C - F)
  rows, every one `<=` with a nonnegative right-hand side: the core starts
  at the slack basis and runs no phase 1. Its witness gives every member of
  a class the same row object, and `list_privacy` certifies it over all r
  symbols. On tie-heavy priors this is what keeps a solve small: one level
  of a seeded r=60, k=10, l=10 prior of masses 1 or 2 takes 0.014-0.039 s
  of CPU time, and a uniform prior on 10^5 symbols (k=10, l=500) is a
  110-row program below rho = 1/2, where no class settles, solved and
  certified in 0.20-0.25 s (one core of a 2-core x86-64 box, Python 3.11),
  and a 10-row one from 1/2 on, where every class does.
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
are those of a program rebuilt each round. `_solve`, the one reader of the
core's answer, gives each vertex as ints over one common scale and the
minimum as the core's int pair (numerator, denominator), from which each
program builds its optimum as one Fraction: the compact program's -min / D
plus the settled classes' mass times 1 - rho, the loop's 1 - min. A round
scores its vertex with the adversary's scorer and finds each output's best
list with the adversary's own `best_list`: the separation oracle is the
adversary itself. The compact program reads each free class's own-output
entry as that scale minus the class's other entries; a settled class's row
is known without it. Fractions appear only for the optima and the witness
rows, one per nonzero entry of a vertex read in ints (zero entries share
`core.ZERO`), which `_certify`, the one builder of a witness, makes into
the mechanism that `list_privacy` certifies; it checks the witness's level
against rho = a/q in ints, min * q >= a * D over the matrix's scale D.
Only `active_lists`, which `oracle --rho` prints, enumerates a witness's
tied best lists, on the same integer scores. A vertex that is no
mechanism, an entry below zero or a row whose ints do not add up to the
scale, is a fault of the solve, so it raises AssertionError before any
matrix is built.

Rows carry no names. `lp_lines` formats each row as soon as it is built and
names it only in its line, and the CLI's `--lp-dump` writes each line as it
comes, so a dump holds neither the program's rows nor its text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from typing import Iterator, Sequence

from .adversary import _scores, best_list, list_privacy
from .core import (
    ZERO,
    Instance,
    StochasticMatrix,
    _check_sequence,
    _check_type,
    _lcm,
    _own_floor,
    check_dims,
    ensure_rho,
    format_rational,
    parse_rational,
    ranked,
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


def _solve(n: int, rows: list, cost: dict[int, int]) -> tuple[list[int], int, tuple[int, int]]:
    """The one read of a privacy program's answer from this module's
    `solve_lp`: its vertex, the n column values as ints over one scale, the
    lcm of the basic scales; that scale; and its minimum as (numerator,
    denominator), the denominator positive."""
    status, basic, objective = solve_lp(n, rows, cost)
    if status is not LpStatus.OPTIMAL:
        raise AssertionError(f"privacy program should always solve, got {status}")
    scale = _lcm([s for _, s in basic.values()])
    vertex = [0] * n
    for j, (v, s) in basic.items():
        vertex[j] = v * (scale // s)
    return vertex, scale, objective


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


def _settled(inst: Instance, rho: Fraction) -> list:
    """Per symbol class, its noise output if the class is settled at rho, or
    None if it is free.

    A class of mass p at output f is settled when some other output i0 has l
    symbols in its own preimage whose mass times rho is at least p(1 - rho):
    under any rho-recoverable mechanism those l symbols score at least that at
    i0, so the class's noise, sent there, never counts in i0's top-l mass.
    i0 is the other output whose l-th heaviest symbol weighs most, the first
    such output on ties.
    """
    l, a, q = inst.l, rho.numerator, rho.denominator
    pw = inst._profile.pw
    orders = inst._profile.orders
    floors = {i: pw[order[l - 1]] for i, order in enumerate(orders) if len(order) >= l}
    noise = []
    for w, f, _ in inst._classes:
        i0 = max([i for i in floors if i != f], key=floors.__getitem__, default=None)
        noise.append(i0 if i0 is not None and floors[i0] * a >= w * (q - a) else None)
    return noise


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
    1 - top-l masses, so privacy is -min / D.

    Noise helps a symbol only at outputs where it cannot be listed, so some
    classes' best rows follow in closed form. A class of mass p at output f
    is settled at rho when another output i0 has l symbols in its own
    preimage whose mass times rho is at least p(1 - rho) (`_settled`). It
    takes the row rho at f, 1 - rho at i0 and 0 elsewhere, and leaves the
    program but for its own output's row with the constant score p rho,
    `u(f) - y(c) <= p rho`, whose dropped constant m p rho D leaves
    (1 - rho) m p to add back to -min / D. This is exact for every feasible
    mechanism and every settled class at once, as a top-l sum never rises
    when a score falls: at f the class's score only falls, w(c,f) >= rho; at
    i0 at least l symbols score p_x rho >= p(1 - rho) under any
    rho-recoverable mechanism, so the top-l sum ignores the class there; and
    elsewhere its score drops to 0. A tie changes no top-l sum either way.
    With F of the C classes free, the program has 2Fk + k + C - 2F columns
    and F(k + 1) + (C - F) rows, 2Ck + k - C and Ck + C when none settles.

    At an optimum each output's u and v terms add up to exactly its top-l
    mass, so the optimum is the privacy of the vertex's w part, every member
    given its class's row, which `list_privacy` certifies over all r
    symbols, settled rows included. A free class's row is read in ints over
    the vertex's one scale (`_solve`), w(c,f) as the scale minus the rest,
    and raises AssertionError if an entry is negative.
    """
    _check_type("instance", inst, Instance)
    rho = ensure_rho(rho)
    k, l = inst.k, inst.l
    classes = inst._classes
    noise = _settled(inst, rho)
    free = [c for c, i0 in enumerate(noise) if i0 is None]
    # Columns: class c's v(c,i) from starts[c], y(c) in v(c,f)'s place, a settled
    # class having only y(c); then u(i); then each free class's w(c,i), i != f,
    # in order of i. The recover rows come first. Orders change only the
    # pivots: on seeded k = 8-10 priors this one took 6-45% fewer than w, u, v
    # under the top-l rows.
    starts = list(accumulate([k if i0 is None else 1 for i0 in noise], initial=0))
    nu = starts.pop()
    nw = nu + k
    blocks = {c: range(nw + j * (k - 1), nw + (j + 1) * (k - 1)) for j, c in enumerate(free)}
    den = inst._profile.den
    a, q = rho.numerator, rho.denominator
    rows = [(dict.fromkeys(block, q), LESS, q - a, q) for block in blocks.values()]
    for i in range(k):
        for c, (w, f, _) in enumerate(classes):
            v = starts[c]
            if noise[c] is not None:
                if i == f:
                    rows.append(({nu + f: den * q, v: -den * q}, LESS, w * a, den * q))
            elif i != f:
                row = {blocks[c][i - (i > f)]: w, nu + i: -den, v + i: -den}
                rows.append((row, LESS, 0, den))
            else:
                row = {nu + f: den, v + f: -den} | dict.fromkeys(blocks[c], w)
                rows.append((row, LESS, w, den))
    # u(i) costs (l - n_i) D, n_i the symbols of output i, left out when zero.
    cost = {nu + i: (l - len(p)) * den for i, p in enumerate(inst.preimages) if len(p) != l}
    settled = 0  # the settled classes' mass, times their size, over den
    for c, (w, _, members) in enumerate(classes):
        m = len(members)
        if noise[c] is None:
            cost |= dict.fromkeys(range(starts[c], starts[c] + k), m * den)
            cost |= dict.fromkeys(blocks[c], -m * w)
        else:
            cost[starts[c]] = m * den
            settled += m * w
    vertex, scale, (obj, obj_den) = _solve(nw + len(free) * (k - 1), rows, cost)
    # Privacy is -min / D, min = obj / obj_den, plus the settled classes'
    # noise, 1 - rho, which scores at no top-l row, so their mass comes back:
    # one Fraction over obj_den * q * D.
    optimum = Fraction((q - a) * settled * obj_den - obj * q, obj_den * q * den)
    # Each free class's row in ints over the vertex's scale, its own output
    # taking the scale minus the rest; a vertex that leaves any entry
    # negative is a fault of the solve. A settled class's row is rho at its
    # output and 1 - rho at its noise output. Every class, free or settled,
    # gives its members one row object, which StochasticMatrix checks once.
    mech = [()] * inst.r
    for c, (_, f, members) in enumerate(classes):
        if noise[c] is None:
            rest = [vertex[j] for j in blocks[c]]
            rest.insert(f, scale - sum(rest))
            if min(rest) < 0:
                raise AssertionError(f"vertex row {members[0]} is not a mechanism row")
            row = [Fraction(v, scale) if v else ZERO for v in rest]
        else:
            row = [ZERO] * k
            row[f], row[noise[c]] = rho, 1 - rho
        for x in members:
            mech[x] = row
    _certify(inst, rho, mech, optimum)
    return OracleResult(optimum=optimum, inst=inst, rho=rho)


def _certify(inst: Instance, rho: Fraction, rows: Sequence, optimum: Fraction) -> StochasticMatrix:
    """The one fault check, and the one build of a program's witness: the
    mechanism with these rows must be rho-recoverable, and its privacy the
    program's optimum. Returns that witness."""
    witness = StochasticMatrix(rows=tuple(rows))
    low, scale = _own_floor(witness, inst)
    if low * rho.denominator < rho.numerator * scale:
        raise AssertionError(f"witness recovers at {Fraction(low, scale)}, below rho = {rho}")
    certified = list_privacy(inst, witness).privacy
    if certified != optimum:
        raise AssertionError(f"witness certifies {certified}, program claims {optimum}")
    return witness


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
        w, scale, (obj, obj_den) = _solve(nw + k, rows + fixed, cost)
        optimum = Fraction(obj_den - obj, obj_den)
        # The vertex's ints share one scale, so its scores share the scale
        # den * scale and best_list picks the Fraction lists.
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
    mech = [tuple([Fraction(v, scale) if v else ZERO for v in row]) for row in vertex]
    return optimum, _certify(inst, rho, mech, optimum)


def exact_privacy_curve(
    inst: Instance, grid: Sequence
) -> tuple[tuple[Fraction, OracleResult], ...]:
    """Oracle values over a grid of levels, checked to be nonincreasing and
    concave in rho.

    rho enters the program only through its right-hand side, so the optimum
    is convex in rho and privacy concave: the slopes between consecutive
    distinct levels cannot increase. The instance and every level are checked
    before any level is solved. Raises InstanceFormatError unless inst is an
    Instance and the grid a sequence.
    """
    _check_type("instance", inst, Instance)
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
