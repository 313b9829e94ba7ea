"""Exact two-phase simplex over rationals, on sparse integer tableau rows.

Minimization form, variables implicitly nonnegative. Each tableau row is a
`{column: int}` dict holding only its nonzero entries, the right-hand side
included under the column after the last variable: a positive integer
multiple of the true row, divided by the gcd of its entries, so its entry in
its basic column is the row's scale. The reduced-cost row is a dense list, as
pricing scans every column, and carries its positive denominator as one extra
entry. Pivots are fraction-free and sparse: only rows with a nonzero entry in
the pivot column change, each as p*row - f*prow over the pivot row's nonzeros,
and the ratio test cross-multiplies. Scaling a row by a positive number
changes no sign and no ratio, so every decision is the one the rational
tableau makes.

The entering rule is steepest Dantzig descent until the objective stalls on
degenerate pivots, at which point Bland's rule takes over so cycling is
impossible; the leaving rule always breaks ratio ties toward the smallest
basis index. Everything is index-deterministic, so repeated solves are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

LESS, EQUAL, GREATER = "<=", "=", ">="

# Consecutive zero-progress pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 12


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    objective: Fraction | None
    x: tuple[Fraction, ...] | None


def _integers(values: Iterable) -> tuple[dict[int, int], int]:
    """The nonzero values by index, as ints over one common denominator, the
    lcm of theirs."""
    nonzero = {}
    den = 1
    for j, v in enumerate(values):
        if v == 0:  # no str equals 0: "0" is converted, then dropped below
            continue
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        if v:
            nonzero[j] = v
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    return {j: v.numerator * (den // v.denominator) for j, v in nonzero.items()}, den


def _content(values: Iterable[int]) -> int:
    """The gcd of the values, 0 when all are zero; stops once it reaches 1."""
    # Pairwise: math.gcd(*values) would build a tuple of the whole row on
    # every update.
    g = 0
    for v in values:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def _reduce(row: dict[int, int]) -> dict[int, int]:
    g = _content(row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """Clear `row[col]` with the pivot row, whose entry there is positive."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    p //= g
    f //= g
    row = {j: p * v for j, v in row.items()} if p != 1 else row.copy()
    get = row.get
    for j, v in prow.items():
        # f * v is nonzero, so a zero result means j was stored in row.
        w = get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _reduce(row)


def _eliminate_costs(red: list[int], prow: dict[int, int], col: int) -> None:
    """Clear `red[col]` in the dense reduced-cost row, in place."""
    p, f = prow[col], red[col]
    g = gcd(p, f)
    p //= g
    f //= g
    if p != 1:
        red[:] = [p * v for v in red]
    for j, v in prow.items():
        red[j] -= f * v
    g = _content(red)
    if g > 1:
        red[:] = [v // g for v in red]


def _pivot(T: list, basis: list, red: list, row: int, col: int):
    prow = T[row]
    if prow[col] < 0:
        prow = {j: -v for j, v in prow.items()}
        T[row] = prow
    for i, Ti in enumerate(T):
        if i != row and col in Ti:
            T[i] = _eliminate(Ti, prow, col)
    if red[col]:
        _eliminate_costs(red, prow, col)
    basis[row] = col


def _reduced_costs(T: list, basis: list, cost: list, den: int) -> list:
    red = cost + [0, den]
    for i, bi in enumerate(basis):
        if red[bi]:
            _eliminate_costs(red, T[i], bi)
    return red


def _run(T: list, basis: list, cost: list, den: int) -> tuple[str, list]:
    """Minimize cost/den over the current basic feasible solution, in place."""
    rhs = len(cost)
    red = _reduced_costs(T, basis, cost, den)
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
            best = min(red[:rhs], default=0)
            if best < 0:
                enter = red.index(best)
        if enter < 0:
            return "optimal", red
        leave = -1
        for i, Ti in enumerate(T):
            a = Ti.get(enter, 0)
            if a > 0:
                if leave < 0:
                    leave, num, dnm = i, Ti.get(rhs, 0), a
                    continue
                b = Ti.get(rhs, 0)
                lhs, cur = b * dnm, num * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, num, dnm = i, b, a
        if leave < 0:
            return "unbounded", red
        if num == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        _pivot(T, basis, red, leave, enter)


def solve_lp(
    costs: Sequence,
    rows: Sequence[Sequence],
    senses: Sequence[str],
    rhs: Sequence,
    maximize: bool = False,
) -> LpSolution:
    """Solve min (or max) costs.x subject to rows op rhs and x >= 0, exactly.

    `senses[i]` is one of "<=", "=", ">="; coefficients are ints, Fractions or
    anything `Fraction()` accepts. Returns exact Fractions for the objective
    and the structural variables.
    """
    m, n = len(rows), len(costs)
    if len(senses) != m or len(rhs) != m:
        raise ValueError("rows, senses, rhs must have equal length")
    for s in senses:
        if s not in (LESS, EQUAL, GREATER):
            raise ValueError(f"unknown sense {s!r}")
    sign = -1 if maximize else 1
    nonzero, c_den = _integers(costs)
    c_struct = [0] * n
    for j, v in nonzero.items():
        c_struct[j] = v * sign

    # Each row with its rhs under column n for now, and its scale.
    A: list[dict[int, int]] = []
    scale: list[int] = []
    sense: list[str] = []
    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    for row, s, bv in zip(rows, senses, rhs):
        if len(row) != n:
            raise ValueError("row width does not match the cost vector")
        ints, den = _integers([*row, bv])
        if ints.get(n, 0) < 0:
            ints = {j: -v for j, v in ints.items()}
            s = flip[s]
        A.append(ints)
        scale.append(den)
        sense.append(s)

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

    T: list[dict[int, int]] = []
    basis: list[int] = []
    for i, row in enumerate(A):
        b = row.pop(n, 0)
        if i in slack_col:
            row[slack_col[i]] = scale[i] if sense[i] == LESS else -scale[i]
        if i in art_col:
            row[art_col[i]] = scale[i]
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        if b:
            row[ncol] = b
        T.append(row)

    if art_col:
        pcost = [0] * ncol
        for col in art_col.values():
            pcost[col] = 1
        status, red = _run(T, basis, pcost, 1)
        if status != "optimal":
            raise AssertionError("phase one is bounded below by zero")
        if red[ncol] != 0:
            return LpSolution(status=LpStatus.INFEASIBLE, objective=None, x=None)
        # Clear leftover degenerate artificials from the basis, dropping rows
        # that turn out redundant, then discard the artificial columns.
        arts = set(art_col.values())
        for i in range(len(T) - 1, -1, -1):
            if basis[i] not in arts:
                continue
            pivot_col = min((j for j in T[i] if j < art_start), default=None)
            if pivot_col is None:
                del T[i]
                del basis[i]
            else:
                _pivot(T, basis, red, i, pivot_col)
        for i, row in enumerate(T):
            b = row.get(ncol, 0)
            row = {j: v for j, v in row.items() if j < art_start}
            if b:
                row[art_start] = b
            T[i] = row
        ncol = art_start

    status, red = _run(T, basis, c_struct + [0] * (ncol - n), c_den)
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, objective=None, x=None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(T[i].get(ncol, 0), T[i][bi])
    objective = Fraction(-red[ncol], red[ncol + 1]) * sign
    return LpSolution(status=LpStatus.OPTIMAL, objective=objective, x=tuple(x))
