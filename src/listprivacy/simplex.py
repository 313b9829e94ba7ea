"""Exact two-phase simplex over rationals, on integer tableau rows.

Dense tableau, minimization form, variables implicitly nonnegative. Each row
holds Python ints: a positive integer multiple of the true row, divided by the
gcd of its entries, so its entry in its basic column is the row's scale. The
reduced-cost row carries its positive denominator as one extra entry. Pivots
are fraction-free and sparse: only rows with a nonzero entry in the pivot
column change, each as p*row - f*prow at the pivot row's nonzero columns, and
the ratio test cross-multiplies. Scaling a row by a positive number changes no
sign and no ratio, so every decision is the one the rational tableau makes.

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
from typing import Sequence

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


def _integers(values) -> tuple[list[int], int]:
    """The values as ints over one common denominator, the lcm of theirs."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = 1
    for v in values:
        d = v.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return [v.numerator * (den // v.denominator) if v else 0 for v in values], den


def _reduce(row: list[int]) -> list[int]:
    # Pairwise gcd that stops at 1: math.gcd(*row) would build a tuple of the
    # whole row on every update.
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    return [v // g for v in row] if g > 1 else row


def _eliminate(row: list[int], prow: list[int], nonzero: list[int], col: int) -> list[int]:
    """Clear `row[col]` with the pivot row, whose entry there is positive."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    p //= g
    f //= g
    row = [p * v for v in row] if p != 1 else row[:]
    for j in nonzero:
        row[j] -= f * prow[j]
    return _reduce(row)


def _nonzero(row: list[int]) -> list[int]:
    return [j for j, v in enumerate(row) if v]


def _pivot(T: list, basis: list, red: list, row: int, col: int):
    prow = T[row]
    if prow[col] < 0:
        prow = [-v for v in prow]
        T[row] = prow
    nonzero = _nonzero(prow)
    for i, Ti in enumerate(T):
        if i != row and Ti[col]:
            T[i] = _eliminate(Ti, prow, nonzero, col)
    if red[col]:
        red[:] = _eliminate(red, prow, nonzero, col)
    basis[row] = col


def _reduced_costs(T: list, basis: list, cost: list, den: int) -> list:
    red = cost + [0, den]
    for i, bi in enumerate(basis):
        if red[bi]:
            red = _eliminate(red, T[i], _nonzero(T[i]), bi)
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
            a = Ti[enter]
            if a > 0:
                if leave < 0:
                    leave, num, dnm = i, Ti[rhs], a
                    continue
                lhs, cur = Ti[rhs] * dnm, num * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, num, dnm = i, Ti[rhs], a
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
    c_struct, c_den = _integers(costs)
    if maximize:
        c_struct = [-v for v in c_struct]

    A: list[list[int]] = []
    scale: list[int] = []
    sense: list[str] = []
    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    for row, s, bv in zip(rows, senses, rhs):
        if len(row) != n:
            raise ValueError("row width does not match the cost vector")
        ints, den = _integers([*row, bv])
        if ints[-1] < 0:
            ints = [-v for v in ints]
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

    T: list[list[int]] = []
    basis: list[int] = []
    for i in range(m):
        row = A[i][:n] + [0] * (ncol - n) + [A[i][n]]
        if i in slack_col:
            row[slack_col[i]] = scale[i] if sense[i] == LESS else -scale[i]
        if i in art_col:
            row[art_col[i]] = scale[i]
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
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
            pivot_col = next(
                (j for j in range(art_start) if T[i][j] != 0),
                None,
            )
            if pivot_col is None:
                del T[i]
                del basis[i]
            else:
                _pivot(T, basis, red, i, pivot_col)
        T = [row[:art_start] + [row[ncol]] for row in T]
        ncol = art_start

    status, red = _run(T, basis, c_struct + [0] * (ncol - n), c_den)
    if status == "unbounded":
        return LpSolution(status=LpStatus.UNBOUNDED, objective=None, x=None)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(T[i][ncol], T[i][bi])
    objective = Fraction(-red[ncol], red[ncol + 1]) * sign
    return LpSolution(status=LpStatus.OPTIMAL, objective=objective, x=tuple(x))
