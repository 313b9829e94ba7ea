"""Exact two-phase simplex over rationals, on sparse integer tableau rows.

Minimization form, variables implicitly nonnegative. Every row is stored the
same way, the reduced-cost row included: a `{column: int}` dict holding only
its nonzero entries, a positive integer multiple of the true row. The
right-hand side sits under the fixed key `_RHS`, so a tableau row's entry in
its basic column is the row's scale; the reduced-cost row holds minus the
objective there and its positive denominator under `_DEN`. Pivots are
fraction-free and sparse: only rows with a nonzero entry in the pivot column
change, each as p*row - f*prow over the pivot row's nonzeros, cleared in
place by `_eliminate`. Each pivot makes one pass over the tableau: the ratio
test, which cross-multiplies, collects the rows holding the entering column
as it goes, and `_pivot` updates exactly those. Scaling a row by a positive
number changes no sign and no ratio, so every decision is the one the
rational tableau makes, whatever multiple is stored.

One rule keeps the integers small: an update divides its row by the row's
content, the gcd of its entries, only once its first entry reaches
`_CONTENT_BOUND`. The content divides that entry, so it stays below the bound.

`solve_lp` takes integer costs and sparse `{column: int}` rows, each with its
own positive scale, which is also its slack's and artificial's coefficient,
and builds each tableau row whole from one: its ints, its rhs, then its slack
and its artificial. Slacks are numbered from n in row order, and artificials
after every slack. It returns each basic structural variable as (numerator,
scale) and the objective as (numerator, denominator), so a caller that works
in integers, as the oracle does, never builds a Fraction.

The entering rule is steepest Dantzig descent, ties to the smallest column,
until the objective stalls on degenerate pivots, at which point Bland's rule
takes over so cycling is impossible; the leaving rule always breaks ratio
ties toward the smallest basis index. Everything is index-deterministic, so
repeated solves are bit-identical.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Sequence

LESS, EQUAL, GREATER = "<=", "=", ">="

# Consecutive zero-progress pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 12
# An updated row whose first entry reaches this is divided by its content.
_CONTENT_BOUND = 1 << 64

# Fixed keys of a stored row, below every column, so no column numbering can
# move them: the right-hand side (minus the objective, in the reduced-cost
# row) and the reduced-cost row's positive denominator.
_RHS, _DEN = -1, -2


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> None:
    """Clear `row[col]` with the pivot row, whose entry there is positive, in
    place, leaving a positive multiple of the updated true row; divide it by
    its content only when its first entry has reached `_CONTENT_BOUND`."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    p //= g
    f //= g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in prow.items():
        if j in row:
            w = row[j] - f * v
            if w:
                row[j] = w
            else:
                del row[j]
        else:
            # f * v is nonzero, so no zero is ever stored.
            row[j] = -f * v
    # A row is never empty: a tableau row keeps its basic entry, the
    # reduced-cost row its denominator.
    if -_CONTENT_BOUND < next(iter(row.values())) < _CONTENT_BOUND:
        return
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _pivot(T: list, basis: list, red: dict, row: int, col: int, hits: list):
    """Pivot on `T[row][col]`; `hits` lists every row with an entry in `col`,
    the pivot row included, and only those rows change."""
    prow = T[row]
    if prow[col] < 0:
        for j in prow:
            prow[j] = -prow[j]
    for i in hits:
        if i != row:
            _eliminate(T[i], prow, col)
    if col in red:
        _eliminate(red, prow, col)
    basis[row] = col


def _run(T: list, basis: list, cost: dict) -> tuple[LpStatus, dict]:
    """Minimize the integer cost over the current basic feasible solution, in place."""
    red = {**cost, _DEN: 1}
    for i, bi in enumerate(basis):
        if bi in red:
            _eliminate(red, T[i], bi)
    stall = 0
    bland = False
    while True:
        # The fixed keys are negative, and only columns can enter.
        if bland:
            enter = min((j for j, v in red.items() if v < 0 <= j), default=-1)
        else:
            # The least (reduced cost, column) pair.
            enter, least = -1, 0
            for j, v in red.items():
                if v < 0 <= j and (v < least or v == least and j < enter):
                    enter, least = j, v
        if enter < 0:
            return LpStatus.OPTIMAL, red
        # One pass over the tableau: the rows holding the entering column,
        # which are all the pivot changes, and the ratio test over them.
        hits = []
        leave = -1
        for i, Ti in enumerate(T):
            a = Ti.get(enter)
            if a is None:
                continue
            hits.append(i)
            if a > 0:
                if leave < 0:
                    leave, num, dnm = i, Ti.get(_RHS, 0), a
                    continue
                b = Ti.get(_RHS, 0)
                lhs, cur = b * dnm, num * a
                if lhs < cur or (lhs == cur and basis[i] < basis[leave]):
                    leave, num, dnm = i, b, a
        if leave < 0:
            return LpStatus.UNBOUNDED, red
        if num == 0:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        _pivot(T, basis, red, leave, enter, hits)


def solve_lp(
    n: int, rows: Sequence[tuple[dict[int, int], str, int, int]], cost: dict[int, int]
) -> tuple[LpStatus, dict[int, tuple[int, int]] | None, tuple[int, int] | None]:
    """Minimize cost.x over x >= 0 subject to integer rows.

    `cost` holds the nonzero integer costs by column below n. Each row is
    `(coeffs, sense, rhs, scale)`: `coeffs` a `{column: int}` dict over
    columns below n, rhs >= 0, and the row is `coeffs op rhs` divided by its
    positive `scale`, which is also its slack's and artificial's coefficient.
    The rows are copied, never changed. Returns the status, then, when
    optimal, each basic structural variable as `{column: (numerator,
    scale)}`, every other one being zero, and the objective as `(numerator,
    denominator)`, neither pair reduced.
    """
    art_start = art = n + sum(s != EQUAL for _, s, _, _ in rows)
    slack = n
    T: list[dict[int, int]] = []
    basis: list[int] = []
    for coeffs, s, b, scale in rows:
        row = dict(coeffs)
        if b:
            row[_RHS] = b
        if s != EQUAL:
            row[slack] = scale if s == LESS else -scale
            slack += 1
        if s != LESS:
            row[art] = scale
            art += 1
        T.append(row)
        basis.append(slack - 1 if s == LESS else art - 1)

    if art > art_start:
        status, red = _run(T, basis, dict.fromkeys(range(art_start, art), 1))
        if status is not LpStatus.OPTIMAL:
            raise AssertionError("phase one is bounded below by zero")
        if _RHS in red:
            return LpStatus.INFEASIBLE, None, None
        # Clear leftover degenerate artificials from the basis, dropping rows
        # that turn out redundant, then discard the artificial columns.
        for i in range(len(T) - 1, -1, -1):
            if basis[i] < art_start:
                continue
            pivot_col = min((j for j in T[i] if 0 <= j < art_start), default=None)
            if pivot_col is None:
                del T[i]
                del basis[i]
            else:
                hits = [h for h, Th in enumerate(T) if pivot_col in Th]
                _pivot(T, basis, red, i, pivot_col, hits)
        T = [{j: v for j, v in row.items() if j < art_start} for row in T]

    status, red = _run(T, basis, cost)
    if status is LpStatus.UNBOUNDED:
        return status, None, None
    x = {bi: (T[i].get(_RHS, 0), T[i][bi]) for i, bi in enumerate(basis) if bi < n}
    return LpStatus.OPTIMAL, x, (-red.get(_RHS, 0), red[_DEN])
