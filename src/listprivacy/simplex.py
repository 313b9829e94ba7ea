"""Exact two-phase simplex over rationals, on sparse integer tableau rows.

Minimization form, variables implicitly nonnegative. Every row is stored the
same way, the reduced-cost row included: a `{column: int}` dict holding only
its nonzero entries, a positive integer multiple of the true row divided by
the gcd of its entries. The right-hand side sits under the fixed key `_RHS`,
so a tableau row's entry in its basic column is the row's scale; the
reduced-cost row holds minus the objective there and its positive
denominator under `_DEN`. Pivots are fraction-free and sparse: only rows with
a nonzero entry in the pivot column change, each as p*row - f*prow over the
pivot row's nonzeros, cleared in place by `_eliminate`, and the ratio test
cross-multiplies. Scaling a row by a positive number changes no sign and no
ratio, so every decision is the one the rational tableau makes.

There is one solve path. `solve_lp` is the rational intake: it writes each
row as ints with `core.over_common_denominator`, makes its rhs nonnegative,
and hands the rows to the integer core `solve_rows`, whose answer it wraps
in Fractions. The core takes sparse `{column: int}` rows, each with its own
positive scale, which is also its slack's and artificial's coefficient, and
builds each tableau row whole from one: its ints, its rhs, then its slack
and its artificial. Slacks are numbered from n in row order, and
artificials after every slack. It returns each basic structural variable as
(numerator, scale) and the objective as (numerator, denominator), so a
caller that works in integers, as the oracle does, never builds a Fraction.

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

from .core import over_common_denominator

LESS, EQUAL, GREATER = "<=", "=", ">="

# Consecutive zero-progress pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 12

# Fixed keys of a stored row, below every column, so no column numbering can
# move them: the right-hand side (minus the objective, in the reduced-cost
# row) and the reduced-cost row's positive denominator.
_RHS, _DEN = -1, -2


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
    """The nonzero values by index, as ints over the lcm of their denominators,
    and that lcm; a value other than an int or a Fraction is read by `Fraction()`."""
    nonzero = {}
    for j, v in enumerate(values):
        v = v if isinstance(v, (int, Fraction)) else Fraction(v)
        if v:
            nonzero[j] = v
    ints, den = over_common_denominator(list(nonzero.values()))
    return dict(zip(nonzero, ints)), den


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> None:
    """Clear `row[col]` with the pivot row, whose entry there is positive, in
    place, then divide the row by the gcd of its entries."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    p //= g
    f //= g
    if p != 1:
        for j in row:
            row[j] *= p
    get = row.get
    for j, v in prow.items():
        # f * v is nonzero, so a zero result means j was stored in row.
        w = get(j, 0) - f * v
        if w:
            row[j] = w
        else:
            del row[j]
    # Pairwise, stopping once the gcd reaches 1: math.gcd(*row.values())
    # would build a tuple of the whole row on every update.
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _pivot(T: list, basis: list, red: dict, row: int, col: int):
    prow = T[row]
    if prow[col] < 0:
        for j in prow:
            prow[j] = -prow[j]
    for i, Ti in enumerate(T):
        if i != row and col in Ti:
            _eliminate(Ti, prow, col)
    if col in red:
        _eliminate(red, prow, col)
    basis[row] = col


def _run(T: list, basis: list, cost: dict, den: int) -> tuple[LpStatus, dict]:
    """Minimize cost/den over the current basic feasible solution, in place."""
    red = {**cost, _DEN: den}
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
            best = min(((v, j) for j, v in red.items() if v < 0 <= j), default=None)
            enter = -1 if best is None else best[1]
        if enter < 0:
            return LpStatus.OPTIMAL, red
        leave = -1
        for i, Ti in enumerate(T):
            a = Ti.get(enter, 0)
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
        _pivot(T, basis, red, leave, enter)


def solve_rows(
    n: int, cost: dict[int, int], den: int, rows: Sequence[tuple[dict[int, int], str, int, int]]
) -> tuple[LpStatus, dict[int, tuple[int, int]] | None, tuple[int, int] | None]:
    """Minimize cost/den over x >= 0 subject to integer rows: the core of `solve_lp`.

    `cost` holds the nonzero cost numerators over `den` > 0, by column below
    n. Each row is `(coeffs, sense, rhs, scale)`: `coeffs` a `{column: int}`
    dict over columns below n, rhs >= 0, and the row is `coeffs op rhs` divided
    by its positive `scale`, which is also its slack's and artificial's
    coefficient. The rows are copied, never changed. Returns the status, then,
    when optimal, each basic structural variable as `{column: (numerator,
    scale)}`, every other one being zero, and the objective as `(numerator,
    denominator)`.
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
        status, red = _run(T, basis, dict.fromkeys(range(art_start, art), 1), 1)
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
                _pivot(T, basis, red, i, pivot_col)
        T = [{j: v for j, v in row.items() if j < art_start} for row in T]

    status, red = _run(T, basis, cost, den)
    if status is LpStatus.UNBOUNDED:
        return status, None, None
    x = {bi: (T[i].get(_RHS, 0), T[i][bi]) for i, bi in enumerate(basis) if bi < n}
    return LpStatus.OPTIMAL, x, (-red.get(_RHS, 0), red[_DEN])


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
    cost = {j: v * sign for j, v in nonzero.items()}

    # Each row as ints over the lcm of its denominators, which is its scale; a
    # row with a negative rhs is negated and its sense flipped.
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

    status, basic, objective = solve_rows(n, cost, c_den, int_rows)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status=status, objective=None, x=None)
    x = [Fraction(0)] * n
    for j, (num, scale) in basic.items():
        x[j] = Fraction(num, scale)
    return LpSolution(status=status, objective=Fraction(*objective) * sign, x=tuple(x))
