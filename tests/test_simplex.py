import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import conftest
import listprivacy.oracle as oracle
import listprivacy.simplex as simplex
from listprivacy import exact_privacy
from listprivacy.simplex import GREATER, LESS, EQUAL, LpStatus, solve_lp
from conftest import (
    _lp_parts,
    dense_program,
    random_instance,
    random_rho,
    reference_solve_lp,
    reference_solve_rational,
    solve_rational,
    symbol_program,
)


class TestKnownPrograms:
    def test_small_maximization(self):
        # max 3x + 2y subject to x + y <= 4, x <= 2.
        sol = solve_rational(
            costs=[F(3), F(2)],
            rows=[[F(1), F(1)], [F(1), F(0)]],
            senses=[LESS, LESS],
            rhs=[F(4), F(2)],
            maximize=True,
        )
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == F(10)
        assert sol.x == (F(2), F(2))

    def test_equality_and_lower_bounds(self):
        # min x + 2y subject to x + y = 1, y >= 1/4.
        sol = solve_rational(
            costs=[F(1), F(2)],
            rows=[[F(1), F(1)], [F(0), F(1)]],
            senses=[EQUAL, GREATER],
            rhs=[F(1), F(1, 4)],
        )
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == F(5, 4)
        assert sol.x == (F(3, 4), F(1, 4))

    def test_negative_rhs_normalization(self):
        # x >= 1 written as -x <= -1.
        sol = solve_rational(
            costs=[F(1)],
            rows=[[F(-1)]],
            senses=[LESS],
            rhs=[F(-1)],
        )
        assert sol.status is LpStatus.OPTIMAL and sol.objective == F(1)

    def test_infeasible(self):
        sol = solve_rational(
            costs=[F(1)],
            rows=[[F(1)], [F(1)]],
            senses=[GREATER, LESS],
            rhs=[F(2), F(1)],
        )
        assert sol.status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        sol = solve_rational(
            costs=[F(-1)],
            rows=[[F(1)]],
            senses=[GREATER],
            rhs=[F(1)],
        )
        assert sol.status is LpStatus.UNBOUNDED

    def test_redundant_equalities_are_harmless(self):
        sol = solve_rational(
            costs=[F(1), F(1)],
            rows=[[F(1), F(1)], [F(1), F(1)], [F(2), F(2)]],
            senses=[EQUAL, EQUAL, EQUAL],
            rhs=[F(1), F(1), F(2)],
        )
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == F(1)

    def test_beale_cycling_example_terminates(self, monkeypatch):
        # The classic degenerate program that cycles under naive most-negative
        # pivoting; the stall counter must switch to lowest-index pivoting.
        # A cap on pivots turns a cycle into a failure instead of a hang.
        pivot = simplex._pivot
        pivots = []

        def capped(T, basis, red, row, col, *rest):
            pivots.append((row, col))
            if len(pivots) > 100:
                raise RuntimeError("over 100 pivots on Beale's example: the solver cycles")
            pivot(T, basis, red, row, col, *rest)

        monkeypatch.setattr(simplex, "_pivot", capped)
        sol = solve_rational(
            costs=[F(-3, 4), F(150), F(-1, 50), F(6)],
            rows=[
                [F(1, 4), F(-60), F(-1, 25), F(9)],
                [F(1, 2), F(-90), F(-1, 50), F(3)],
                [F(0), F(0), F(1), F(0)],
            ],
            senses=[LESS, LESS, LESS],
            rhs=[F(0), F(0), F(1)],
        )
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == F(-1, 20)

    def test_zero_constraint_program(self):
        sol = solve_rational(costs=[F(5)], rows=[], senses=[], rhs=[])
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == F(0) and sol.x == (F(0),)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_rational(costs=[F(1)], rows=[[F(1), F(2)]], senses=[LESS], rhs=[F(1)])
        with pytest.raises(ValueError):
            solve_rational(costs=[F(1)], rows=[[F(1)]], senses=["<"], rhs=[F(1)])


def random_program(rng: random.Random):
    """A small program mixing every row shape the solver normalizes.

    Rows are `<=`, `=` or `>=`, with zero, duplicated (possibly rescaled or
    negated) and degenerate zero-rhs rows, negative rhs and rational
    coefficients; about two in five programs maximize.
    """
    n = rng.randint(1, 6)

    def coef():
        u = rng.random()
        if u < 0.35:
            return F(0)
        if u < 0.7:
            return F(rng.randint(-4, 6))
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    rows, senses, rhs = [], [], []
    for _ in range(rng.randint(0, 7)):
        u = rng.random()
        if rows and u < 0.12:
            j = rng.randrange(len(rows))
            c = rng.choice([F(1), F(2), F(-1), F(1, 3)])
            rows.append([c * v for v in rows[j]])
            senses.append(senses[j] if c > 0 else flip[senses[j]])
            rhs.append(c * rhs[j])
            continue
        rows.append([F(0)] * n if u < 0.18 else [coef() for _ in range(n)])
        senses.append(rng.choice([LESS, LESS, EQUAL, GREATER]))
        rhs.append(F(0) if rng.random() < 0.25 else coef())
    return [coef() for _ in range(n)], rows, senses, rhs, rng.random() < 0.4


@pytest.fixture
def same_solution(pivot_log):
    """Solve with both solvers; require the same answer and the same pivots."""
    integer = pivot_log(simplex, "_pivot")
    reference = pivot_log(conftest, "_reference_pivot")

    def check(costs, rows, senses, rhs, maximize=False):
        integer.clear()
        reference.clear()
        got = solve_rational(costs, rows, senses, rhs, maximize=maximize)
        want = reference_solve_rational(costs, rows, senses, rhs, maximize=maximize)
        assert (got.status, got.objective, got.x) == (want.status, want.objective, want.x)
        assert integer == reference
        return got

    return check


def scaled_rows(rng: random.Random, costs, rows, senses, rhs, maximize):
    """A `random_program` as `solve_lp` takes it: each row negated when its
    rhs is negative, then written as ints over the lcm of its denominators
    times a random factor, which is its scale, and the costs as ints over the
    lcm of theirs."""
    flip = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}
    out = []
    for row, s, b in zip(rows, senses, rhs):
        if b < 0:
            row, s, b = [-v for v in row], flip[s], -b
        scale = math.lcm(*(v.denominator for v in (*row, b))) * rng.randint(1, 5)
        coeffs = {j: int(v * scale) for j, v in enumerate(row) if v}
        out.append((coeffs, s, int(b * scale), scale))
    den = math.lcm(*(c.denominator for c in costs))
    sign = -1 if maximize else 1
    cost = {j: int(c * den) * sign for j, c in enumerate(costs) if c}
    return len(costs), out, cost


class TestIntegerCore:
    """`solve_lp` on rows of any positive scale against the dense reference."""

    def test_random_scaled_programs(self, pivot_log):
        integer = pivot_log(simplex, "_pivot")
        reference = pivot_log(conftest, "_reference_pivot")
        rng = random.Random(62)
        seen = dict.fromkeys(LpStatus, 0)
        for _ in range(1200):
            program = scaled_rows(rng, *random_program(rng))
            integer.clear()
            reference.clear()
            status, x, objective = solve_lp(*program)
            want_status, want_x, want_objective = reference_solve_lp(*program)
            seen[status] += 1
            assert status is want_status
            if status is LpStatus.OPTIMAL:
                # Basic variables may sit at zero, and their pairs are not reduced.
                assert {j: F(*v) for j, v in x.items() if v[0]} == {
                    j: F(*v) for j, v in want_x.items()
                }
                assert F(*objective) == F(*want_objective)
            else:
                assert x is None and objective is None
            assert integer == reference
        assert min(seen.values()) >= 200

    def test_rows_are_left_as_given(self):
        # max x + y subject to x/3 + y/2 <= 1 and x >= 1/5: x = 3, y = 0.
        # The oracle hands the same row objects to every round's solve.
        rows = [({0: 2, 1: 3}, LESS, 6, 6), ({0: 5}, GREATER, 1, 5)]
        status, x, objective = solve_lp(2, rows, {0: -1, 1: -1})
        assert status is LpStatus.OPTIMAL
        assert F(*objective) == F(-3)
        assert {j: F(*v) for j, v in x.items() if v[0]} == {0: F(3)}
        assert rows == [({0: 2, 1: 3}, LESS, 6, 6), ({0: 5}, GREATER, 1, 5)]


class TestAgainstDenseReference:
    """The integer tableau against the dense-Fraction reference solver."""

    def test_random_programs(self, same_solution):
        rng = random.Random(61)
        seen = dict.fromkeys(LpStatus, 0)
        for _ in range(2400):
            seen[same_solution(*random_program(rng)).status] += 1
        # Every outcome is exercised, not only the easy one.
        assert min(seen.values()) >= 400

    def test_cleanup_pivots_on_a_negative_entry(self, same_solution, monkeypatch):
        # -2y - 3/4 z >= 0 forces y = z = 0, so phase one ends with its
        # artificial basic at zero, and the cleanup pivots it out on y's
        # entry, -2: the stored row must flip sign to keep its scale positive.
        negative = []
        pivot = simplex._pivot

        def spy(T, basis, red, row, col, *rest):
            negative.append(T[row][col] < 0)
            pivot(T, basis, red, row, col, *rest)

        monkeypatch.setattr(simplex, "_pivot", spy)
        sol = same_solution(
            costs=[F(-1), F(-1), F(0)],
            rows=[[F(0), F(-2), F(-3, 4)], [F(1), F(1), F(1)]],
            senses=[GREATER, LESS],
            rhs=[F(0), F(4)],
        )
        assert any(negative)
        assert sol.objective == F(-4) and sol.x == (F(4), F(0), F(0))

    def test_large_coprime_denominators(self, same_solution):
        primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        assert len(primes) == 30
        n = len(primes)
        # x_j <= 1, the sum of x_j / p_j <= 1 and costs -c_j/p_j: one vertex
        # coordinate of the optimum has a 26-digit denominator.
        rows = [[F(1, p) for p in primes]]
        rhs = [F(1)]
        for j in range(n):
            rows.append([F(int(i == j)) for i in range(n)])
            rhs.append(F(1))
        costs = [F(-1, p) * (j % 3 + 1) for j, p in enumerate(primes)]
        sol = same_solution(costs, rows, [LESS] * len(rows), rhs)
        assert sol.status is LpStatus.OPTIMAL
        assert sum(F(1, p) * v for p, v in zip(primes, sol.x)) <= 1
        assert max(v.denominator for v in sol.x) > 10**25
        rng = random.Random(62)
        for _ in range(20):
            k = rng.randint(2, 6)
            picked = rng.sample(primes, 2 * k)
            rows = [[F(rng.randint(-3, 5), p) for p in picked[:k]] for _ in range(k)]
            rhs = [F(rng.randint(-5, 5), p) for p in picked[k:]]
            costs = [F(rng.randint(-4, 4), rng.choice(primes)) for _ in range(k)]
            senses = [rng.choice([LESS, EQUAL, GREATER]) for _ in range(k)]
            same_solution(costs, rows, senses, rhs, maximize=rng.random() < 0.5)

    def test_ints_floats_and_strings(self, same_solution):
        # Anything Fraction() accepts is a coefficient; the reference turns
        # every value into Fraction(v), the integer solver only non-ints.
        programs = [
            ([3, 2], [[1, 1], [1, 0]], [LESS, LESS], [4, 2], True),
            ([1.5, -0.25], [[0.5, 1], [1, -2.0], [0, 1]], [GREATER, LESS, LESS], [1, 0.75, 3], False),
            (["3/4", "-1"], [["1/2", "1"], ["1", "0"]], [LESS, EQUAL], ["5/3", "1/7"], True),
            ([1, "2", 0.5], [[1, "-1/3", 0.25], [0, 1, "1e-3"]], [EQUAL, GREATER], ["1", 2], False),
        ]
        for costs, rows, senses, rhs, maximize in programs:
            got = same_solution(costs, rows, senses, rhs, maximize)
            assert got.status is LpStatus.OPTIMAL
            assert type(got.objective) is F and all(type(v) is F for v in got.x)


def wide_instance(rng: random.Random):
    """A random instance with 6 <= r <= 8, 3 <= k <= 4 and l <= 2."""
    while True:
        inst = random_instance(rng, r_max=8, k_max=4, l_max=2)
        if inst.r >= 6 and inst.k >= 3:
            return inst


def oracle_program(rng: random.Random, inst, rho):
    """The oracle's rows for one to three random l-lists per output."""
    every = list(combinations(range(inst.r), inst.l))
    lists = [rng.sample(every, rng.randint(1, 3)) for _ in range(inst.k)]
    costs, rows, senses, rhs = _lp_parts(inst, rho, lists)
    return costs, rows, senses, rhs


def with_redundant_rows(rng: random.Random, program):
    """Append copies of one or two equality rows, some rescaled: rows the
    phase-one cleanup must delete. Returns the program and the copy count."""
    costs, rows, senses, rhs = program
    equal = [i for i, s in enumerate(senses) if s == EQUAL]
    picked = rng.sample(equal, rng.randint(1, 2))
    for i in picked:
        c = rng.choice([1, 2, F(1, 3)])
        rows = rows + [[c * v for v in rows[i]]]
        senses = senses + [EQUAL]
        rhs = rhs + [c * rhs[i]]
    return (costs, rows, senses, rhs), len(picked)


def zero_share(rows) -> float:
    return sum(v == 0 for row in rows for v in row) / sum(len(row) for row in rows)


class TestSparseRows:
    """Oracle-shaped and compact-shaped programs: wide rows, mostly zeros."""

    @pytest.fixture
    def stored(self, monkeypatch):
        """Check around every pivot that each stored row, the reduced-cost row
        included, holds only nonzeros, and that the rows handed to `_pivot`
        are exactly those holding the pivot column, and record the row count
        each `_run` phase starts with."""
        pivots = []
        phases = []
        pivot = simplex._pivot
        run = simplex._run

        def nonzero_only(T, red):
            assert all(type(row) is dict and 0 not in row.values() for row in (*T, red))
            # Columns, then the fixed keys: the rhs and a positive denominator.
            assert all(j >= 0 or j in (simplex._RHS, simplex._DEN) for j in red)
            assert red[simplex._DEN] > 0

        def spy(T, basis, red, row, col, hits, *rest):
            nonzero_only(T, red)
            assert hits == [i for i, Ti in enumerate(T) if col in Ti]
            pivot(T, basis, red, row, col, hits, *rest)
            nonzero_only(T, red)
            pivots.append((row, col))

        def count(T, basis, cost):
            phases.append(len(T))
            return run(T, basis, cost)

        monkeypatch.setattr(simplex, "_pivot", spy)
        monkeypatch.setattr(simplex, "_run", count)
        return pivots, phases

    def test_oracle_programs(self, same_solution, stored):
        pivots, phases = stored
        rng = random.Random(81)
        for _ in range(30):
            inst = wide_instance(rng)
            rho = random_rho(rng) if rng.random() < 0.8 else F(0)
            program, copies = with_redundant_rows(rng, oracle_program(rng, inst, rho))
            assert zero_share(program[1]) >= 0.85
            phases.clear()
            sol = same_solution(*program)
            assert sol.status is LpStatus.OPTIMAL
            # Phase two starts without the copies.
            assert phases[-1] <= len(program[1]) - copies
        assert len(pivots) > 400

    @pytest.fixture
    def tableaux(self, monkeypatch):
        """Record both solvers' tableaux after every pivot as rational rows:
        each stored row divided by its entry in its basic column, the
        reduced-cost row by its denominator, and the dense reference rows with
        their zeros left out and their rhs under `_RHS`."""
        integer, reference = [], []
        pivot, reference_pivot = simplex._pivot, conftest._reference_pivot

        def spy(T, basis, red, row, col, *rest):
            pivot(T, basis, red, row, col, *rest)
            den = red[simplex._DEN]
            integer.append(
                [{j: F(v, Ti[bi]) for j, v in Ti.items()} for Ti, bi in zip(T, basis)]
                + [{j: F(v, den) for j, v in red.items() if j != simplex._DEN}]
            )

        def sparse(row):
            out = {j: v for j, v in enumerate(row[:-1]) if v}
            if row[-1]:
                out[simplex._RHS] = row[-1]
            return out

        def reference_spy(T, basis, red, row, col):
            reference_pivot(T, basis, red, row, col)
            reference.append([sparse(Ti) for Ti in T] + [sparse(red)])

        monkeypatch.setattr(simplex, "_pivot", spy)
        monkeypatch.setattr(conftest, "_reference_pivot", reference_spy)
        return integer, reference

    def test_rows_are_positive_multiples_of_the_true_rows(self, same_solution, tableaux):
        # Pivots rest on this alone: every stored row, the reduced-cost row
        # included, is a positive multiple of the rational tableau's row.
        integer, reference = tableaux
        rng = random.Random(81)
        pivots = 0
        for _ in range(30):
            inst = wide_instance(rng)
            rho = random_rho(rng) if rng.random() < 0.8 else F(0)
            program, _ = with_redundant_rows(rng, oracle_program(rng, inst, rho))
            integer.clear()
            reference.clear()
            same_solution(*program)
            assert integer == reference
            pivots += len(integer)
        assert pivots > 400

    @pytest.mark.parametrize("sense", [GREATER, LESS])
    def test_symbol_programs(self, same_solution, stored, sense):
        # The compact program over symbols keeps its stochastic rows, so it
        # takes the redundant copies; its optimum is the oracle's.
        pivots, phases = stored
        rng = random.Random(82)
        for _ in range(6):
            inst = wide_instance(rng)
            rho = random_rho(rng)
            optimum = exact_privacy(inst, rho).optimum
            program = symbol_program(inst, rho, sense)
            assert zero_share(program[1]) >= 0.85
            if rng.random() < 0.5:
                program, copies = with_redundant_rows(rng, program)
            else:
                copies = 0
            phases.clear()
            sol = same_solution(*program)
            assert phases[-1] <= len(program[1]) - copies
            assert 1 - sol.objective == optimum
        assert len(pivots) > 200

    def test_class_programs(self, same_solution, stored, solves):
        # The program `exact_privacy` hands the core, as it hands it,
        # densified, with the objective the core returned on it: the dense
        # reference must reach that objective, whatever privacy the oracle
        # reads from it.
        pivots, _ = stored
        rng = random.Random(82)
        solved = 0
        # Settled classes leave small programs, so the pivots come from 12 instances.
        for _ in range(12):
            inst = wide_instance(rng)
            rho = random_rho(rng)
            solves.clear()
            exact_privacy(inst, rho)
            ((n, rows, cost, answer),) = solves
            program, objective = dense_program(n, rows, cost), F(*answer[2])
            if None in oracle._settled(inst, rho):
                assert zero_share(program[1]) >= 0.85
            else:
                # Every class settled: each row is u(f) - y(c) <= p rho, two
                # nonzeros however wide the program.
                assert all(sum(v != 0 for v in row) == 2 for row in program[1])
            pivots.clear()
            assert same_solution(*program).objective == objective
            solved += len(pivots)
        assert solved > 80

    def test_zeros_of_every_type_are_dropped(self, same_solution, stored):
        # "0" is a truthy string and 0.0 a float: both must be read as zero.
        pivots, _ = stored
        zeros = [0, F(0), 0.0, "0", "0/7", "-0.0", "0e5"]
        rows = [
            [1, zeros[1], "1/2", zeros[2]],
            [zeros[3], 2, zeros[4], "3/4"],
            ["1", zeros[5], zeros[6], 1],
        ]
        costs = [zeros[3], -1, "-1/3", zeros[0]]
        sol = same_solution(costs, rows, [LESS, EQUAL, GREATER], [4, "1", "0"])
        assert sol.status is LpStatus.OPTIMAL
        assert pivots


def degenerate_program(rng: random.Random, n=25, m=40):
    """`solve_lp` rows for a program that pivots long at the origin: m rows
    `a.x <= 0` with three to six entries of size at most 3 each, then
    `sum(x) <= 1`, and costs from -5 to 1. Pivots on zero-rhs rows run long
    and their multipliers stay small."""
    rows = []
    for _ in range(m):
        columns = rng.sample(range(n), rng.randint(3, 6))
        rows.append(({j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in columns}, LESS, 0, 1))
    rows.append((dict.fromkeys(range(n), 1), LESS, 1, 1))
    cost = {j: c for j in range(n) if (c := rng.randint(-5, 1))}
    return n, rows, cost


class TestContentBound:
    """`_eliminate` divides a row by its content only once its first entry
    reaches `_CONTENT_BOUND`; the content divides that entry, so it stays
    below the bound, and every entry below the bound times its entry in the
    primitive row."""

    @pytest.fixture
    def solve(self, pivot_log, monkeypatch):
        """Solve a program with `solve_lp` and the reference, checking after
        every pivot that each stored entry, the reduced-cost row's included,
        is under its bound; return the pivots, the longest run of pivots on
        zero-rhs rows and the largest content of any stored row. Past 1,000
        pivots the solver is cycling, and the solve fails instead of hanging."""
        reference = pivot_log(conftest, "_reference_pivot")
        pivot = simplex._pivot

        def run(program):
            pivots, runs, contents = [], [0], [1]

            def spy(T, basis, red, row, col, *rest):
                pivots.append((row, col))
                if len(pivots) > 1000:
                    raise RuntimeError("over 1,000 pivots: the solver cycles")
                runs.append(runs[-1] + 1 if simplex._RHS not in T[row] else 0)
                pivot(T, basis, red, row, col, *rest)
                for stored in (*T, red):
                    g = math.gcd(*stored.values())
                    contents.append(g)
                    for v in stored.values():
                        assert abs(v) < simplex._CONTENT_BOUND * abs(v // g)

            monkeypatch.setattr(simplex, "_pivot", spy)
            reference.clear()
            status, x, objective = solve_lp(*program)
            want_status, want_x, want_objective = reference_solve_lp(*program)
            assert status is want_status is LpStatus.OPTIMAL
            assert {j: F(*v) for j, v in x.items() if v[0]} == {j: F(*v) for j, v in want_x.items()}
            assert F(*objective) == F(*want_objective)
            assert pivots == reference
            return pivots, max(runs), max(contents)

        return run

    def test_degenerate_program(self, solve, monkeypatch):
        program = degenerate_program(random.Random(7))
        pivots, zero_run, content = solve(program)
        # The run of zero-rhs pivots reaches the stall limit, written out so
        # that it does not move with the solver's; past it the entering rule
        # is Bland's.
        assert len(pivots) >= 60 and zero_run >= 12
        assert content < simplex._CONTENT_BOUND
        # With the bound out of reach the same pivots leave a content past
        # it: a solver that never reduced would fail the checks above.
        monkeypatch.setattr(simplex, "_CONTENT_BOUND", 1 << 4096)
        assert solve(program)[2] > 1 << 64


class TestAgainstScipy:
    def test_random_inequality_programs(self):
        scipy_linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = rng.randint(2, 6)
            rows = [[F(rng.randint(0, 6)) for _ in range(n)] for _ in range(m)]
            # Box rows keep the program bounded in every direction.
            for j in range(n):
                box = [F(0)] * n
                box[j] = F(1)
                rows.append(box)
            rhs = [F(rng.randint(1, 12)) for _ in range(m)] + [F(3)] * n
            costs = [F(rng.randint(0, 9)) for _ in range(n)]
            senses = [LESS] * len(rows)
            sol = solve_rational(costs, rows, senses, rhs, maximize=True)
            assert sol.status is LpStatus.OPTIMAL
            res = scipy_linprog(
                [-float(c) for c in costs],
                A_ub=[[float(v) for v in row] for row in rows],
                b_ub=[float(b) for b in rhs],
                method="highs",
            )
            assert res.status == 0
            assert abs(float(sol.objective) - (-res.fun)) <= 1e-9
            # The returned point must itself be feasible and attain the value.
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, sol.x)) <= b
            assert sum(c * v for c, v in zip(costs, sol.x)) == sol.objective

    def test_random_mixed_sense_programs(self):
        scipy_linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(42)
        for _ in range(20):
            n = rng.randint(2, 4)
            base = [F(rng.randint(0, 4)) for _ in range(n)]
            rows = []
            senses = []
            rhs = []
            for _ in range(rng.randint(1, 3)):
                row = [F(rng.randint(0, 5)) for _ in range(n)]
                rows.append(row)
                senses.append(EQUAL)
                rhs.append(sum(a * v for a, v in zip(row, base)))
            for j in range(n):
                box = [F(0)] * n
                box[j] = F(1)
                rows.append(box)
                senses.append(LESS)
                rhs.append(F(rng.randint(5, 9)))
            costs = [F(rng.randint(-4, 9)) for _ in range(n)]
            sol = solve_rational(costs, rows, senses, rhs)
            assert sol.status is LpStatus.OPTIMAL
            a_eq = [[float(v) for v in row] for row, s in zip(rows, senses) if s == EQUAL]
            b_eq = [float(b) for b, s in zip(rhs, senses) if s == EQUAL]
            a_ub = [[float(v) for v in row] for row, s in zip(rows, senses) if s == LESS]
            b_ub = [float(b) for b, s in zip(rhs, senses) if s == LESS]
            res = scipy_linprog(
                [float(c) for c in costs],
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                method="highs",
            )
            assert res.status == 0
            assert abs(float(sol.objective) - res.fun) <= 1e-9
