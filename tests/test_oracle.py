import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from listprivacy import (
    StochasticMatrix,
    active_lists,
    exact_privacy,
    exact_privacy_curve,
    is_recoverable,
    list_privacy,
    lp_text,
    privacy_at_zero,
    privacy_bound,
    privacy_curve,
)
import conftest
import listprivacy.oracle as oracle
import listprivacy.simplex as simplex
from listprivacy.catalog import instance as catalog_instance
from listprivacy.cli import main
from listprivacy.core import Instance, instance_to_text
from listprivacy.errors import (
    DimensionMismatch,
    InstanceFormatError,
    InstanceTooLarge,
    RhoOutOfRange,
)
from listprivacy.oracle import OracleResult, lp_lines
from conftest import (
    _lp_parts,
    dense_program,
    random_instance,
    random_rho,
    reference_exact_privacy,
    reference_solve_lp,
    seeded_instance,
    solve_rational,
    symbol_program,
)

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
TERNARY5 = catalog_instance("ternary5")
CATALOG = (SKEW7, UNIFORM4, TERNARY5)
CATALOG_LEVELS = tuple(
    F(v) for v in ("0", "1/10", "1/5", "3/10", "1/3", "2/5", "1/2", "3/5", "7/10", "3/4", "4/5", "9/10", "1")
)


def logged(solve, log: list, pivots: list):
    """`solve_lp`, appending each call's row count and the pivots it logged to `log`."""

    def run(n, rows, cost):
        start = len(pivots)
        result = solve(n, rows, cost)
        log.append((len(rows), pivots[start:]))
        return result

    return run


def recorded(solve, programs: list):
    """`solve_rational`, appending each call's program to `programs`."""

    def run(costs, rows, senses, rhs):
        programs.append((costs, rows, senses, rhs))
        return solve(costs, rows, senses, rhs)

    return run


class TestFrozenValues:
    def test_skew7_interior_point(self):
        result = exact_privacy(SKEW7, F(7, 10))
        assert result.optimum == F(63, 200)
        assert result.optimum == privacy_bound(SKEW7, F(7, 10))

    def test_ternary5_interior_point(self):
        result = exact_privacy(TERNARY5, F(3, 4))
        assert result.optimum == F(1, 4)

    def test_zero_level_keeps_every_entry_nonnegative(self):
        # At rho = 0 the recover row still bounds each class's other entries
        # by 1: without it this solve's vertex gives a row a negative entry.
        pmf = tuple(F(w, 74) for w in (9, 5, 5, 7, 8, 11, 10, 9, 10))
        inst = Instance(pmf=pmf, f=(0, 0, 0, 1, 1, 1, 1, 0, 0), l=6)
        assert exact_privacy(inst, F(0)).optimum == privacy_at_zero(inst) == F(17, 74)

    def test_low_rho_equals_mass_outside_global_top(self):
        rng = random.Random(51)
        for _ in range(8):
            inst = random_instance(rng, r_max=6, k_max=3, l_max=2)
            for rho in (F(0), F(1, inst.k)):
                assert exact_privacy(inst, rho).optimum == privacy_at_zero(inst)


class TestCertificates:
    def test_witness_is_checked_against_its_own_value(self):
        rng = random.Random(52)
        for _ in range(6):
            inst = random_instance(rng, r_max=6, k_max=3, l_max=2)
            rho = F(rng.randint(0, 8), 8)
            result = exact_privacy(inst, rho)
            assert is_recoverable(result.witness, inst, rho)
            assert list_privacy(inst, result.witness).privacy == result.optimum

    def test_witness_read_checks_the_optimum(self):
        result = OracleResult(optimum=F(1, 3), inst=SKEW7, rho=F(7, 10))
        with pytest.raises(AssertionError, match="cutting planes reach 63/200"):
            result.witness

    def test_compact_witness_must_be_recoverable(self, solves, monkeypatch):
        # A solve that answers the rho = 0 program: its witness certifies that
        # program's optimum, 3/20, but recovers at 1/2, below 9/10, where the
        # optimum is 1/20. With lists of 5 no output of skew7 has 5 symbols,
        # so no class settles and every level's program has the same columns.
        inst = SKEW7.with_list_size(5)
        assert exact_privacy(inst, F(0)).optimum == F(3, 20)
        assert exact_privacy(inst, F(9, 10)).optimum == F(1, 20)
        assert set(oracle._settled(inst, F(9, 10))) == {None}
        monkeypatch.setattr(oracle, "solve_lp", lambda *args: solves[0][3])
        with pytest.raises(AssertionError, match="recovers at 1/2, below rho = 9/10"):
            exact_privacy(inst, F(9, 10))

    def test_loop_witness_must_be_recoverable(self, monkeypatch):
        # A loop whose solves drop the recover rows answers the rho = 0
        # program, whose witness certifies its own optimum.
        solve = oracle.solve_lp

        def loose(n, rows, cost):
            return solve(n, [row for row in rows if row[1] != simplex.GREATER], cost)

        monkeypatch.setattr(oracle, "solve_lp", loose)
        with pytest.raises(AssertionError, match="below rho = 9/10"):
            oracle._cutting_plane(SKEW7, F(9, 10))

    def test_active_lists_attain_per_output_mass(self):
        result = exact_privacy(SKEW7, F(7, 10))
        report = list_privacy(SKEW7, result.witness)
        lists = active_lists(SKEW7, result.witness)
        for i in range(SKEW7.k):
            assert report.estimator.lists[i] in lists[i]
            for members in lists[i]:
                mass = sum(SKEW7.pmf[x] * result.witness.entry(x, i) for x in members)
                assert mass == report.per_output_mass[i]

    def test_add_noise_flag_matches_witness_shape(self, capsys, tmp_path):
        rng = random.Random(53)
        for n in range(6):
            inst = random_instance(rng, r_max=5, k_max=3, l_max=2)
            path = tmp_path / f"inst{n}.json"
            path.write_text(instance_to_text(inst))
            assert main(["oracle", str(path), "--rho", "3/5"]) == 0
            payload = json.loads(capsys.readouterr().out)
            rows = payload["witness"]
            shaped = all(rows[x] == rows[block[0]] for block in inst.preimages for x in block)
            assert payload["witness_is_add_noise"] == shaped

    def test_active_lists_need_the_instance_shape(self):
        witness = exact_privacy(UNIFORM4, F(1, 2)).witness
        for rows in (witness.rows[:-1], tuple(row + (F(0),) for row in witness.rows)):
            with pytest.raises(DimensionMismatch):
                active_lists(UNIFORM4, StochasticMatrix(rows=rows))


class TestCurve:
    def test_matches_envelope_at_breakpoints_and_midpoints(self):
        for inst in (UNIFORM4, TERNARY5):
            curve = privacy_curve(inst)
            grid_points = sorted(set(curve.breakpoints) | {F(0), F(1)})
            mids = [
                (a + b) / 2 for a, b in zip(grid_points, grid_points[1:])
            ]
            rhos = sorted(set(grid_points) | set(mids))
            results = exact_privacy_curve(inst, rhos)
            for (rho, res), wanted in zip(results, rhos):
                assert rho == wanted
                assert res.optimum == curve.value_at(rho)

    def test_grid_must_be_a_sequence(self):
        for grid in (5, F(1, 2), "1/2", {F(0), F(1)}, (F(j, 4) for j in range(5))):
            with pytest.raises(InstanceFormatError):
                exact_privacy_curve(UNIFORM4, grid)

    def test_convex_or_increasing_values_are_refused(self, monkeypatch):
        # Any list order, repeated levels included: the checks run on the
        # distinct levels in ascending order.
        for table, message in (
            ({F(0): F(1, 2), F(1, 2): F(1, 2), F(1): F(1, 4)}, None),
            ({F(0): F(1), F(1, 2): F(1, 4), F(1): F(0)}, "not concave"),
            ({F(0): F(1, 2), F(1, 2): F(1, 2), F(3, 4): F(1, 4), F(1): F(1, 8)}, "not concave"),
            ({F(0): F(1, 4), F(1, 2): F(1, 2), F(1): F(1, 4)}, "increased"),
        ):
            monkeypatch.setattr(
                oracle,
                "exact_privacy",
                lambda inst, rho: OracleResult(optimum=table[rho], inst=inst, rho=rho),
            )
            grid = sorted(table, reverse=True) + [F(1, 2)]
            if message is None:
                values = [res.optimum for _, res in exact_privacy_curve(UNIFORM4, grid)]
                assert values == [table[rho] for rho in grid]
            else:
                with pytest.raises(AssertionError, match=message):
                    exact_privacy_curve(UNIFORM4, grid)

    def test_nonincreasing_in_rho(self):
        rng = random.Random(54)
        inst = random_instance(rng, r_max=6, k_max=3, l_max=2)
        rhos = [F(j, 6) for j in range(7)]
        values = [res.optimum for _, res in exact_privacy_curve(inst, rhos)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def every_list(inst):
    """Every l-list for every output: the full program's list rows."""
    return [tuple(combinations(range(inst.r), inst.l))] * inst.k


class TestAgainstFullProgram:
    """Cutting planes against the program with all k * C(r, l) list rows."""

    def test_optimum_and_active_lists(self):
        rng = random.Random(57)
        for _ in range(40):
            inst = random_instance(rng, r_max=7, k_max=3, l_max=3)
            for rho in (F(2, 5), F(3, 5), F(4, 5)):
                result = exact_privacy(inst, rho)
                costs, rows, senses, rhs = _lp_parts(inst, rho, every_list(inst))
                assert result.optimum == 1 - solve_rational(costs, rows, senses, rhs).objective
                # Brute-force reference: filter every l-list by its mass.
                best = list_privacy(inst, result.witness).per_output_mass
                lists = active_lists(inst, result.witness)
                for i in range(inst.k):
                    assert lists[i] == tuple(
                        lst
                        for lst in combinations(range(inst.r), inst.l)
                        if sum(inst.pmf[x] * result.witness.rows[x][i] for x in lst) == best[i]
                    )

    def test_dense_reference_solver_gives_the_same_answers(self, monkeypatch):
        # The witness is printed by `oracle --rho`, so the integer solver must
        # land on the reference solver's vertex in every cutting-plane round.
        # Each round's program is recorded on the reference loop, out of the
        # oracle's reach. The oracle must hand the solver one program for the
        # optimum, whose optimum the reference solver must match, then, as
        # its witness is read, each round's program, densified, so a solve
        # that went round the patch cannot pass unseen.
        rng = random.Random(57)
        cases = [
            (inst, rho)
            for inst in [random_instance(rng, r_max=7, k_max=3, l_max=3) for _ in range(12)]
            for rho in (F(2, 5), F(3, 5), F(4, 5))
        ]
        results = [exact_privacy(inst, rho) for inst, rho in cases]
        witnesses = [result.witness for result in results]
        programs = []
        monkeypatch.setattr(conftest, "solve_rational", recorded(conftest.solve_rational, programs))
        wanted_programs = []
        for inst, rho in cases:
            programs.clear()
            reference_exact_privacy(inst, rho)
            wanted_programs.append(programs[:])

        def dense_core(n, rows, cost):
            programs.append(dense_program(n, rows, cost))
            return reference_solve_lp(n, rows, cost)

        monkeypatch.setattr(oracle, "solve_lp", dense_core)
        for (inst, rho), result, witness, wanted in zip(cases, results, witnesses, wanted_programs):
            programs.clear()
            reference = exact_privacy(inst, rho)
            assert len(programs) == 1
            programs.clear()
            assert reference.witness == witness
            assert programs == wanted  # one reference solve per round, on its program
            assert result.optimum == reference.optimum
        assert sum(map(len, wanted_programs)) > len(cases)  # some cases take several rounds


class TestCoreSeam:
    """The oracle reaches the simplex through the one name `solve_lp`, which
    a caller can patch or trace in the oracle's namespace: once for the
    optimum, and once per cutting-plane round when the witness is read."""

    def test_one_solve_with_every_row_on_uniform4(self, solves):
        assert oracle.solve_lp.__wrapped__ is simplex.solve_lp
        result = exact_privacy(UNIFORM4, F(1, 2))
        assert len(solves) == 1
        result.witness
        assert len(solves) == 2
        senses = [s for _, s, _, _ in solves[1][1]]
        # One list row per output, then a stochastic and a recover row per symbol.
        assert senses == [simplex.LESS] * 2 + [simplex.EQUAL] * 4 + [simplex.GREATER] * 4
        result.witness  # kept: no further solve
        assert len(solves) == 2

    def test_class_program_starts_at_its_slack_basis(self, solves, monkeypatch):
        # Every row `exact_privacy` hands the core is `<=` with rhs >= 0, so
        # the slack basis is feasible and the core runs one phase, no phase 1.
        run = simplex._run
        runs = []  # per `_run` phase, the number of solves recorded before its own

        def count(T, basis, cost):
            runs.append(len(solves))
            return run(T, basis, cost)

        monkeypatch.setattr(simplex, "_run", count)
        rng = random.Random(83)
        cases = [(inst, rho) for inst in CATALOG for rho in (F(0), F(1, 3), F(1))]
        cases += [(random_instance(rng), random_rho(rng)) for _ in range(20)]
        for inst, rho in cases:
            exact_privacy(inst, rho)
        assert all(s == simplex.LESS and b >= 0 for _, rows, _, _ in solves for _, s, b, _ in rows)
        assert runs == list(range(len(cases)))  # one solve per case, one phase per solve


class TestWrongObjective:
    """The one fault check is the certification of each program's vertex: a
    solve that reports its objective a unit off fails it, on the compact
    program and on the cutting-plane loop a witness read runs. The loop's one
    stop rule is the cut test, so it stops after the same rounds as a true
    one. A patched solve raises RuntimeError past 50 calls, so a loop that
    would not stop fails too."""

    @pytest.fixture
    def patch(self, monkeypatch):
        """`patch(shift)` makes every solve report its objective `shift`
        units off, and returns the list of each solve's row count."""
        solve = oracle.solve_lp

        def install(shift: int) -> list:
            solves = []

            def off(n, rows, cost):
                solves.append(len(rows))
                if len(solves) > 50:
                    raise RuntimeError("still solving after 50 calls")
                status, basic, (num, dnm) = solve(n, rows, cost)
                return status, basic, (num + shift, dnm)

            monkeypatch.setattr(oracle, "solve_lp", off)
            return solves

        return install

    @pytest.mark.parametrize("shift", [-1, 1], ids=["low", "high"])
    def test_is_refused_after_the_same_rounds(self, shift, patch):
        solves = patch(0)
        exact_privacy(SKEW7, F(7, 10))
        rounds = solves[:]
        solves = patch(shift)
        with pytest.raises(AssertionError, match="witness certifies 63/200"):
            exact_privacy(SKEW7, F(7, 10))
        assert solves == rounds

    @pytest.mark.parametrize("shift", [-1, 1], ids=["low", "high"])
    def test_witness_read_is_refused_after_the_same_rounds(self, shift, patch):
        solves = patch(0)
        exact_privacy(SKEW7, F(7, 10)).witness
        rounds = solves[1:]  # the loop's, after the compact solve
        assert len(rounds) > 1
        result = exact_privacy(SKEW7, F(7, 10))
        solves = patch(shift)
        with pytest.raises(AssertionError, match="witness certifies 63/200"):
            result.witness
        assert solves == rounds


class TestFaultyVertex:
    """A solve whose vertex is no mechanism is a fault of the LP, so it raises
    AssertionError, never a user-input error such as NotRowStochastic. Here
    every solve reads its largest basic column of the mechanism 3 units over
    its scale; a patched solve raises RuntimeError past 50 calls, so a loop
    that would not stop fails too."""

    @pytest.fixture
    def patch(self, monkeypatch):
        """`patch(columns)` moves every solve's largest basic column below
        `columns`, or its largest when `columns` is None, 3 units over its
        scale."""
        solve = oracle.solve_lp

        def install(columns: int | None = None):
            calls = []

            def over(n, rows, cost):
                calls.append(n)
                if len(calls) > 50:
                    raise RuntimeError("still solving after 50 calls")
                status, basic, objective = solve(n, rows, cost)
                j = max(j for j in basic if columns is None or j < columns)
                num, scale = basic[j]
                return status, {**basic, j: (num + 3 * scale, scale)}, objective

            monkeypatch.setattr(oracle, "solve_lp", over)

        return install

    def test_compact_vertex(self, patch):
        # The class program's mechanism columns are its free classes' w(c,i),
        # the last ones; at 7/10 skew7's heaviest class is free.
        assert oracle._settled(SKEW7, F(7, 10))[0] is None
        patch()
        with pytest.raises(AssertionError, match="not a mechanism row"):
            exact_privacy(SKEW7, F(7, 10))

    def test_loop_vertex(self, patch):
        result = exact_privacy(SKEW7, F(7, 10))
        patch(SKEW7.r * SKEW7.k)
        with pytest.raises(AssertionError, match="not a mechanism row"):
            result.witness


class TestAgainstReferenceLoop:
    """The loop a witness read runs against `conftest.reference_exact_privacy`,
    which rebuilds every row and validates a witness matrix in every round:
    same result, same rounds, same rows per round and the same pivots in
    each."""

    @pytest.fixture
    def same_rounds(self, pivot_log, monkeypatch):
        pivots = pivot_log(simplex, "_pivot")
        rounds = []
        # The reference loop reaches the core through `solve_rational`.
        monkeypatch.setattr(oracle, "solve_lp", logged(oracle.solve_lp, rounds, pivots))
        monkeypatch.setattr(simplex, "solve_lp", logged(simplex.solve_lp, rounds, pivots))

        def check(inst, rho):
            rounds.clear()
            got = exact_privacy(inst, rho)
            assert len(rounds) == 1  # the compact program alone
            rounds.clear()
            witness = got.witness
            got_rounds = rounds[:]
            rounds.clear()
            want = reference_exact_privacy(inst, rho)
            assert got.optimum == want.optimum
            assert witness == want.witness
            assert got_rounds == rounds
            return len(rounds)

        return check

    def test_catalog(self, same_rounds):
        rounds = [same_rounds(inst, rho) for inst in CATALOG for rho in CATALOG_LEVELS]
        assert max(rounds) > 2

    def test_random_instances(self, same_rounds):
        rng = random.Random(58)
        rounds = []
        for _ in range(60):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=3)
            rounds += [same_rounds(inst, random_rho(rng)) for _ in range(5)]
        assert max(rounds) > 2


class TestScipyCrossCheck:
    def test_floating_point_solver_agrees(self):
        scipy_linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(55)
        for _ in range(5):
            inst = random_instance(rng, r_max=5, k_max=3, l_max=2)
            rho = F(rng.randint(0, 10), 10)
            costs, rows, senses, rhs = _lp_parts(inst, rho, every_list(inst))
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row, sense, b in zip(rows, senses, rhs):
                vals = [float(v) for v in row]
                if sense == "=":
                    a_eq.append(vals)
                    b_eq.append(float(b))
                elif sense == "<=":
                    a_ub.append(vals)
                    b_ub.append(float(b))
                else:
                    a_ub.append([-v for v in vals])
                    b_ub.append(-float(b))
            res = scipy_linprog(
                [float(c) for c in costs],
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                method="highs",
            )
            assert res.status == 0
            exact = exact_privacy(inst, rho).optimum
            assert abs(float(1 - exact) - res.fun) <= 1e-9


class TestCaps:
    def test_beyond_full_program_size(self):
        # 2 * C(19, 7) = 100,776 list rows in the full program.
        pmf = tuple(F(x + 1, 190) for x in range(19))
        inst = Instance(pmf=pmf, f=tuple(x % 2 for x in range(19)), l=7)
        assert exact_privacy(inst, F(7, 10)).optimum == privacy_bound(inst, F(7, 10))

    def test_oversized_instance(self):
        # The oracle solves it; only the witness's tied lists are too many.
        pmf = tuple(F(1, 26) for _ in range(26))
        inst = Instance(pmf=pmf, f=tuple(x % 2 for x in range(26)), l=13)
        results = {rho: exact_privacy(inst, rho) for rho in (F(0), F(1, 2), F(1))}
        for rho, result in results.items():
            assert result.optimum == privacy_bound(inst, rho)
        with pytest.raises(InstanceTooLarge):
            active_lists(inst, results[F(1, 2)].witness)


class TestLpDump:
    def test_sections_and_names(self):
        text = lp_text(SKEW7, F(7, 10))
        assert "Minimize" in text and "Subject To" in text and "End" in text
        assert "w_0_0" in text and "t_1" in text
        assert "recover_0" in text and "row_6" in text
        # One list constraint per output per l-subset.
        assert text.count("list_") == 2 * 35

    def test_zero_rho_has_no_recover_rows(self):
        text = lp_text(UNIFORM4, F(0))
        assert "recover_" not in text

    def test_lines_join_to_the_text(self):
        lines = list(lp_lines(TERNARY5, F(1, 2)))
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        assert "".join(lines) == lp_text(TERNARY5, F(1, 2))

    def test_checks_come_at_the_call(self):
        # Both errors come before the first line is asked for, so a caller
        # can open its file only once the call has returned.
        with pytest.raises(RhoOutOfRange):
            lp_lines(UNIFORM4, F(3, 2))
        wide = Instance(pmf=(F(1, 24),) * 24, f=(0,) * 12 + (1,) * 12, l=12)
        with pytest.raises(InstanceTooLarge):
            lp_lines(wide, F(1, 2))


def tie_heavy_instance(rng: random.Random) -> Instance:
    """r <= 7, k 2-4; half the pmfs have weights 1 and 2 only, so masses tie."""
    r = rng.randint(3, 7)
    k = rng.randint(2, min(4, r))
    choices = (1, 2) if rng.random() < 0.5 else range(1, 13)
    weights = [rng.choice(choices) for _ in range(r)]
    f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
    rng.shuffle(f)
    pmf = tuple(F(w, sum(weights)) for w in weights)
    return Instance(pmf=pmf, f=tuple(f), l=rng.randint(1, r - 2))


class TestSettledClasses:
    """A class of mass p at output f is settled when another output has l
    symbols whose mass times rho is at least p(1 - rho): it takes the row rho
    at f, 1 - rho there, and leaves the program but for one row."""

    def test_program_shape(self, solves):
        # skew7's 5 classes, over 3 outputs' worth of rows each when free
        # (k + 1 = 3), and one row each when settled.
        assert len(SKEW7._classes) == 5
        assert oracle._settled(SKEW7, F(9, 10)) == [1, 1, 1, 0, 0]
        assert oracle._settled(SKEW7, F(7, 10)) == [None, 1, 1, 0, 0]
        assert exact_privacy(SKEW7, F(9, 10)).optimum == F(29, 200)
        assert exact_privacy(SKEW7, F(7, 10)).optimum == F(63, 200)
        assert [len(rows) for _, rows, _, _ in solves] == [5, 7]

    def test_optimum_where_classes_settle(self):
        # Against the program over symbols, which settles nothing, on
        # tie-heavy priors at levels where classes settle, at rho = 1, and
        # where every class settles.
        rng = random.Random(3401)
        some = every = 0
        for _ in range(40):
            inst = tie_heavy_instance(rng)
            for rho in (F(1, 2), F(2, 3), F(1)):
                noise = oracle._settled(inst, rho)
                symbols = solve_rational(*symbol_program(inst, rho, simplex.GREATER))
                assert exact_privacy(inst, rho).optimum == 1 - symbols.objective
                some += noise.count(None) < len(noise)
                every += noise.count(None) == 0
        assert some >= 80 and every >= 40
        for inst, rho in ((UNIFORM4, F(1, 2)), (TERNARY5, F(1)), (SKEW7, F(9, 10))):
            assert None not in oracle._settled(inst, rho)
            symbols = solve_rational(*symbol_program(inst, rho, simplex.GREATER))
            assert exact_privacy(inst, rho).optimum == 1 - symbols.objective


class TestMetamorphic:
    """Relations the exact optimum keeps without a reference to compare with:
    relabeling the symbols or the outputs leaves it unchanged, a longer list
    never raises it, and garbling the witness's response through any k x k
    channel never lowers that witness's privacy. The relabelings must leave
    the envelope's bound unchanged too. A per-instance cache that went stale,
    or that ranked the pmf by index, breaks them."""

    def test_relations(self):
        rng = random.Random(1221)
        for _ in range(60):
            inst = tie_heavy_instance(rng)
            rho = random_rho(rng)
            r, k = inst.r, inst.k
            result = exact_privacy(inst, rho)
            # Symbol x becomes perm[x]; output i becomes outs[i].
            perm = rng.sample(range(r), r)
            pmf, f = [None] * r, [None] * r
            for x in range(r):
                pmf[perm[x]], f[perm[x]] = inst.pmf[x], inst.f[x]
            symbols = Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)
            outs = rng.sample(range(k), k)
            outputs = Instance(pmf=inst.pmf, f=tuple(outs[v] for v in inst.f), l=inst.l)
            bound = privacy_bound(inst, rho)
            for relabeled in (symbols, outputs):
                assert exact_privacy(relabeled, rho).optimum == result.optimum
                assert privacy_bound(relabeled, rho) == bound
                assert privacy_at_zero(relabeled) == privacy_at_zero(inst)
            assert exact_privacy(inst.with_list_size(inst.l + 1), rho).optimum <= result.optimum
            channel = []
            for _ in range(k):
                weights = [rng.randint(0, 4) for _ in range(k)]
                weights[rng.randrange(k)] += 1
                channel.append([F(w, sum(weights)) for w in weights])
            garbled = StochasticMatrix(
                rows=tuple(
                    tuple(sum(row[j] * channel[j][i] for j in range(k)) for i in range(k))
                    for row in result.witness.rows
                )
            )
            assert list_privacy(inst, garbled).privacy >= result.optimum


class TestMetamorphicAtScale:
    """`TestMetamorphic`'s relations on a seeded r=24, k=5, l=6 instance,
    where cutting planes take seconds a level and only the compact program
    answers, and refinement: splitting one preimage into a new output asks
    the mechanism to recover more, so it never raises the optimum."""

    def test_relations(self):
        inst = seeded_instance(24, 5, 6, 7)
        r, k = inst.r, inst.k
        rng = random.Random(2456)
        perm = rng.sample(range(r), r)
        pmf, f = [None] * r, [None] * r
        for x in range(r):
            pmf[perm[x]], f[perm[x]] = inst.pmf[x], inst.f[x]
        symbols = Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)
        outs = rng.sample(range(k), k)
        outputs = Instance(pmf=inst.pmf, f=tuple(outs[v] for v in inst.f), l=inst.l)
        # Every other symbol of the largest preimage moves to output k.
        moved = set(max(inst.preimages, key=len)[::2])
        refined = Instance(
            pmf=inst.pmf, f=tuple(k if x in moved else v for x, v in enumerate(inst.f)), l=inst.l
        )
        assert refined.k == k + 1
        longer = inst.with_list_size(inst.l + 1)
        for rho in (F(1, 5), F(1, 2), F(4, 5)):
            optimum = exact_privacy(inst, rho).optimum
            assert exact_privacy(symbols, rho).optimum == optimum
            assert exact_privacy(outputs, rho).optimum == optimum
            assert exact_privacy(longer, rho).optimum <= optimum
            assert exact_privacy(refined, rho).optimum <= optimum


class TestUniformAtScale:
    """A seeded uniform prior on r = 10^5 symbols: one symbol class per
    output, and the class program's documented size is F(k + 1) + (C - F)
    rows for C classes of which F are free, whatever r is, so only
    `list_privacy`'s certification over every symbol grows with r. Every
    symbol weighs the same, so a class settles exactly when rho >= 1/2."""

    def test_one_small_program_certified_over_every_symbol(self, solves):
        r, k = 10**5, 10
        rng = random.Random(105)
        f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
        rng.shuffle(f)
        inst = Instance(pmf=(F(1, r),) * r, f=tuple(f), l=500)
        classes = len(inst._classes)
        assert classes == k
        # Below 1/2 every class is free: Ck + C rows.
        free = exact_privacy(inst, F(2, 5)).optimum
        assert [len(rows) for _, rows, _, _ in solves] == [classes * k + classes]
        assert free <= privacy_bound(inst, F(2, 5))
        # At 1/2 every class settles: one row each.
        rho = F(1, 2)
        optimum = exact_privacy(inst, rho).optimum
        assert [len(rows) for _, rows, _, _ in solves[1:]] == [classes]
        assert optimum <= privacy_bound(inst, rho) and optimum <= free
        assert exact_privacy(inst.with_list_size(501), rho).optimum <= optimum
