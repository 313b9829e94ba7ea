import copy
import pickle
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from listprivacy import (
    ListEstimator,
    NoisePmf,
    StochasticMatrix,
    active_lists,
    add_noise_qr,
    list_privacy,
    map_list_estimator,
    optimal_binary_qr,
    privacy_bound,
    recoverability_level,
    simulate_game,
    ternary_example_qr,
    uniform_qr,
)
from listprivacy import core
from listprivacy.adversary import PrivacyReport, best_list, report_to_jsonable, report_to_text
from listprivacy.catalog import instance as catalog_instance
from listprivacy.core import Instance
from listprivacy.errors import DimensionMismatch
from conftest import (
    random_instance,
    random_mechanism,
    random_rho,
    reference_list_privacy,
    reference_simulate_game,
)

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
TERNARY5 = catalog_instance("ternary5")


def estimator_miss_probability(inst, mech, lists):
    hit = F(0)
    for i, members in enumerate(lists):
        hit += sum(inst.pmf[x] * mech.entry(x, i) for x in members)
    return 1 - hit


class TestMapEstimator:
    def test_uniform_mechanism_always_guesses_global_top(self):
        est = map_list_estimator(SKEW7, uniform_qr(SKEW7))
        assert est.lists == ((0, 1, 2), (0, 1, 2))

    def test_lists_have_size_l(self):
        rng = random.Random(31)
        for _ in range(20):
            inst = random_instance(rng)
            est = map_list_estimator(inst, random_mechanism(rng, inst))
            assert len(est.lists) == inst.k
            assert all(len(members) == inst.l for members in est.lists)

    def test_per_output_choice_maximizes_joint_mass(self):
        rng = random.Random(32)
        for _ in range(20):
            inst = random_instance(rng, r_max=6, l_max=3)
            mech = random_mechanism(rng, inst)
            report = list_privacy(inst, mech)
            for i in range(inst.k):
                best = max(
                    sum(inst.pmf[x] * mech.entry(x, i) for x in lst)
                    for lst in combinations(range(inst.r), inst.l)
                )
                assert report.per_output_mass[i] == best


class TestListPrivacyFrozen:
    def test_uniform_mechanism_value(self):
        assert list_privacy(SKEW7, uniform_qr(SKEW7)).privacy == F(7, 20)

    def test_ternary_mechanism_value(self):
        inst, w = ternary_example_qr(F(3, 5))
        assert list_privacy(inst, w).privacy == F(2, 5)

    def test_binary_mechanism_value_large_list(self):
        inst = UNIFORM4.with_list_size(3)
        w = optimal_binary_qr(inst, F(9, 10))
        assert list_privacy(inst, w).privacy == F(1, 20)


class TestBestList:
    def test_ties_keep_ascending_index(self):
        rng = random.Random(37)
        for _ in range(400):
            r = rng.randint(1, 9)
            # Few distinct values, so most draws tie.
            scores = [F(rng.randint(0, 3), rng.choice((1, 2, 4))) for _ in range(r)]
            l = rng.randint(0, r)
            mass, members = best_list(scores, l)
            ranked = sorted(range(r), key=lambda x: (-scores[x], x))[:l]
            assert members == tuple(sorted(ranked))
            assert mass == sum(scores[x] for x in ranked) and type(mass) is F
            if l:
                cut = min(scores[x] for x in members)
                tied_in = [x for x in members if scores[x] == cut]
                tied_out = [x for x in range(r) if x not in members and scores[x] == cut]
                assert not tied_out or max(tied_in) < min(tied_out)

    def test_int_scores_keep_their_type_and_ascending_ties(self):
        # The oracle's rounds pass ints over one common scale.
        rng = random.Random(39)
        for _ in range(400):
            r = rng.randint(1, 9)
            scores = [rng.randint(0, 3) for _ in range(r)]
            l = rng.randint(0, r)
            mass, members = best_list(scores, l)
            ranked = sorted(range(r), key=lambda x: (-scores[x], x))[:l]
            assert members == tuple(sorted(ranked))
            assert mass == sum(scores[x] for x in ranked) and type(mass) is int

    def test_list_privacy_matches_the_sort_key_reference(self):
        rng = random.Random(38)
        for _ in range(60):
            inst = random_instance(rng, r_max=8, k_max=4)
            if rng.random() < 0.5:
                inst = Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l)
            rows = []
            for _ in range(inst.r):
                weights = [rng.randint(0, 2) for _ in range(inst.k)]
                weights[rng.randrange(inst.k)] += 1
                rows.append(tuple(F(w, sum(weights)) for w in weights))
            mech = StochasticMatrix(rows=tuple(rows))
            assert list_privacy(inst, mech) == reference_list_privacy(inst, mech)


class TestListPrivacyProperties:
    def test_matches_brute_force_over_all_estimators(self):
        rng = random.Random(33)
        for _ in range(20):
            inst = random_instance(rng, r_max=5, k_max=3, l_max=2)
            mech = random_mechanism(rng, inst)
            report = list_privacy(inst, mech)
            choices = list(combinations(range(inst.r), inst.l))
            brute = min(
                estimator_miss_probability(inst, mech, pick)
                for pick in product(choices, repeat=inst.k)
            )
            assert report.privacy == brute

    def test_never_beats_the_converse_bound(self):
        rng = random.Random(34)
        for _ in range(30):
            inst = random_instance(rng, r_max=7, k_max=3, l_max=3)
            mech = random_mechanism(rng, inst, rho=random_rho(rng))
            level = recoverability_level(mech, inst)
            assert list_privacy(inst, mech).privacy <= privacy_bound(inst, level)

    def test_longer_lists_never_hurt(self):
        rng = random.Random(35)
        for _ in range(20):
            inst = random_instance(rng, r_max=7)
            if inst.l >= inst.r - 1:
                continue
            mech = random_mechanism(rng, inst)
            wider = inst.with_list_size(inst.l + 1)
            assert list_privacy(wider, mech).privacy <= list_privacy(inst, mech).privacy

    def test_input_relabeling_invariance(self):
        rng = random.Random(36)
        for _ in range(15):
            inst = random_instance(rng, r_max=6, k_max=3)
            mech = random_mechanism(rng, inst)
            perm = list(range(inst.r))
            rng.shuffle(perm)
            pmf = [None] * inst.r
            f = [None] * inst.r
            rows = [None] * inst.r
            for x in range(inst.r):
                pmf[perm[x]] = inst.pmf[x]
                f[perm[x]] = inst.f[x]
                rows[perm[x]] = mech.rows[x]
            other = Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)
            other_mech = StochasticMatrix(rows=tuple(rows))
            assert list_privacy(other, other_mech).privacy == list_privacy(inst, mech).privacy

    def test_output_relabeling_invariance(self):
        rng = random.Random(37)
        for _ in range(15):
            inst = random_instance(rng, r_max=6, k_max=3)
            mech = random_mechanism(rng, inst)
            sigma = list(range(inst.k))
            rng.shuffle(sigma)
            f = tuple(sigma[v] for v in inst.f)
            other = Instance(pmf=inst.pmf, f=f, l=inst.l)
            rows = tuple(
                tuple(row[sigma.index(j)] for j in range(inst.k)) for row in mech.rows
            )
            other_mech = StochasticMatrix(rows=rows)
            assert list_privacy(other, other_mech).privacy == list_privacy(inst, mech).privacy

    def test_tied_scores_do_not_change_the_value(self):
        # Uniform everything: any l-list per output is optimal, and the value
        # must be the same no matter which one the tie-break selects.
        inst = Instance(pmf=(F(1, 4),) * 4, f=(0, 1, 0, 1), l=2)
        mech = uniform_qr(inst)
        report = list_privacy(inst, mech)
        assert report.privacy == F(1, 2)
        assert report.estimator.lists == ((0, 1), (0, 1))

    def test_report_masses_sum_to_hit_probability(self):
        rng = random.Random(38)
        for _ in range(15):
            inst = random_instance(rng)
            mech = random_mechanism(rng, inst)
            report = list_privacy(inst, mech)
            assert sum(report.per_output_mass) == 1 - report.privacy
            assert 0 <= report.privacy <= 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            list_privacy(SKEW7, uniform_qr(UNIFORM4))


class TestReportExport:
    def test_jsonable_payload(self):
        report = list_privacy(SKEW7, uniform_qr(SKEW7))
        payload = report_to_jsonable(report, SKEW7)
        assert payload["privacy"] == "7/20"
        assert payload["privacy_decimal"] == 0.35
        assert len(payload["per_output_mass"]) == 2
        assert "7/20" in report_to_text(report, SKEW7)

    def test_jsonable_without_instance_lists_symbols(self):
        report = list_privacy(SKEW7, uniform_qr(SKEW7))
        payload = report_to_jsonable(report)
        assert payload["estimator"] == [list(lst) for lst in report.estimator.lists]
        assert all(type(x) is int for lst in payload["estimator"] for x in lst)


PRIMES = [p for p in range(2, 114) if all(p % q for q in range(2, p))]


class TestLargeCoprimeDenominators:
    """Entries over the primes up to 113, so the matrix's common denominator
    runs to dozens of digits and every output's scores share no small scale."""

    def mechanism(self, rng, inst):
        rows = []
        for _ in range(inst.r):
            picked = rng.sample(PRIMES, inst.k - 1)
            # Each entry below p / k over p, so the last one stays positive; a
            # repeated entry makes tied scores under a uniform pmf.
            row = [F(rng.randint(0, p // inst.k), p) for p in picked]
            if rows and rng.random() < 0.3:
                row = list(rows[-1][:-1])
            rows.append(tuple(row + [1 - sum(row)]))
        return StochasticMatrix(rows=tuple(rows))

    def test_report_matches_the_reference(self):
        assert len(PRIMES) == 30
        rng = random.Random(71)
        for j in range(60):
            inst = random_instance(rng, r_max=9, k_max=5)
            if j % 2:
                inst = Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l)
            mech = self.mechanism(rng, inst)
            assert list_privacy(inst, mech) == reference_list_privacy(inst, mech)

    def test_scale_with_dozens_of_digits(self):
        inst = Instance(pmf=(F(1, 3), F(1, 5), F(7, 15)), f=(0, 1, 1), l=1)
        mech = StochasticMatrix(
            rows=((F(1, 113), F(112, 113)), (F(1, 109), F(108, 109)), (F(3, 107), F(104, 107)))
        )
        report = list_privacy(inst, mech)
        assert report == reference_list_privacy(inst, mech)
        assert report.per_output_mass == (F(7, 535), F(728, 1605))
        assert report.privacy == 1 - F(7, 535) - F(728, 1605)


class TestIntegerView:
    """`list_privacy`, `active_lists`, `recoverability_level` and
    `simulate_game` read a mechanism's entries as ints only through
    `StochasticMatrix._scaled`. They must agree with Fraction references on
    rows that several symbols share, each row over a prime of its own, and
    read a matrix that `StochasticMatrix._over` builds from ints over an
    unreduced scale as they read the parsed one."""

    @staticmethod
    def prime_row(rng, k, p):
        # k entries over p that sum to one; some may be 0 or reduce.
        cuts = sorted(rng.randint(0, p) for _ in range(k - 1))
        return tuple(F(b - a, p) for a, b in zip([0] + cuts, cuts + [p]))

    def mechanism(self, rng, inst, shape):
        primes = iter(rng.sample(PRIMES[10:], 10))
        if shape == "add-noise":
            rows = tuple(self.prime_row(rng, inst.k, next(primes)) for _ in range(inst.k))
            return add_noise_qr(inst, NoisePmf(conditional=rows))
        rows = [None] * inst.r
        if shape == "classes":  # one row object per symbol class, as witnesses give
            for _, _, members in inst._classes:
                row = self.prime_row(rng, inst.k, next(primes))
                for x in members:
                    rows[x] = row
        else:  # a few row objects spread at random, one symbol keeping its own
            pool = [self.prime_row(rng, inst.k, next(primes)) for _ in range(3)]
            rows = [rng.choice(pool) for _ in range(inst.r)]
            rows[rng.randrange(inst.r)] = self.prime_row(rng, inst.k, next(primes))
        return StochasticMatrix(rows=tuple(rows))

    def test_readers_match_the_fraction_references(self):
        rng = random.Random(28)
        for j in range(60):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=3)
            if j % 2:  # ties in the scores
                inst = Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l)
            mech = self.mechanism(rng, inst, ("add-noise", "classes", "spread")[j % 3])
            report = list_privacy(inst, mech)
            assert report == reference_list_privacy(inst, mech)
            recover = min(mech.rows[x][inst.f[x]] for x in range(inst.r))
            assert recoverability_level(mech, inst) == recover
            lists = active_lists(inst, mech)
            for i in range(inst.k):
                assert lists[i] == tuple(
                    lst
                    for lst in combinations(range(inst.r), inst.l)
                    if sum(inst.pmf[x] * mech.rows[x][i] for x in lst) == report.per_output_mass[i]
                )
            est = report.estimator
            got = simulate_game(inst, mech, est, 300, j).misses
            assert got == reference_simulate_game(inst, mech, est, 300, j)
            rows, den = mech._scaled
            assert rows == [tuple(v * den for v in row) for row in mech.rows]
            for x, y in combinations(range(inst.r), 2):
                assert (rows[x] is rows[y]) == (mech.rows[x] is mech.rows[y])

    @staticmethod
    def int_row(rng, k, p, g):
        # A list, as the oracle gives its rows, of k ints over g * p that sum
        # to it, each a multiple of g, so the scale is never the Fractions'
        # reduced one; entries off a random support are 0, and some on it
        # may be too.
        support = sorted(rng.sample(range(k), rng.randint(1, k)))
        cuts = sorted(rng.randint(0, p) for _ in range(len(support) - 1))
        row = [0] * k
        for x, a, b in zip(support, [0] + cuts, cuts + [p]):
            row[x] = g * (b - a)
        return row

    def test_over_matches_the_parsing_constructor(self):
        # `_over` takes ints over one unreduced scale, a few row objects shared
        # across symbols; the parsing constructor takes the same Fractions,
        # one tuple per row object.
        rng = random.Random(40)
        for j in range(60):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=3)
            if j % 2:  # ties in the scores
                inst = Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l)
            p, g = rng.choice(PRIMES[10:]), rng.randint(2, 6)
            pool = [self.int_row(rng, inst.k, p, g) for _ in range(3)]
            ints = [rng.choice(pool) for _ in range(inst.r)]
            ints[rng.randrange(inst.r)] = self.int_row(rng, inst.k, p, g)
            fractions = {id(row): tuple(F(n, g * p) for n in row) for row in ints}
            over = StochasticMatrix._over(ints, g * p)
            parsed = StochasticMatrix(rows=tuple(fractions[id(row)] for row in ints))
            assert over.rows == parsed.rows and over == parsed and hash(over) == hash(parsed)
            assert all(v is core.ZERO for row in over.rows for v in row if not v)
            rows, den = over._scaled
            assert den == g * p and rows == [tuple(row) for row in ints]
            p_rows, p_den = parsed._scaled
            assert p_den < den
            for row, p_row in zip(rows, p_rows):
                assert [F(n, den) for n in row] == [F(n, p_den) for n in p_row]
            for x, y in combinations(range(inst.r), 2):
                shared = ints[x] is ints[y]
                assert (over.rows[x] is over.rows[y]) == (rows[x] is rows[y]) == shared
            report = list_privacy(inst, over)
            assert report == list_privacy(inst, parsed)
            assert active_lists(inst, over) == active_lists(inst, parsed)
            assert recoverability_level(over, inst) == recoverability_level(parsed, inst)
            est = report.estimator
            got = simulate_game(inst, over, est, 300, j).misses
            assert got == simulate_game(inst, parsed, est, 300, j).misses

    def over_cases(self):
        """`test_over_matches_the_parsing_constructor`'s seeded draws: per
        draw, the instance, `_over`'s rows of ints and scale, and the
        parsing constructor's matrix of the same Fractions."""
        rng = random.Random(40)
        for j in range(60):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=3)
            if j % 2:  # ties in the scores
                inst = Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l)
            p, g = rng.choice(PRIMES[10:]), rng.randint(2, 6)
            pool = [self.int_row(rng, inst.k, p, g) for _ in range(3)]
            ints = [rng.choice(pool) for _ in range(inst.r)]
            ints[rng.randrange(inst.r)] = self.int_row(rng, inst.k, p, g)
            fractions = {id(row): tuple(F(n, g * p) for n in row) for row in ints}
            parsed = StochasticMatrix(rows=tuple(fractions[id(row)] for row in ints))
            yield inst, ints, g * p, parsed

    def test_over_builds_its_rows_on_first_read(self):
        # An `_over` matrix holds only its ints until `rows` is read, by any
        # of rows, ==, hash or repr, read first on a fresh matrix, or on a
        # deep copy or a pickle round trip of one. Then it matches the
        # parsing constructor's: the same rows, shared as the int rows are,
        # zeros being ZERO. Scoring, dimensions and level read no row.
        def matches(mech, parsed, ints):
            assert mech.rows == parsed.rows and mech == parsed and parsed == mech
            assert hash(mech) == hash(parsed) and repr(mech) == repr(parsed)
            assert all(v is core.ZERO for row in mech.rows for v in row if not v)
            for x, y in combinations(range(len(ints)), 2):
                assert (mech.rows[x] is mech.rows[y]) == (ints[x] is ints[y])

        first_reads = (
            lambda mech, parsed: mech.rows == parsed.rows,
            lambda mech, parsed: mech == parsed,
            lambda mech, parsed: hash(mech) == hash(parsed),
            lambda mech, parsed: repr(mech) == repr(parsed),
        )
        for inst, ints, scale, parsed in self.over_cases():
            over = StochasticMatrix._over(ints, scale)
            core.check_dims(inst, over)
            assert (over.r, over.k) == (inst.r, inst.k)
            list_privacy(inst, over)
            recoverability_level(over, inst)
            assert "rows" not in vars(over)
            for copied in (copy.deepcopy(over), pickle.loads(pickle.dumps(over))):
                assert "rows" not in vars(copied)
                matches(copied, parsed, ints)
            for read in first_reads:
                fresh = StochasticMatrix._over(ints, scale)
                assert "rows" not in vars(fresh) and read(fresh, parsed)
                matches(fresh, parsed, ints)
            matches(over, parsed, ints)

    def test_report_is_the_public_constructors(self):
        # list_privacy builds its report from checked ints with no
        # constructor check; it must equal, and hash as, the report the
        # public constructors build from reference values, and from its own
        # values given unsorted and as strings.
        for inst, ints, scale, parsed in self.over_cases():
            report = list_privacy(inst, StochasticMatrix._over(ints, scale))
            public = PrivacyReport(
                privacy=str(report.privacy),
                estimator=ListEstimator(lists=[lst[::-1] for lst in report.estimator.lists]),
                per_output_mass=[str(m) for m in report.per_output_mass],
            )
            for want in (reference_list_privacy(inst, parsed), public):
                assert report == want and hash(report) == hash(want)
                assert report.estimator == want.estimator
                assert hash(report.estimator) == hash(want.estimator)

    def test_shared_rows_are_scaled_once(self, monkeypatch):
        r = 10**5
        inst = Instance(pmf=(F(1, r),) * r, f=tuple(x % 2 for x in range(r)), l=3)
        inst._profile  # the pmf's own scaling, before the spy
        scaled = []
        scale = core.over_common_denominator

        def spy(values):
            scaled.append(len(values))
            return scale(values)

        monkeypatch.setattr(core, "over_common_denominator", spy)
        per_value = ((F(2, 3), F(1, 3)), (F(1, 5), F(4, 5)))
        mech = StochasticMatrix(rows=tuple(per_value[i] for i in inst.f))
        assert list_privacy(inst, mech).privacy == 1 - F(3, r) * (F(2, 3) + F(4, 5))
        assert recoverability_level(mech, inst) == F(2, 3)
        assert scaled == [2, 2]
        rows, den = mech._scaled
        assert den == 15 and len({id(row) for row in rows}) == 2
