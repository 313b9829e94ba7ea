import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest

from listprivacy import (
    Instance,
    ListEstimator,
    NoisePmf,
    StochasticMatrix,
    add_noise_qr,
    deterministic_qr,
    derive_stream_seed,
    list_privacy,
    map_list_estimator,
    optimal_binary_qr,
    privacy_sweep,
    simulate_game,
    ternary_example_qr,
    uniform_qr,
)
import listprivacy.simulate as simulate
from listprivacy.catalog import instance as catalog_instance
from listprivacy.core import over_common_denominator
from listprivacy.errors import DimensionMismatch, InstanceFormatError, RhoOutOfRange
from listprivacy.simulate import _CHUNK, _guide, _thresholds, report_to_jsonable, sweep_to_csv
from conftest import (
    random_instance,
    random_mechanism,
    reference_simulate_game,
    reference_thresholds,
)

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
TERNARY5 = catalog_instance("ternary5")


class TestDeterminism:
    def test_same_seed_same_report(self):
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(SKEW7, mech)
        a = simulate_game(SKEW7, mech, est, 20_000, 77)
        b = simulate_game(SKEW7, mech, est, 20_000, 77)
        assert a == b

    def test_pinned_run(self):
        # Frozen output of the generator contract: one 64-bit draw for the
        # data symbol, one for the response, thresholds rounded up exactly.
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(SKEW7, mech)
        report = simulate_game(SKEW7, mech, est, 100_000, 1234)
        assert report.misses == 34957
        assert report.empirical_privacy == 0.34957

    def test_different_seeds_differ(self):
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(SKEW7, mech)
        a = simulate_game(SKEW7, mech, est, 100_000, 1234)
        b = simulate_game(SKEW7, mech, est, 100_000, 1235)
        assert a.misses != b.misses

    def test_stream_seed_derivation(self):
        assert derive_stream_seed(100, 0) == 100
        assert derive_stream_seed(100, 3) == 103


class TestNegativeSeeds:
    """random.Random seeds by an int's absolute value, so a negative seed
    would replay its positive twin's stream while reporting its own."""

    def test_simulate_game_refuses_them(self):
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(SKEW7, mech)
        with pytest.raises(InstanceFormatError, match="need a non-negative seed, got -7"):
            simulate_game(SKEW7, mech, est, 100, -7)
        assert simulate_game(SKEW7, mech, est, 100, 0).seed == 0

    @pytest.mark.parametrize("seed, stream", [(-2, 0), (-2, 4), (3, -1)])
    def test_stream_derivation_refuses_them(self, seed, stream):
        with pytest.raises(InstanceFormatError, match="need a non-negative"):
            derive_stream_seed(seed, stream)

    def test_sweep_refuses_them_before_any_level(self):
        built = []

        def factory(rho):
            built.append(rho)
            return uniform_qr(SKEW7)

        for levels in ([F(0), F(1, 2), F(1)], []):
            with pytest.raises(InstanceFormatError, match="need a non-negative seed, got -2"):
                privacy_sweep(SKEW7, factory, levels, 100, -2)
        assert built == []
        assert len(privacy_sweep(SKEW7, factory, [F(0), F(1)], 100, 0)) == 2


class TestAgainstAnalyticValues:
    def test_uniform_mechanism_near_map_value(self):
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(SKEW7, mech)
        report = simulate_game(SKEW7, mech, est, 100_000, 1234)
        exact = float(list_privacy(SKEW7, mech).privacy)
        assert abs(report.empirical_privacy - exact) <= 5 * report.std_error

    def test_deterministic_mechanism_never_misses(self):
        inst = UNIFORM4.with_list_size(3)
        mech = deterministic_qr(inst)
        est = map_list_estimator(inst, mech)
        report = simulate_game(inst, mech, est, 10_000, 7)
        assert report.misses == 0
        assert report.empirical_privacy == 0.0
        assert report.std_error == 0.0

    def test_ternary_mechanism_near_one_minus_rho(self):
        _, mech = ternary_example_qr(F(3, 4))
        est = map_list_estimator(TERNARY5, mech)
        report = simulate_game(TERNARY5, mech, est, 50_000, 99)
        assert report.misses == 12494
        assert abs(report.empirical_privacy - 0.25) <= 5 * report.std_error

    def test_std_error_formula(self):
        mech = uniform_qr(UNIFORM4)
        est = map_list_estimator(UNIFORM4, mech)
        report = simulate_game(UNIFORM4, mech, est, 4_000, 5)
        p = report.misses / 4_000
        assert report.std_error == math.sqrt(p * (1 - p) / 4_000)


class TestValidation:
    def test_trials_must_be_positive(self):
        mech = uniform_qr(UNIFORM4)
        est = map_list_estimator(UNIFORM4, mech)
        with pytest.raises(InstanceFormatError):
            simulate_game(UNIFORM4, mech, est, 0, 1)

    @pytest.mark.parametrize("trials", [1.5, "10", True, None])
    def test_trials_must_be_an_int(self, trials):
        mech = uniform_qr(UNIFORM4)
        est = map_list_estimator(UNIFORM4, mech)
        with pytest.raises(InstanceFormatError):
            simulate_game(UNIFORM4, mech, est, trials, 1)

    @pytest.mark.parametrize("seed", [None, [1], 1.5, "7", True])
    def test_seed_must_be_an_int(self, seed):
        mech = uniform_qr(UNIFORM4)
        est = map_list_estimator(UNIFORM4, mech)
        with pytest.raises(InstanceFormatError):
            simulate_game(UNIFORM4, mech, est, 10, seed)

    def test_estimator_shape_checked(self):
        mech = uniform_qr(UNIFORM4)
        with pytest.raises(DimensionMismatch):
            simulate_game(UNIFORM4, mech, ListEstimator(lists=((0, 1),)), 10, 1)
        with pytest.raises(DimensionMismatch):
            simulate_game(
                UNIFORM4, mech, ListEstimator(lists=((0, 4), (0, 1))), 10, 1
            )

    def test_mechanism_shape_checked(self):
        mech = uniform_qr(SKEW7)
        est = map_list_estimator(UNIFORM4, uniform_qr(UNIFORM4))
        with pytest.raises(DimensionMismatch):
            simulate_game(UNIFORM4, mech, est, 10, 1)


# Several cuts inside the first bucket of both guides: the pmf's first three
# masses together fill a quarter of the first x bucket, and the mechanism's
# first two entries sit inside the first z bucket.
SKEWED = Instance(
    pmf=(F(1, 3 << 18),) * 3 + (F(1, 3) - F(1, 1 << 18), F(1, 3), F(1, 3)),
    f=(0, 1, 2, 0, 1, 2),
    l=2,
)
SKEWED_MECH = StochasticMatrix(
    rows=tuple(
        tuple(F(v) for v in row)
        for row in [
            (F(1, 1000), F(1, 999), 1 - F(1, 1000) - F(1, 999)),
            (F(1, 1024), F(1, 2048), 1 - F(3, 2048)),
        ] * 3
    )
)
# Dyadic masses: every cut lands on a bucket boundary of both guides.
DYADIC = Instance(pmf=(F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 16)), f=(0, 1, 0, 1, 1), l=1)
DYADIC_MECH = StochasticMatrix(
    rows=((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(1), F(0)), (F(0), F(1)), (F(3, 8), F(5, 8)))
)


def _hits_on_even(pmf):
    # Even symbols are in every list and odd ones in none, so every x cut
    # separates a hit from a miss.
    r = len(pmf)
    inst = Instance(pmf=pmf, f=tuple(x % 2 for x in range(r)), l=(r + 1) // 2)
    return inst, uniform_qr(inst), ListEstimator(lists=(tuple(range(0, r, 2)),) * 2)


def _edge_r300():
    # x is past one byte.
    inst = Instance(pmf=(F(1, 300),) * 300, f=tuple(x % 3 for x in range(300)), l=2)
    mech = random_mechanism(random.Random(300), inst)
    return inst, mech, map_list_estimator(inst, mech)


def _edge_cut_on_second_byte_boundary():
    # Every x cut is a multiple of 2**48 inside a leading-byte bucket.
    return _hits_on_even((F(1001, 1 << 16),) * 39 + (F(65536 - 39 * 1001, 1 << 16),))


def _edge_cut_second_byte_255():
    # Cut i is in bucket i, second byte 255, halfway into that cell.
    first = F(511, 1 << 17)
    return _hits_on_even((first,) + (F(1, 256),) * 99 + (1 - first - F(99, 256),))


def _edge_symbol_in_every_list():
    # Symbol 1 always hits, 5 and 6 always miss, the rest are mixed.
    mech = random_mechanism(random.Random(7), SKEW7)
    return SKEW7, mech, ListEstimator(lists=((0, 1, 2), (1, 3, 4)))


def _edge_many_mixed_symbols():
    # Symbols 0-277 are each in one list and draw both responses: 278 mixed
    # symbols, more than one byte has classes for. 278-298 always miss and
    # 299 always hits.
    inst = Instance(pmf=(F(1, 300),) * 300, f=tuple(x % 2 for x in range(300)), l=140)
    mech = StochasticMatrix(rows=((F(1, 3), F(2, 3)),) * 300)
    lists = (tuple(range(0, 278, 2)) + (299,), tuple(range(1, 278, 2)) + (299,))
    return inst, mech, ListEstimator(lists=lists)


def _mixed_at_the_lane_limit(mixed):
    # Symbols 0-253 are each in one list, 299 in both. Every symbol draws
    # both responses, except that symbol 253 draws only response 1, whose
    # list holds it, when only 253 symbols are to be mixed.
    inst = Instance(pmf=(F(1, 300),) * 300, f=tuple(x % 2 for x in range(300)), l=128)
    rows = [(F(1, 3), F(2, 3))] * 300
    if mixed == 253:
        rows[253] = (F(0), F(1))
    lists = (tuple(range(0, 254, 2)) + (299,), tuple(range(1, 254, 2)) + (299,))
    return inst, StochasticMatrix(rows=tuple(rows)), ListEstimator(lists=lists)


def _edge_overflow_runs_merge():
    # Symbols 0-252 take every lane class. The mixed symbols after them,
    # 253-262, 271-280 and 291-299, have none; each such block is one run of
    # unsure trials, between a laned symbol and misses (263-270) or hits
    # (281-290). The pmf puts several runs in some x buckets.
    rng = random.Random(254)
    weights = [rng.randint(1, 12) for _ in range(300)]
    inst = Instance(
        pmf=tuple(F(w, sum(weights)) for w in weights), f=tuple(x % 2 for x in range(300)), l=151
    )
    mech = StochasticMatrix(rows=((F(1, 3), F(2, 3)),) * 300)
    mixed = [*range(253), *range(253, 263), *range(271, 281), *range(291, 300)]
    hits = tuple(range(281, 291))
    lists = tuple(tuple(x for x in mixed if x % 2 == z) + hits for z in (0, 1))
    return inst, mech, ListEstimator(lists=lists)


EDGE_CASES = {
    "r300": _edge_r300,
    "cut_on_second_byte_boundary": _edge_cut_on_second_byte_boundary,
    "cut_second_byte_255": _edge_cut_second_byte_255,
    "symbol_in_every_list": _edge_symbol_in_every_list,
    "many_mixed_symbols": _edge_many_mixed_symbols,
    "mixed_253": lambda: _mixed_at_the_lane_limit(253),
    "mixed_254": lambda: _mixed_at_the_lane_limit(254),
    "overflow_runs_merge": _edge_overflow_runs_merge,
}


def _random_row(rng: random.Random, kind: str) -> list[F]:
    # Up to 11 masses summing to 1: with zeros, below 2**-8 but the last,
    # dyadic, or over denominators of 20-30 digits.
    n = rng.randint(1, 10)
    if kind == "zeros":
        weights = [rng.choice((0, 0, 1, 2, 7)) for _ in range(n)] + [1]
        return [F(w, sum(weights)) for w in weights]
    if kind == "tiny":
        head = [F(rng.randrange(256), 1 << rng.randint(16, 70)) for _ in range(n)]
    elif kind == "dyadic":
        m = rng.randint(0, 80)
        ends = sorted(rng.randrange((1 << m) + 1) for _ in range(n))
        return [F(b - a, 1 << m) for a, b in zip([0] + ends, ends + [1 << m])]
    else:
        head = []
        for _ in range(n):
            den = rng.randrange(10**20, 10**30)
            head.append(F(rng.randrange(den // n), den))
    return head + [1 - sum(head)]


class TestGuideTable:
    CASES = [
        _thresholds(SKEWED._profile.pw, SKEWED._profile.den),
        _thresholds(*over_common_denominator(SKEWED_MECH.rows[0])),
        _thresholds(DYADIC._profile.pw, DYADIC._profile.den),
        _thresholds([1, 0, 0, 1], 2),  # repeated cuts
        _thresholds([0, 1, 0], 1),
        _thresholds([1], 1),
        _thresholds([1] * 7, 7),
    ]

    def test_a_cell_names_the_bin_of_every_draw_in_its_bucket(self):
        # A bucket holds its bin exactly when no cut splits it.
        width = 1 << 56
        for cuts in self.CASES:
            table = _guide(cuts, range(len(cuts)), None)
            assert len(table) == 256
            for b, cell in enumerate(table):
                first = bisect_right(cuts, b * width)
                last = bisect_right(cuts, (b + 1) * width - 1)
                assert cell == (first if first == last else None)


class TestThresholds:
    @pytest.mark.parametrize("kind", ["zeros", "tiny", "dyadic", "large"])
    def test_integer_cuts_match_the_fraction_reference(self, kind):
        rng = random.Random(kind)
        for _ in range(500):
            row = _random_row(rng, kind)
            assert _thresholds(*over_common_denominator(row)) == reference_thresholds(row), row


class TestAgainstReferenceLoop:
    """The batch kernel gives the reference loop's misses, draw for draw."""

    TRIALS = (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1)

    def assert_same(self, inst, mech, est=None, seed=2024, trials=TRIALS):
        est = map_list_estimator(inst, mech) if est is None else est
        for n in trials:
            got = simulate_game(inst, mech, est, n, seed).misses
            assert got == reference_simulate_game(inst, mech, est, n, seed), (inst, n)

    def test_random_instances_and_lists(self):
        rng = random.Random(606)
        for case in range(14):
            inst = random_instance(rng, r_max=60, k_max=8)
            mech = random_mechanism(rng, inst)
            lists = tuple(
                tuple(rng.sample(range(inst.r), inst.l)) for _ in range(inst.k)
            )
            est = map_list_estimator(inst, mech) if case % 2 else ListEstimator(lists=lists)
            self.assert_same(inst, mech, est, seed=rng.randrange(1 << 40))

    def test_dyadic_cuts_on_bucket_boundaries(self):
        self.assert_same(DYADIC, DYADIC_MECH)

    def test_zero_entries_repeat_a_cut(self):
        mech = StochasticMatrix(
            rows=((F(1, 3), F(0), F(2, 3)),) * 3 + ((F(0), F(0), F(1)),) * 2
        )
        self.assert_same(TERNARY5, mech)

    def test_deterministic_and_uniform_mechanisms(self):
        for inst in (SKEW7, UNIFORM4, TERNARY5):
            self.assert_same(inst, deterministic_qr(inst))
            self.assert_same(inst, uniform_qr(inst))

    def test_several_cuts_in_one_bucket(self):
        self.assert_same(SKEWED, SKEWED_MECH, trials=self.TRIALS + (1 << 17,))

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_cases(self, case):
        self.assert_same(*EDGE_CASES[case](), trials=self.TRIALS + (1 << 17,))


class TestSharedRows:
    """Symbols that hold one row object share its z draw's cuts, and its runs
    when the same lists hold them."""

    def test_cuts_once_per_row_and_runs_once_per_row_and_lists(self, monkeypatch):
        r, k, trials, seed = 2000, 10, 3000, 9
        rng = random.Random(107)
        f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
        rng.shuffle(f)
        inst = Instance(pmf=(F(1, r),) * r, f=tuple(f), l=50)
        noise = []
        for _ in range(k):
            weights = [rng.randint(1, 12) for _ in range(k)]
            noise.append(tuple(F(w, sum(weights)) for w in weights))
        mech = add_noise_qr(inst, NoisePmf(conditional=tuple(noise)))
        est = list_privacy(inst, mech).estimator
        calls = {"_thresholds": 0, "_runs": 0}
        for name in calls:

            def count(*args, name=name, call=getattr(simulate, name)):
                calls[name] += 1
                return call(*args)

            monkeypatch.setattr(simulate, name, count)
        misses = simulate_game(inst, mech, est, trials, seed).misses
        # The x draw's cuts and runs, then the z draw's: add_noise_qr gives
        # every symbol of preimage i the one row object of output value i.
        assert calls["_thresholds"] == 1 + k
        held = {(f[x], tuple([x in lst for lst in est.lists])) for x in range(r)}
        assert calls["_runs"] == 1 + len(held) < r // 10
        assert misses == reference_simulate_game(inst, mech, est, trials, seed)


class TestSweep:
    def test_points_carry_exact_analytic_values(self):
        rhos = [F(0), F(1, 2), F(1)]
        points = privacy_sweep(
            UNIFORM4,
            lambda rho: optimal_binary_qr(UNIFORM4, rho),
            rhos,
            trials=20_000,
            seed=31,
        )
        assert [p.rho for p in points] == rhos
        for point in points:
            mech = optimal_binary_qr(UNIFORM4, point.rho)
            assert point.analytic == list_privacy(UNIFORM4, mech).privacy
            assert point.abs_error == abs(point.empirical - float(point.analytic))
            assert point.abs_error <= 0.02

    def test_streams_are_independent_of_list_order(self):
        # Each grid point runs on its own derived seed, so evaluating a
        # single rho alone reproduces the value it had inside the sweep.
        rhos = [F(0), F(1, 2), F(1)]
        points = privacy_sweep(
            UNIFORM4,
            lambda rho: optimal_binary_qr(UNIFORM4, rho),
            rhos,
            trials=5_000,
            seed=62,
        )
        mech = optimal_binary_qr(UNIFORM4, F(1, 2))
        est = map_list_estimator(UNIFORM4, mech)
        alone = simulate_game(UNIFORM4, mech, est, 5_000, derive_stream_seed(62, 1))
        assert points[1].empirical == alone.empirical_privacy

    def test_csv_export(self):
        points = privacy_sweep(
            UNIFORM4,
            lambda rho: optimal_binary_qr(UNIFORM4, rho),
            [F(0), F(1)],
            trials=2_000,
            seed=8,
        )
        rows = sweep_to_csv(points).strip().splitlines()
        assert rows[0] == "rho,empirical,analytic,abs_error"
        assert len(rows) == 3
        assert rows[1].split(",")[0] == "0"

    @pytest.mark.parametrize(
        "rhos, error",
        [
            (5, InstanceFormatError),
            ("1/2", InstanceFormatError),
            ({F(1, 2)}, InstanceFormatError),
            ([F(0), "a"], InstanceFormatError),
            ([F(1, 2), True], InstanceFormatError),
            ([F(0), 2], RhoOutOfRange),
            ([F(-1, 3)], RhoOutOfRange),
        ],
    )
    def test_levels_are_checked_before_any_is_simulated(self, rhos, error):
        built = []

        def factory(rho):
            built.append(rho)
            return optimal_binary_qr(UNIFORM4, rho)

        with pytest.raises(error):
            privacy_sweep(UNIFORM4, factory, rhos, trials=100, seed=1)
        assert built == []

    @pytest.mark.parametrize(
        "inst, levels, trials, message",
        [
            (None, [], 5, "instance must be Instance"),
            (None, [F(1, 2)], 5, "instance must be Instance"),
            (SKEW7, [F(1, 2)], 0, "trials >= 1, got 0"),
            (SKEW7, [F(1, 2)], "10", "trials >= 1, got '10'"),
        ],
        ids=["no_instance_no_levels", "no_instance", "zero_trials", "text_trials"],
    )
    def test_instance_and_trials_are_checked_before_any_is_simulated(
        self, inst, levels, trials, message
    ):
        built = []

        def factory(rho):
            built.append(rho)
            return uniform_qr(SKEW7)

        with pytest.raises(InstanceFormatError, match=message):
            privacy_sweep(inst, factory, levels, trials, 1)
        assert built == []

    def test_levels_are_parsed_like_every_other_rho(self):
        points = privacy_sweep(
            UNIFORM4,
            lambda rho: optimal_binary_qr(UNIFORM4, rho),
            ("0", 0.5, 1),
            trials=100,
            seed=4,
        )
        assert [p.rho for p in points] == [F(0), F(1, 2), F(1)]
        assert all(type(p.rho) is F for p in points)


class TestReportExport:
    def test_jsonable(self):
        mech = uniform_qr(UNIFORM4)
        est = map_list_estimator(UNIFORM4, mech)
        report = simulate_game(UNIFORM4, mech, est, 1_000, 3)
        payload = report_to_jsonable(report)
        assert payload["trials"] == 1_000
        assert payload["seed"] == 3
        assert payload["misses"] == report.misses


def test_random_mechanisms_stay_within_bands():
    rng = random.Random(63)
    for _ in range(5):
        inst = random_instance(rng, r_max=6, k_max=3, l_max=3)
        mech = random_mechanism(rng, inst)
        est = map_list_estimator(inst, mech)
        report = simulate_game(inst, mech, est, 40_000, rng.randint(0, 10_000))
        exact = float(list_privacy(inst, mech).privacy)
        band = 5 * max(report.std_error, 1e-3)
        assert abs(report.empirical_privacy - exact) <= band
