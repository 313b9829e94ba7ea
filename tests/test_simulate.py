import math
import random
from fractions import Fraction as F

import pytest

from listprivacy import (
    ListEstimator,
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
from listprivacy.catalog import instance as catalog_instance
from listprivacy.errors import DimensionMismatch, InstanceFormatError
from listprivacy.simulate import report_to_jsonable, sweep_to_csv
from conftest import random_instance, random_mechanism

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
