import random
from fractions import Fraction as F

import pytest

from listprivacy import (
    NoisePmf,
    add_noise_qr,
    deterministic_qr,
    first_breakpoint,
    is_recoverable,
    list_privacy,
    matrix_to_text,
    optimal_binary_qr,
    parse_matrix,
    parse_noise,
    privacy_at_zero,
    privacy_bound,
    recoverability_level,
    ternary_example_qr,
    top_elements,
    uniform_qr,
)
from listprivacy.catalog import instance as catalog_instance
from listprivacy.core import Instance, StochasticMatrix
from listprivacy.errors import (
    DigestMismatch,
    DimensionMismatch,
    InstanceFormatError,
    NotBinaryFunction,
    NotRowStochastic,
    RhoOutOfRange,
)
from conftest import grid, random_binary_instance, random_instance

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
TERNARY5 = catalog_instance("ternary5")


class TestUniform:
    def test_entries(self):
        w = uniform_qr(SKEW7)
        assert w.r == 7 and w.k == 2
        assert all(v == F(1, 2) for row in w.rows for v in row)

    def test_recoverable_up_to_one_over_k(self):
        rng = random.Random(21)
        for _ in range(15):
            inst = random_instance(rng)
            w = uniform_qr(inst)
            assert is_recoverable(w, inst, F(1, inst.k))
            assert recoverability_level(w, inst) == F(1, inst.k)

    def test_privacy_is_mass_outside_global_top(self):
        rng = random.Random(22)
        for _ in range(15):
            inst = random_instance(rng)
            report = list_privacy(inst, uniform_qr(inst))
            assert report.privacy == privacy_at_zero(inst)


class TestDeterministic:
    def test_indicator_structure(self):
        w = deterministic_qr(UNIFORM4)
        for x in range(4):
            for i in range(2):
                assert w.entry(x, i) == (1 if UNIFORM4.f[x] == i else 0)

    def test_fully_recoverable(self):
        rng = random.Random(23)
        for _ in range(10):
            inst = random_instance(rng)
            assert recoverability_level(deterministic_qr(inst), inst) == 1

    def test_uniform4_privacy_vanishes(self):
        assert list_privacy(UNIFORM4, deterministic_qr(UNIFORM4)).privacy == 0


class TestAddNoise:
    def test_rows_constant_on_preimages(self):
        rng = random.Random(24)
        for _ in range(15):
            inst = random_instance(rng)
            k = inst.k
            conditional = []
            for _ in range(k):
                weights = [rng.randint(1, 9) for _ in range(k)]
                total = sum(weights)
                conditional.append(tuple(F(w, total) for w in weights))
            noise = NoisePmf(conditional=tuple(conditional))
            w = add_noise_qr(inst, noise)
            for block in inst.preimages:
                first = w.rows[block[0]]
                assert all(w.rows[x] == first for x in block)

    def test_one_row_object_per_preimage(self):
        w = add_noise_qr(SKEW7, NoisePmf(conditional=((F(3, 4), F(1, 4)), (F(1, 3), F(2, 3)))))
        for block in SKEW7.preimages:
            assert all(w.rows[x] is w.rows[block[0]] for x in block)
        assert w.rows[SKEW7.preimages[0][0]] is not w.rows[SKEW7.preimages[1][0]]

    def test_shift_structure(self):
        inst = Instance(pmf=(F(1, 3),) * 3, f=(0, 1, 2), l=1)
        noise = NoisePmf(
            conditional=(
                (F(1, 2), F(1, 3), F(1, 6)),
                (F(1, 2), F(1, 3), F(1, 6)),
                (F(1, 2), F(1, 3), F(1, 6)),
            )
        )
        w = add_noise_qr(inst, noise)
        # Row x puts the noise pmf starting at column f(x), wrapping around.
        assert w.rows[0] == (F(1, 2), F(1, 3), F(1, 6))
        assert w.rows[1] == (F(1, 6), F(1, 2), F(1, 3))
        assert w.rows[2] == (F(1, 3), F(1, 6), F(1, 2))

    def test_uniform_noise_reduces_to_uniform_mechanism(self):
        noise = NoisePmf(conditional=((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
        assert add_noise_qr(UNIFORM4, noise) == uniform_qr(UNIFORM4)

    def test_wrong_size_noise(self):
        noise = NoisePmf(conditional=((F(1),),))
        with pytest.raises(DimensionMismatch):
            add_noise_qr(UNIFORM4, noise)

    def test_noise_rows_must_be_stochastic(self):
        with pytest.raises(NotRowStochastic):
            NoisePmf(conditional=((F(1, 2), F(1, 3)), (F(1, 2), F(1, 2))))


class TestOptimalBinary:
    def test_uniform4_at_three_quarters(self):
        w = optimal_binary_qr(UNIFORM4, F(3, 4))
        for x in range(4):
            assert w.entry(x, UNIFORM4.f[x]) == F(3, 4)
            assert w.entry(x, 1 - UNIFORM4.f[x]) == F(1, 4)
        assert list_privacy(UNIFORM4, w).privacy == F(1, 4)

    def test_keep_probability_floors_at_first_breakpoint(self):
        rng = random.Random(25)
        for _ in range(15):
            inst = random_binary_instance(rng, r_max=7, l_max=4)
            rho1 = first_breakpoint(inst)
            for rho in (F(0), rho1 / 2, rho1):
                w = optimal_binary_qr(inst, rho)
                assert recoverability_level(w, inst) == rho1
            high = rho1 + (1 - rho1) / 3
            assert recoverability_level(optimal_binary_qr(inst, high), inst) == high

    def test_meets_the_bound_everywhere(self):
        rng = random.Random(26)
        for _ in range(12):
            inst = random_binary_instance(rng, r_max=7, l_max=4)
            for rho in grid(10):
                w = optimal_binary_qr(inst, rho)
                assert is_recoverable(w, inst, rho)
                assert list_privacy(inst, w).privacy == privacy_bound(inst, rho)

    def test_rejects_wider_ranges(self):
        with pytest.raises(NotBinaryFunction):
            optimal_binary_qr(TERNARY5, F(3, 4))

    def test_first_kink_found_once_per_instance(self, tangent_sweeps):
        inst = random_binary_instance(random.Random(27), r_max=9, l_max=4)
        levels = [recoverability_level(optimal_binary_qr(inst, rho), inst) for rho in grid(20)]
        assert len(tangent_sweeps) == 1 and tangent_sweeps[0] is inst
        assert levels == [max(rho, first_breakpoint(inst)) for rho in grid(20)]
        other = inst.with_list_size(inst.l + 1)
        optimal_binary_qr(other, F(1, 2))
        assert len(tangent_sweeps) == 2 and tangent_sweeps[1] is other

    def test_rejects_bad_rho(self):
        with pytest.raises(RhoOutOfRange):
            optimal_binary_qr(UNIFORM4, F(6, 5))
        # The level is checked before the function's range.
        with pytest.raises(RhoOutOfRange):
            optimal_binary_qr(TERNARY5, F(6, 5))

    def test_builds_and_checks_one_matrix(self, monkeypatch):
        # One StochasticMatrix per call, with the rows of the flip channel's
        # add-noise mechanism and one row object per output value.
        built = []
        check = StochasticMatrix.__post_init__

        def counted(matrix):
            built.append(matrix)
            check(matrix)

        monkeypatch.setattr(StochasticMatrix, "__post_init__", counted)
        rng = random.Random(28)
        for _ in range(6):
            inst = random_binary_instance(rng, r_max=12, l_max=4)
            for rho in grid(20):
                before = len(built)
                w = optimal_binary_qr(inst, rho)
                assert len(built) == before + 1 and built[-1] is w
                keep = max(rho, first_breakpoint(inst))
                noise = NoisePmf(conditional=((keep, 1 - keep), (keep, 1 - keep)))
                assert w.rows == add_noise_qr(inst, noise).rows
                for block in inst.preimages:
                    assert all(w.rows[x] is w.rows[block[0]] for x in block)


class TestTernaryExample:
    def test_matrix_at_three_quarters(self):
        inst, w = ternary_example_qr(F(3, 4))
        assert inst == TERNARY5
        assert w.rows == (
            (F(3, 4), F(1, 4), F(0)),
            (F(3, 4), F(1, 4), F(0)),
            (F(1, 4), F(3, 4), F(0)),
            (F(1, 4), F(3, 4), F(0)),
            (F(1, 8), F(1, 8), F(3, 4)),
        )

    def test_achieves_one_minus_rho(self):
        for rho in (F(1, 2), F(3, 5), F(3, 4), F(9, 10), F(1)):
            inst, w = ternary_example_qr(rho)
            assert is_recoverable(w, inst, rho)
            assert list_privacy(inst, w).privacy == 1 - rho
            assert privacy_bound(inst, rho) == 1 - rho

    def test_only_defined_on_upper_half(self):
        with pytest.raises(RhoOutOfRange):
            ternary_example_qr(F(1, 3))


class TestMatrixSerialization:
    def test_round_trip_is_exact(self):
        rng = random.Random(27)
        for _ in range(10):
            inst = random_instance(rng)
            w = optimal_binary_qr(inst, F(4, 5)) if inst.k == 2 else uniform_qr(inst)
            again = parse_matrix(matrix_to_text(w, inst), inst)
            assert again == w

    def test_digest_guard(self):
        text = matrix_to_text(uniform_qr(UNIFORM4), UNIFORM4)
        with pytest.raises(DigestMismatch):
            parse_matrix(text, SKEW7)

    def test_dimension_guard(self):
        text = matrix_to_text(uniform_qr(UNIFORM4))
        with pytest.raises(DimensionMismatch):
            parse_matrix(text, SKEW7)

    def test_noise_round_trip(self):
        noise = NoisePmf(conditional=((F(2, 3), F(1, 3)), (F(1, 5), F(4, 5))))
        text = matrix_to_text(
            add_noise_qr(UNIFORM4, noise), UNIFORM4
        )
        assert parse_matrix(text, UNIFORM4) == add_noise_qr(UNIFORM4, noise)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InstanceFormatError):
            parse_matrix("[[0.5, 0.5]", None)


def test_top_elements_reminder():
    # The global top set underlying the uniform mechanism's privacy.
    assert top_elements(tuple(range(7)), 3, SKEW7.pmf) == (0, 1, 2)
