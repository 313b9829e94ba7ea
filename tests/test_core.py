import hashlib
import json
import random
from fractions import Fraction

import pytest

from listprivacy import (
    Instance,
    ListEstimator,
    OracleResult,
    StochasticMatrix,
    active_lists,
    add_noise_qr,
    anchor_set,
    ensure_rho,
    exact_privacy,
    format_rational,
    instance_digest,
    instance_to_text,
    is_recoverable,
    list_privacy,
    lp_text,
    optimal_binary_qr,
    parse_instance,
    parse_matrix,
    parse_noise,
    parse_rational,
    privacy_bound,
    privacy_curve,
    recoverability_level,
    simulate_game,
    ternary_example_qr,
    top_elements,
    uniform_qr,
    validate_instance,
)
from listprivacy.catalog import instance as catalog_instance, names as catalog_names
from listprivacy.cli import main
from listprivacy.errors import (
    BadFunctionRange,
    DimensionMismatch,
    EmptyPreimage,
    InstanceFormatError,
    ListPrivacyError,
    ListSizeOutOfRange,
    NotRowStochastic,
    PmfNotNormalized,
    RhoOutOfRange,
    TooManyRequested,
    ZeroMassSymbol,
)
from listprivacy import adversary, simulate
from listprivacy.core import _MAX_DIGITS, instance_to_jsonable
from listprivacy.adversary import PrivacyReport
from listprivacy.envelope import (
    CurveSegment,
    EnvelopeLine,
    PrivacyCurve,
    curve_samples_csv,
    curve_segments_csv,
    curve_to_text,
    enumerate_lines,
    first_breakpoint,
    privacy_at_one,
    privacy_at_zero,
)
from listprivacy.mechanisms import deterministic_qr, matrix_to_text
from listprivacy.oracle import exact_privacy_curve, lp_lines
from listprivacy.simulate import SweepPoint, derive_stream_seed, privacy_sweep, sweep_to_csv
from conftest import random_instance

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
# Past sys.get_int_max_str_digits (4300 by default): str() of it raises ValueError.
HUGE = 10**5000


class TestParseRational:
    def test_fraction_strings(self):
        assert parse_rational("3/10") == Fraction(3, 10)
        assert parse_rational("7") == Fraction(7)

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.3") == Fraction(3, 10)
        assert parse_rational("0.125") == Fraction(1, 8)

    def test_floats_via_repr(self):
        # A float parses through its shortest decimal repr, not its binary
        # expansion, so 0.3 means exactly 3/10.
        assert parse_rational(0.3) == Fraction(3, 10)

    def test_ints_and_fractions_pass_through(self):
        assert parse_rational(2) == Fraction(2)
        assert parse_rational(Fraction(5, 7)) == Fraction(5, 7)

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", None, [1]])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InstanceFormatError):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "bad", ["1e-10000000", "1e+999999999999999", "1e4300", "1" * 5000, "1/" + "3" * 5000]
    )
    def test_rejects_values_too_long_to_write_back(self, bad):
        with pytest.raises(InstanceFormatError):
            parse_rational(bad)

    def test_accepts_long_values_within_the_digit_limit(self):
        assert parse_rational("1e-4000") == Fraction(1, 10**4000)
        assert parse_rational("2.5e4200") == Fraction(25 * 10**4199)

    def test_format_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert parse_rational(format_rational(q)) == q

    def test_format_reads_its_input_like_parse(self):
        # A float goes through its shortest repr, as in parse_rational.
        assert format_rational(0.1) == "1/10"
        with pytest.raises(InstanceFormatError):
            format_rational("x")


class TestInstanceValidation:
    def test_catalog_shapes(self):
        assert SKEW7.r == 7 and SKEW7.k == 2 and SKEW7.l == 3
        assert [len(b) for b in SKEW7.preimages] == [3, 4]
        assert UNIFORM4.r == 4 and UNIFORM4.k == 2

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(PmfNotNormalized):
            Instance(pmf=(Fraction(1, 2), Fraction(49, 100)), f=(0, 1), l=1)

    def test_sum_too_long_to_write_is_still_reported(self):
        # Each entry fits the int-to-str digit limit; their sum does not.
        with pytest.raises(PmfNotNormalized, match="sums to less than 1"):
            Instance(pmf=TOO_LONG_SUM_PMF, f=(0, 1, 1), l=1)

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassSymbol):
            Instance(pmf=(Fraction(1), Fraction(0)), f=(0, 1), l=1)

    def test_function_value_at_k_rejected(self):
        with pytest.raises(BadFunctionRange):
            Instance(pmf=(Fraction(1, 2), Fraction(1, 2)), f=(0, 2), l=1, k=2)

    def test_non_surjective_rejected(self):
        pmf = (Fraction(1, 3),) * 3
        with pytest.raises(EmptyPreimage):
            Instance(pmf=pmf, f=(0, 0, 2), l=1, k=3)

    def test_list_size_bounds(self):
        pmf = (Fraction(1, 3),) * 3
        with pytest.raises(ListSizeOutOfRange):
            Instance(pmf=pmf, f=(0, 0, 1), l=0)
        with pytest.raises(ListSizeOutOfRange):
            Instance(pmf=pmf, f=(0, 0, 1), l=3)

    def test_constant_function_rejected(self):
        # k=1 leaves nothing to recover; the range must have at least 2 values.
        pmf = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(BadFunctionRange):
            Instance(pmf=pmf, f=(0, 0), l=1)

    def test_preimages_partition_alphabet(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = random_instance(rng)
            seen = sorted(x for block in inst.preimages for x in block)
            assert seen == list(range(inst.r))
            for i, block in enumerate(inst.preimages):
                assert all(inst.f[x] == i for x in block)

    @pytest.mark.parametrize(
        "fields",
        [{"pmf": 5}, {"pmf": "0.5 0.5"}, {"f": "01"}, {"f": 1}, {"labels": "ab"}, {"labels": 2}],
        ids=["pmf_number", "pmf_string", "f_string", "f_number", "labels_string", "labels_number"],
    )
    def test_non_sequence_fields_rejected(self, fields):
        raw = {"pmf": (Fraction(1, 2), Fraction(1, 2)), "f": (0, 1), "l": 1, **fields}
        with pytest.raises(InstanceFormatError):
            Instance(**raw)

    def test_with_list_size(self):
        other = SKEW7.with_list_size(1)
        assert other.l == 1 and other.pmf == SKEW7.pmf

    def test_validate_instance_mapping(self):
        raw = {"pmf": ["1/2", "1/2"], "f": [0, 1], "l": 1}
        inst = validate_instance(raw)
        assert inst.k == 2
        with pytest.raises(InstanceFormatError):
            validate_instance({"pmf": ["1/2", "1/2"], "f": [0, 1]})


TOO_LONG_SUM_PMF = (Fraction(1, 2**8000), Fraction(1, 3**5000), Fraction(1, 2))


def _with(**fields):
    """A valid four-symbol instance file with some fields replaced or, when None, removed."""
    raw = {"pmf": ["1/4", "1/4", "1/4", "1/4"], "f": [0, 0, 1, 1], "l": 2}
    raw.update(fields)
    return {key: value for key, value in raw.items() if value is not None}


# One row per invariant of an instance file, each input breaking exactly one.
SINGLE_FAULTS = [
    ("not_a_mapping", [["1/2", "1/2"], [0, 1], 1], InstanceFormatError),
    ("pmf_missing", _with(pmf=None), InstanceFormatError),
    ("pmf_empty", _with(pmf=[], f=[], l=1), InstanceFormatError),
    ("f_missing", _with(f=None), InstanceFormatError),
    ("l_missing", _with(l=None), InstanceFormatError),
    ("pmf_number", _with(pmf=5), InstanceFormatError),
    ("pmf_string", _with(pmf="1/4 1/4 1/4 1/4"), InstanceFormatError),
    ("f_string", _with(f="0011"), InstanceFormatError),
    ("labels_string", _with(labels="abcd"), InstanceFormatError),
    ("f_value_float", _with(f=[0, 0, 1, 1.5]), BadFunctionRange),
    ("f_value_negative", _with(f=[0, 0, 1, -1]), BadFunctionRange),
    ("f_value_bool", _with(f=[0, 0, 1, True]), BadFunctionRange),
    ("f_value_at_k", _with(f=[0, 0, 1, 2], k=2), BadFunctionRange),
    ("k_string", _with(k="2"), InstanceFormatError),
    ("k_bool", _with(k=True), InstanceFormatError),
    ("l_string", _with(l="1"), ListSizeOutOfRange),
    ("l_bool", _with(l=True), ListSizeOutOfRange),
    ("l_zero", _with(l=0), ListSizeOutOfRange),
    ("l_equals_r", _with(l=4), ListSizeOutOfRange),
    ("pmf_entry_garbage", _with(pmf=["1/4", "1/4", "1/4", "x"]), InstanceFormatError),
    ("pmf_entry_zero", _with(pmf=["1/2", "1/4", "1/4", "0"]), ZeroMassSymbol),
    ("pmf_entry_negative", _with(pmf=["1", "1/4", "1/4", "-1/2"]), ZeroMassSymbol),
    ("pmf_not_normalized", _with(pmf=["1/4", "1/4", "1/4", "1/5"]), PmfNotNormalized),
    (
        "pmf_sum_too_long_to_write",
        _with(pmf=[str(p) for p in TOO_LONG_SUM_PMF], f=[0, 1, 1]),
        PmfNotNormalized,
    ),
    ("preimage_empty", _with(f=[0, 0, 0, 0], k=2), EmptyPreimage),
    ("label_count", _with(labels=["a", "b", "c"]), InstanceFormatError),
]


class TestSingleFaultTable:
    @pytest.mark.parametrize(
        "raw, error", [row[1:] for row in SINGLE_FAULTS], ids=[row[0] for row in SINGLE_FAULTS]
    )
    def test_error_code(self, capsys, tmp_path, raw, error):
        with pytest.raises(error) as caught:
            validate_instance(raw)
        assert type(caught.value) is error
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(raw))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {error.__name__}:")


class TestTopElements:
    def test_fig_order(self):
        members = tuple(range(7))
        assert top_elements(members, 3, SKEW7.pmf) == (0, 1, 2)

    def test_ties_break_to_lower_index(self):
        pmf = (Fraction(1, 4),) * 4
        assert top_elements((0, 1, 2, 3), 2, pmf) == (0, 1)
        assert top_elements((3, 1, 2), 2, pmf) == (1, 2)

    def test_requesting_too_many(self):
        with pytest.raises(TooManyRequested):
            top_elements((0, 1), 3, UNIFORM4.pmf)

    def test_zero_is_empty(self):
        assert top_elements((0, 1), 0, UNIFORM4.pmf) == ()

    @pytest.mark.parametrize("member", [-1, 10, "a", 1.7, True])
    def test_non_symbols_rejected(self, member):
        with pytest.raises(InstanceFormatError):
            top_elements((member,), 1, SKEW7.pmf)

    @pytest.mark.parametrize("t", [1.5, "1", True])
    def test_non_int_counts_rejected(self, t):
        with pytest.raises(InstanceFormatError):
            top_elements(range(3), t, SKEW7.pmf)

    def test_entries_are_ranked_as_rationals(self):
        # As strings, "9/100" sorts above "1/10"; as rationals it is lighter.
        assert top_elements([0, 1], 1, ["9/100", "1/10"]) == (1,)
        assert top_elements([0, 1, 2], 2, [0.3, "1/5", 1]) == (0, 2)

    @pytest.mark.parametrize("pmf", [None, 5, "ab", [None, None], [Fraction(1, 2), "half"]])
    def test_pmf_must_be_a_sequence_of_rationals(self, pmf):
        with pytest.raises(InstanceFormatError):
            top_elements([0, 1], 1, pmf)


class TestMassAndLabelTakeSymbols:
    """`mass` and `label_of` check each symbol by `top_elements`'s rule, and
    `mass` counts a repeated member once."""

    LABELED = Instance(pmf=SKEW7.pmf, f=SKEW7.f, l=SKEW7.l, labels=tuple("abcdefg"))

    def test_mass_of_a_set(self):
        assert SKEW7.mass([0, 1]) == SKEW7.pmf[0] + SKEW7.pmf[1]
        assert SKEW7.mass([0, 0]) == SKEW7.mass({0}) == SKEW7.pmf[0] == Fraction(3, 10)
        assert SKEW7.mass([]) == 0
        assert SKEW7.mass(range(7)) == 1

    @pytest.mark.parametrize("members", [[-1], [7], [0, 10], "ab", [1.0], [True], [[0]], 3, None])
    def test_mass_refuses_non_symbols(self, members):
        with pytest.raises(InstanceFormatError):
            SKEW7.mass(members)

    def test_label_of_a_symbol(self):
        assert self.LABELED.label_of(6) == "g"
        assert SKEW7.label_of(6) == "6"

    @pytest.mark.parametrize("x", [-1, 7, 9, "a", 1.0, True, None])
    def test_label_of_refuses_non_symbols(self, x):
        for inst in (SKEW7, self.LABELED):
            with pytest.raises(InstanceFormatError):
                inst.label_of(x)


class TestEnsureRho:
    def test_accepts_boundaries(self):
        assert ensure_rho(0) == 0 and ensure_rho(1) == 1
        assert ensure_rho("0.5") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["-1/10", "11/10", 2])
    def test_rejects_outside_unit_interval(self, bad):
        with pytest.raises(RhoOutOfRange):
            ensure_rho(bad)


class TestStochasticMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(NotRowStochastic):
            StochasticMatrix(rows=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 10))))

    @pytest.mark.parametrize("rows", [5, (5,), "ab", ("ab",), ((Fraction(1),), 5)])
    def test_non_sequence_rows_rejected(self, rows):
        with pytest.raises(InstanceFormatError):
            StochasticMatrix(rows=rows)

    @pytest.mark.parametrize("rows", [(), ((),)], ids=["no_rows", "empty_row"])
    def test_no_entries(self, rows):
        with pytest.raises(NotRowStochastic, match="no entries"):
            StochasticMatrix(rows=rows)

    def test_sum_too_long_to_write_is_still_reported(self):
        with pytest.raises(NotRowStochastic, match="sums to less than 1"):
            StochasticMatrix(rows=(TOO_LONG_SUM_PMF[:2],))

    def test_negative_entry(self):
        with pytest.raises(NotRowStochastic):
            StochasticMatrix(rows=((Fraction(3, 2), Fraction(-1, 2)),))

    def test_recoverability_level(self):
        w = StochasticMatrix(
            rows=tuple(
                tuple(Fraction(7, 10) if j == UNIFORM4.f[x] else Fraction(3, 10) for j in range(2))
                for x in range(4)
            )
        )
        assert recoverability_level(w, UNIFORM4) == Fraction(7, 10)
        assert is_recoverable(w, UNIFORM4, Fraction(7, 10))
        assert not is_recoverable(w, UNIFORM4, Fraction(71, 100))

    def test_is_recoverable_refuses_a_level_outside_unit_interval(self):
        # Like every other function that takes a level.
        w = StochasticMatrix(rows=((Fraction(1, 2),) * 2,) * 4)
        for rho in (Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(RhoOutOfRange):
                is_recoverable(w, UNIFORM4, rho)

    def test_dimension_mismatch(self):
        w = StochasticMatrix(rows=((Fraction(1, 2), Fraction(1, 2)),))
        with pytest.raises(DimensionMismatch):
            recoverability_level(w, UNIFORM4)


class TestRepeatedRowObjects:
    """A row object given at several indices is parsed and checked once;
    every message names the first offending index, as it does when each row
    is an object of its own."""

    HALF = (Fraction(1, 2), Fraction(1, 2))

    def test_repeated_good_rows(self):
        one = [1, "0"]
        mech = StochasticMatrix(rows=(self.HALF, one, self.HALF, one, self.HALF))
        ones = (Fraction(1), Fraction(0))
        assert mech.rows == (self.HALF, ones, self.HALF, ones, self.HALF)
        assert mech.rows[1] is mech.rows[3] and mech.rows[0] is mech.rows[4]

    def test_repeated_bad_row_names_its_first_index(self):
        bad = (Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=(self.HALF, bad, self.HALF, bad))
        assert str(exc.value) == "row 1 sums to 5/6"

    def test_repeated_list_object(self):
        negative = [Fraction(3, 2), Fraction(-1, 2)]
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=[negative, self.HALF, negative])
        assert str(exc.value) == "row 0 has negative entry -1/2"
        unparsed = [Fraction(1, 2), "half"]
        with pytest.raises(InstanceFormatError) as exc:
            StochasticMatrix(rows=[self.HALF, unparsed, unparsed])
        assert str(exc.value) == "not a rational: 'half'"

    def test_bad_row_after_repeats(self):
        rows = (self.HALF,) * 3
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=rows + ((Fraction(1),),))
        assert str(exc.value) == "row 3 has 1 entries, expected 2"
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=rows + ((Fraction(1, 2), Fraction(2, 3)), (Fraction(1),)))
        assert str(exc.value) == "row 3 sums to 7/6"
        with pytest.raises(InstanceFormatError) as exc:
            StochasticMatrix(rows=rows + ((Fraction(1),), 5))
        assert str(exc.value) == "a row must be a sequence, got int"


class TestMatrixChecksOverCommonDenominators:
    """Row sums are checked in ints; the messages echo the Fraction values."""

    def test_row_off_by_one_over_a_large_prime(self):
        half = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=(half, (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 113))))
        assert str(exc.value) == "row 1 sums to 114/113"
        mixed = (Fraction(1, 101), Fraction(1, 103), Fraction(1, 107))
        row = mixed + (1 - sum(mixed) - Fraction(1, 109),)
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=(half + (Fraction(0),) * 2, row))
        assert str(exc.value) == "row 1 sums to 108/109"

    def test_negative_entry_message(self):
        # Row 1 sums to 1, so only its sign is at fault.
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=((Fraction(1, 2),) * 2, (Fraction(110, 109), Fraction(-1, 109))))
        assert str(exc.value) == "row 1 has negative entry -1/109"

    def test_mixed_coprime_rows_accepted(self):
        rng = random.Random(72)
        primes = [p for p in range(2, 114) if all(p % q for q in range(2, p))]
        for _ in range(20):
            picked = rng.sample(primes, 4)
            row = [Fraction(rng.randint(0, p // 5), p) for p in picked]
            mech = StochasticMatrix(rows=(tuple(row + [1 - sum(row)]),))
            assert sum(mech.rows[0]) == 1


class TestFirstFaultyRowIsNamed:
    """One pass parses and checks each row in order of first index, so of
    two faulty rows the first is named, whatever the faults; a row that is
    not a sequence is still reported before any other fault."""

    def test_a_bad_sum_before_a_bad_entry(self):
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=((Fraction(1, 2), 1), (Fraction(1, 2), "half")))
        assert str(exc.value) == "row 0 sums to 3/2"
        with pytest.raises(InstanceFormatError) as exc:
            StochasticMatrix(rows=((Fraction(1, 2), "half"), (Fraction(1, 2), 1)))
        assert str(exc.value) == "not a rational: 'half'"

    def test_a_repeated_bad_row_before_a_later_one(self):
        negative = (Fraction(3, 2), Fraction(-1, 2))
        with pytest.raises(NotRowStochastic) as exc:
            StochasticMatrix(rows=(negative, ("x", 1), negative, (Fraction(1),)))
        assert str(exc.value) == "row 0 has negative entry -1/2"

    def test_a_non_sequence_row_comes_first(self):
        with pytest.raises(InstanceFormatError) as exc:
            StochasticMatrix(rows=((Fraction(1, 2), "half"), (Fraction(1), Fraction(1)), 5))
        assert str(exc.value) == "a row must be a sequence, got int"


class TestDigitLimitAtConstruction:
    """Parts of at most 3 * _MAX_DIGITS bits skip the write-back test; the
    limit itself is unchanged at the constructors."""

    def pmf(self, digits):
        # 10**(d-1) is coprime to 10**d - 1, so the numerator keeps d digits.
        num, den = 10 ** (digits - 1), 10**digits - 1
        return (Fraction(num, den), Fraction(den - num, den))

    def test_numerator_of_exactly_the_limit_is_accepted(self):
        pmf = self.pmf(_MAX_DIGITS)
        assert len(str(pmf[0].numerator)) == _MAX_DIGITS
        assert StochasticMatrix(rows=(pmf,)).rows == (pmf,)
        assert Instance(pmf=pmf, f=(0, 1), l=1).pmf == pmf

    def test_numerator_one_digit_past_the_limit_is_refused(self):
        pmf = self.pmf(_MAX_DIGITS + 1)
        with pytest.raises(InstanceFormatError):
            StochasticMatrix(rows=(pmf,))
        with pytest.raises(InstanceFormatError):
            Instance(pmf=pmf, f=(0, 1), l=1)


class TestListEstimator:
    def test_lists_are_sorted_and_distinct(self):
        g = ListEstimator(lists=((2, 0), (1, 3)))
        assert g.lists == ((0, 2), (1, 3))
        with pytest.raises(InstanceFormatError):
            ListEstimator(lists=((0, 0), (1, 2)))
        with pytest.raises(InstanceFormatError):
            ListEstimator(lists=((0, 1), (2,)))

    @pytest.mark.parametrize(
        "lists",
        [((0.7, 1.9),), (("a",),), (None,), ((True, 2),), (5,), ((0, "a"),), 5],
        ids=["floats", "string", "none", "bool", "not_a_list", "mixed", "not_iterable"],
    )
    def test_entries_must_be_ints(self, lists):
        with pytest.raises(InstanceFormatError):
            ListEstimator(lists=lists)

    @pytest.mark.parametrize(
        "lists, message",
        [((), "no lists"), (((-1, 2),), "negative element"), (((), ()), "nonempty")],
        ids=["no_lists", "negative", "empty_lists"],
    )
    def test_malformed_lists(self, lists, message):
        with pytest.raises(InstanceFormatError, match=message):
            ListEstimator(lists=lists)


class TestSerialization:
    def test_text_round_trip_is_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng)
            again = parse_instance(instance_to_text(inst))
            assert again == inst

    def test_labels_survive_round_trip(self):
        inst = Instance(
            pmf=(Fraction(1, 2), Fraction(1, 2)),
            f=(0, 1),
            l=1,
            labels=("yes", "no"),
        )
        again = parse_instance(instance_to_text(inst))
        assert again.labels == ("yes", "no")

    def test_declared_k_round_trip(self):
        raw = {"pmf": ["1/3", "1/3", "1/3"], "f": [0, 0, 1], "l": 1, "k": 2}
        inst = validate_instance(raw)
        assert parse_instance(json.dumps(raw)) == inst

    def test_parse_rejects_non_json(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("not json at all")


class TestDigest:
    def test_digest_is_stable_hex(self):
        d = instance_digest(SKEW7)
        assert len(d) == 16 and int(d, 16) >= 0
        assert d == instance_digest(catalog_instance("skew7"))

    def test_digest_ignores_labels(self):
        a = Instance(pmf=(Fraction(1, 2), Fraction(1, 2)), f=(0, 1), l=1)
        b = Instance(pmf=a.pmf, f=a.f, l=1, labels=("u", "v"))
        assert instance_digest(a) == instance_digest(b)

    def test_digest_sees_every_field(self):
        base = instance_digest(UNIFORM4)
        assert instance_digest(UNIFORM4.with_list_size(3)) != base
        perturbed = Instance(
            pmf=(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
            f=(0, 1, 0, 1),
            l=2,
        )
        assert instance_digest(perturbed) != base

    def test_catalog_digests_are_pinned(self):
        got = {name: instance_digest(catalog_instance(name)) for name in catalog_names()}
        assert got == {
            "skew7": "2879b042fbf17e3e",
            "uniform4": "16533a3d96b5a9b1",
            "ternary5": "c45080e5442b2245",
        }

    def test_digest_hashes_the_unlabeled_fields(self):
        # The payload is the sorted, compact JSON of pmf, f, l and k.
        rng = random.Random(9)
        for _ in range(100):
            inst = random_instance(rng, r_max=9, k_max=5)
            if rng.random() < 0.5:
                inst = Instance(
                    pmf=inst.pmf, f=inst.f, l=inst.l, labels=tuple(f"s{x}" for x in range(inst.r))
                )
            payload = json.dumps(
                {
                    "pmf": [format_rational(p) for p in inst.pmf],
                    "f": list(inst.f),
                    "l": inst.l,
                    "k": inst.k,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            want = hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
            assert instance_digest(inst) == want


class TestCatalog:
    @pytest.mark.parametrize("name", ["nope", "", 3, None, ["skew7"], {"a": 1}, {"skew7"}])
    def test_unknown_or_unhashable_name(self, name):
        with pytest.raises(InstanceFormatError, match="unknown catalog instance"):
            catalog_instance(name)


class TestPublicApiErrors:
    """Each call surfaces a ListPrivacyError code, not a ValueError, AttributeError
    or TypeError from inside the library."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ensure_rho(HUGE),
            lambda: ensure_rho(Fraction(1, HUGE)),
            lambda: privacy_bound(SKEW7, HUGE),
            lambda: anchor_set(SKEW7, HUGE),
            lambda: exact_privacy(UNIFORM4, HUGE),
            lambda: lp_text(UNIFORM4, HUGE),
            lambda: optimal_binary_qr(SKEW7, HUGE),
            lambda: ternary_example_qr(HUGE),
            lambda: format_rational(HUGE),
            lambda: SKEW7.with_list_size(HUGE),
            lambda: privacy_curve(SKEW7).value_at(HUGE),
            lambda: catalog_instance(HUGE),
            lambda: Instance(pmf=UNIFORM4.pmf, f=UNIFORM4.f, l=-HUGE),
            lambda: Instance(pmf=UNIFORM4.pmf, f=UNIFORM4.f, l=1, k=HUGE),
            lambda: Instance(pmf=UNIFORM4.pmf, f=(0, 1, 1, HUGE), l=1, k=2),
            lambda: top_elements(range(4), -HUGE, UNIFORM4.pmf),
            lambda: parse_rational([HUGE]),
            lambda: Instance(pmf=(Fraction(1, 2),) * 2, f=(0, 1), l=1, labels=(HUGE, "b")),
            lambda: StochasticMatrix(rows=((Fraction(1, HUGE), 1 - Fraction(1, HUGE)),)),
            lambda: is_recoverable(uniform_qr(SKEW7), SKEW7, HUGE),
            lambda: privacy_curve(SKEW7).samples(HUGE),
        ],
        ids=[
            "ensure_rho", "ensure_rho_fraction", "privacy_bound", "anchor_set",
            "exact_privacy", "lp_text", "optimal_binary_qr", "ternary_example_qr",
            "format_rational", "with_list_size", "value_at", "catalog_instance",
            "instance_l", "instance_k", "instance_f", "top_elements", "in_a_list",
            "label", "matrix_entry", "is_recoverable", "samples",
        ],
    )
    def test_huge_ints(self, call):
        with pytest.raises(ListPrivacyError):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list_privacy(SKEW7, None),
            lambda: list_privacy(None, uniform_qr(SKEW7)),
            lambda: active_lists(SKEW7, None),
            lambda: add_noise_qr(SKEW7, None),
            lambda: recoverability_level(None, SKEW7),
            lambda: instance_digest(None),
            lambda: simulate_game(SKEW7, uniform_qr(SKEW7), None, 10, 1),
            lambda: parse_instance(None),
            lambda: parse_matrix(None),
            lambda: parse_noise(None),
            lambda: top_elements(None, 1, SKEW7.pmf),
            lambda: derive_stream_seed(None, 1),
            lambda: enumerate_lines(None),
            lambda: anchor_set(None, 0),
            lambda: privacy_bound(None, 0),
            lambda: privacy_curve(None),
            lambda: first_breakpoint(None),
            lambda: privacy_at_zero(None),
            lambda: privacy_at_one(None),
            lambda: exact_privacy(None, 0),
            lambda: exact_privacy_curve(None, [0]),
            lambda: exact_privacy_curve(None, []),
            lambda: lp_lines(None, 0),
            lambda: lp_text(None, 0),
            lambda: uniform_qr(None),
            lambda: deterministic_qr(None),
            lambda: optimal_binary_qr(None, 0),
            lambda: instance_to_jsonable(None),
            lambda: instance_to_text(None),
            lambda: curve_to_text(None),
            lambda: curve_segments_csv(None),
            lambda: curve_samples_csv(None, 10),
            lambda: matrix_to_text(None),
            lambda: adversary.report_to_jsonable(None),
            lambda: simulate.report_to_jsonable(None),
            lambda: sweep_to_csv(None),
            lambda: privacy_sweep(SKEW7, None, [0], 10, 1),
        ],
        ids=[
            "list_privacy", "list_privacy_instance", "active_lists", "add_noise_qr",
            "recoverability_level", "instance_digest", "simulate_game", "parse_instance",
            "parse_matrix", "parse_noise", "top_elements", "derive_stream_seed",
            "enumerate_lines", "anchor_set_instance", "privacy_bound_instance",
            "privacy_curve", "first_breakpoint", "privacy_at_zero", "privacy_at_one",
            "exact_privacy_instance", "exact_privacy_curve", "exact_privacy_curve_no_levels",
            "lp_lines", "lp_text_instance",
            "uniform_qr", "deterministic_qr", "optimal_binary_qr_instance",
            "instance_to_jsonable", "instance_to_text", "curve_to_text", "curve_segments_csv",
            "curve_samples_csv", "matrix_to_text", "adversary_report_to_jsonable",
            "simulate_report_to_jsonable", "sweep_to_csv", "privacy_sweep",
        ],
    )
    def test_wrong_typed_objects(self, call):
        with pytest.raises(ListPrivacyError):
            call()

    @pytest.mark.parametrize(
        "call, code",
        [
            (lambda: privacy_bound(None, 2), RhoOutOfRange),
            (lambda: privacy_bound(None, 0), InstanceFormatError),
            (lambda: privacy_bound(SKEW7, "x"), InstanceFormatError),
        ],
        ids=["rho_before_instance", "instance", "unparsable_rho"],
    )
    def test_privacy_bound_codes(self, call, code):
        # The level is checked before the instance, so these codes are pinned.
        with pytest.raises(ListPrivacyError) as caught:
            call()
        assert caught.type is code

    @pytest.mark.parametrize(
        "call, code",
        [
            (lambda: OracleResult(optimum=Fraction(1, 2), inst=None, rho=Fraction(1, 2)).witness,
             InstanceFormatError),
            (lambda: OracleResult(optimum=Fraction(1, 2), inst=SKEW7, rho=Fraction(3, 2)).witness,
             RhoOutOfRange),
        ],
        ids=["instance", "rho"],
    )
    def test_hand_built_oracle_result(self, call, code):
        # Exported and public, so its fields are checked as exact_privacy's
        # arguments are, before any witness is looked for.
        with pytest.raises(ListPrivacyError) as caught:
            call()
        assert caught.type is code

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CurveSegment(0, 1, "a", 0).value_at("1/2"),
            lambda: PrivacyCurve((CurveSegment("x", 1, 0, 0),), (1, 1, 1), (3,)).value_at("1/2"),
            lambda: EnvelopeLine((0,), "a", 0).value_at(0),
            lambda: EnvelopeLine(5, 0, 0).cardinality,
            lambda: curve_samples_csv(PrivacyCurve((CurveSegment(0, 1, None, 0),), (), (3,)), 2),
            lambda: adversary.report_to_jsonable(
                PrivacyReport(privacy=1, estimator=None, per_output_mass=()), SKEW7
            ),
            lambda: sweep_to_csv([SweepPoint(rho=1, empirical="a", analytic=1, abs_error=0.0)]),
        ],
        ids=[
            "curve_segment", "privacy_curve", "envelope_line", "envelope_line_cardinality",
            "curve_samples_csv",
            "privacy_report", "sweep_point",
        ],
    )
    def test_hand_built_results(self, call):
        # Exported result types built by hand with a field of the wrong type.
        with pytest.raises(ListPrivacyError):
            call()

    @pytest.mark.parametrize(
        "estimator, code",
        [
            (ListEstimator(lists=((0, 1, 2),)), DimensionMismatch),
            (ListEstimator(lists=((0, 1, 2), (4, 5, 7))), DimensionMismatch),
            (((0, 1, 2), (3, 4, 5)), InstanceFormatError),
        ],
        ids=["k_minus_one_lists", "symbol_r", "not_an_estimator"],
    )
    def test_one_estimator_fit_check(self, estimator, code):
        # The game and the report export refuse the same misfits alike.
        mech = uniform_qr(SKEW7)
        for call in (
            lambda: simulate_game(SKEW7, mech, estimator, 10, 1),
            lambda: adversary.report_to_jsonable(
                PrivacyReport(privacy=0, estimator=estimator, per_output_mass=(0, 0)), SKEW7
            ),
        ):
            with pytest.raises(ListPrivacyError) as caught:
                call()
            assert caught.type is code

    @pytest.mark.parametrize("render", [adversary.report_to_jsonable, adversary.report_to_text])
    def test_report_of_another_shape(self, render):
        # A report lists symbols 0-6 over 2 outputs: a 3-symbol instance must
        # not look up their labels, and a 3-output one must not pair them up.
        report = list_privacy(SKEW7, deterministic_qr(SKEW7))
        smaller = Instance(pmf=(Fraction(1, 3),) * 3, f=(0, 0, 1), l=1, labels=("a", "b", "c"))
        wider = Instance(pmf=(Fraction(1, 7),) * 7, f=(0, 1, 2, 0, 1, 2, 0), l=3)
        for inst in (smaller, wider):
            with pytest.raises(DimensionMismatch):
                render(report, inst)
        # Its own instance still renders it.
        render(report, SKEW7)
