import functools
import json
import random
import time
from fractions import Fraction as F

import pytest

from listprivacy import (
    anchor_set,
    enumerate_lines,
    first_breakpoint,
    privacy_at_one,
    privacy_at_zero,
    privacy_bound,
    privacy_curve,
    top_elements,
)
from listprivacy.catalog import instance as catalog_instance
from listprivacy.core import Instance
from listprivacy.errors import InstanceFormatError, InstanceTooLarge, RhoOutOfRange
from listprivacy import envelope
from listprivacy.envelope import (
    PrivacyCurve,
    curve_samples_csv,
    curve_segments_csv,
    curve_to_jsonable,
    curve_to_text,
)
from conftest import (
    grid,
    random_instance,
    reference_anchor,
    reference_lines,
    reference_privacy_curve,
    seeded_instance,
)

SKEW7 = catalog_instance("skew7")
UNIFORM4 = catalog_instance("uniform4")
TERNARY5 = catalog_instance("ternary5")


def segments_as_tuples(curve):
    return [(s.rho_lo, s.rho_hi, s.slope, s.intercept) for s in curve.segments]


class TestSkew7Frozen:
    """The bundled 7-point skewed instance, worked out by hand."""

    def test_breakpoints(self):
        curve = privacy_curve(SKEW7)
        assert curve.breakpoints == (F(3, 5), F(2, 3), F(3, 4))
        assert first_breakpoint(SKEW7) == F(3, 5)

    def test_segments(self):
        curve = privacy_curve(SKEW7)
        assert segments_as_tuples(curve) == [
            (F(0), F(3, 5), F(0), F(7, 20)),
            (F(3, 5), F(2, 3), F(-1, 4), F(1, 2)),
            (F(2, 3), F(3, 4), F(-11, 20), F(7, 10)),
            (F(3, 4), F(1), F(-19, 20), F(1)),
        ]
        assert curve.lambda_sizes == (3, 2, 1, 0)

    def test_endpoints(self):
        assert privacy_at_zero(SKEW7) == F(7, 20)
        assert privacy_at_one(SKEW7) == F(1, 20)
        curve = privacy_curve(SKEW7)
        assert curve.value_at(F(0)) == F(7, 20)
        assert curve.value_at(F(1)) == F(1, 20)

    def test_interior_value(self):
        assert privacy_bound(SKEW7, F(7, 10)) == F(63, 200)

    def test_anchor_sets(self):
        a = anchor_set(SKEW7, F(0))
        assert a.members == (0, 1, 2) and a.objective == F(13, 20)
        a = anchor_set(SKEW7, F(13, 20))
        assert a.members == (0, 1) and a.objective == F(53, 80)
        a = anchor_set(SKEW7, F(7, 10))
        assert a.members == (0,) and a.objective == F(137, 200)
        a = anchor_set(SKEW7, F(9, 10))
        assert a.members == () and a.objective == F(171, 200)


class TestUniform4Frozen:
    """The uniform 4-point instance at list sizes 1, 2, 3."""

    def test_list_size_two(self):
        curve = privacy_curve(UNIFORM4)
        assert segments_as_tuples(curve) == [
            (F(0), F(1, 2), F(0), F(1, 2)),
            (F(1, 2), F(1), F(-1), F(1)),
        ]
        # The anchor cardinality drops from 2 straight to 0 at 1/2, so the
        # two breakpoints share an abscissa.
        assert curve.breakpoints == (F(1, 2), F(1, 2))

    def test_list_size_one(self):
        inst = UNIFORM4.with_list_size(1)
        curve = privacy_curve(inst)
        assert segments_as_tuples(curve) == [
            (F(0), F(1, 2), F(0), F(3, 4)),
            (F(1, 2), F(1), F(-1, 2), F(1)),
        ]
        assert first_breakpoint(inst) == F(1, 2)

    def test_list_size_three(self):
        inst = UNIFORM4.with_list_size(3)
        curve = privacy_curve(inst)
        assert segments_as_tuples(curve) == [
            (F(0), F(1, 2), F(0), F(1, 4)),
            (F(1, 2), F(1), F(-1, 2), F(1, 2)),
        ]
        assert curve.breakpoints == (F(1, 2), F(1), F(1))
        assert privacy_at_one(inst) == F(0)

    def test_closed_forms_on_fine_grid(self):
        for rho in grid(100):
            assert privacy_bound(UNIFORM4.with_list_size(1), rho) == 1 - max(F(1, 4), rho / 2)
            assert privacy_bound(UNIFORM4, rho) == 1 - max(F(1, 2), rho)
            assert privacy_bound(UNIFORM4.with_list_size(3), rho) == 1 - max(
                F(3, 4), F(1, 2) + rho / 2
            )


class TestTernary5Frozen:
    """The uniform 5-point instance with a ternary function."""

    def test_three_piece_curve(self):
        curve = privacy_curve(TERNARY5)
        assert segments_as_tuples(curve) == [
            (F(0), F(1, 3), F(0), F(3, 5)),
            (F(1, 3), F(1, 2), F(-3, 5), F(4, 5)),
            (F(1, 2), F(1), F(-1), F(1)),
        ]
        assert curve.breakpoints == (F(1, 3), F(1, 2))
        assert privacy_at_zero(TERNARY5) == F(3, 5)


def bracket_value(inst, members, rho):
    """Recompute the converse objective for an explicit anchor set."""
    total = inst.mass(members)
    chosen = frozenset(members)
    budget = inst.l - len(members)
    for block in inst.preimages:
        rest = tuple(x for x in block if x not in chosen)
        take = min(budget, len(rest))
        total += rho * inst.mass(top_elements(rest, take, inst.pmf))
    return total


def relabel_symbols(inst, rng):
    # Symbol x becomes perm[x], carrying its mass and its function value.
    perm = list(range(inst.r))
    rng.shuffle(perm)
    pmf = [None] * inst.r
    f = [None] * inst.r
    for x in range(inst.r):
        pmf[perm[x]] = inst.pmf[x]
        f[perm[x]] = inst.f[x]
    return Instance(pmf=tuple(pmf), f=tuple(f), l=inst.l)


def relabel_outputs(inst, rng):
    # Output value y becomes perm[y].
    perm = list(range(inst.k))
    rng.shuffle(perm)
    return Instance(pmf=inst.pmf, f=tuple(perm[y] for y in inst.f), l=inst.l)


class TestAnchorProperties:
    def test_anchor_matches_curve_and_recomputation(self):
        rng = random.Random(101)
        for _ in range(40):
            inst = random_instance(rng, r_max=7, k_max=4, l_max=4)
            curve = privacy_curve(inst)
            for rho in grid(8):
                a = anchor_set(inst, rho)
                assert bracket_value(inst, a.members, rho) == a.objective
                assert 1 - a.objective == curve.value_at(rho)
                assert privacy_bound(inst, rho) == curve.value_at(rho)

    def test_anchor_decomposes_into_per_preimage_tops(self):
        rng = random.Random(102)
        for _ in range(60):
            inst = random_instance(rng, r_max=7, k_max=4, l_max=4)
            for rho in (F(0), F(1, 3), F(2, 3), F(1)):
                a = anchor_set(inst, rho)
                assert len(a.members) <= inst.l
                for i, block in enumerate(inst.preimages):
                    inside = tuple(x for x in block if x in a.members)
                    assert inside == top_elements(block, len(inside), inst.pmf)
                    assert a.per_class_counts[i] == len(inside)

    def test_binary_anchor_leaves_room_in_both_preimages(self):
        rng = random.Random(103)
        for _ in range(60):
            inst = random_instance(rng, r_max=7, k_max=2, l_max=4)
            for rho in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
                a = anchor_set(inst, rho)
                leftover = inst.l - len(a.members)
                for block in inst.preimages:
                    outside = sum(1 for x in block if x not in a.members)
                    assert leftover <= outside

    def test_full_list_anchor_at_zero(self):
        rng = random.Random(104)
        for _ in range(30):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=5)
            a = anchor_set(inst, F(0))
            assert len(a.members) == inst.l
            assert a.members == top_elements(tuple(range(inst.r)), inst.l, inst.pmf)

    def test_some_small_anchor_is_optimal_at_one(self):
        rng = random.Random(105)
        for _ in range(30):
            inst = random_instance(rng, r_max=7, k_max=3, l_max=4)
            lines = reference_lines(inst)
            best = max(line.value_at(F(1)) for line in lines)
            small = min(
                line.cardinality for line in lines if line.value_at(F(1)) == best
            )
            bound = max(0, inst.l - min(len(b) for b in inst.preimages))
            assert small <= bound


class TestCurveShape:
    def test_piecewise_structure(self):
        rng = random.Random(106)
        for _ in range(50):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=4)
            curve = privacy_curve(inst)
            segs = curve.segments
            assert segs[0].rho_lo == 0 and segs[-1].rho_hi == 1
            for a, b in zip(segs, segs[1:]):
                assert a.rho_hi == b.rho_lo
                # Continuity at the junction.
                assert a.value_at(a.rho_hi) == b.value_at(b.rho_lo)
                # The privacy curve is concave: slopes only get steeper.
                assert b.slope < a.slope
            assert all(s.slope <= 0 for s in segs)
            sizes = curve.lambda_sizes
            assert sizes[0] == inst.l
            # The anchor cardinality never grows with rho; it can stay flat
            # across a kink when only the anchor's identity changes.
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_monotone_and_endpoint_values(self):
        rng = random.Random(107)
        for _ in range(40):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=4)
            curve = privacy_curve(inst)
            values = [curve.value_at(rho) for rho in grid(12)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert values[0] == privacy_at_zero(inst)
            assert values[-1] == privacy_at_one(inst)
            assert all(0 <= v <= 1 for v in values)

    def test_flat_below_one_over_k(self):
        rng = random.Random(108)
        for _ in range(40):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=4)
            rho1 = first_breakpoint(inst)
            assert rho1 >= F(1, inst.k)
            assert privacy_bound(inst, F(1, inst.k)) == privacy_at_zero(inst)
            assert privacy_bound(inst, rho1) == privacy_at_zero(inst)

    def test_breakpoint_count_and_order(self):
        rng = random.Random(109)
        for _ in range(40):
            inst = random_instance(rng, r_max=8, k_max=4, l_max=4)
            curve = privacy_curve(inst)
            bps = curve.breakpoints
            assert len(bps) == inst.l
            assert all(0 < b <= 1 for b in bps)
            assert all(a <= b for a, b in zip(bps, bps[1:]))

    def test_breakpoints_solve_cardinality_crossings(self):
        # At the j-th breakpoint the best anchor of the larger cardinality
        # ties with the best anchor one element smaller.
        rng = random.Random(110)
        for _ in range(25):
            inst = random_instance(rng, r_max=7, k_max=3, l_max=3)
            lines = reference_lines(inst)
            by_card = {}
            for line in lines:
                by_card.setdefault(line.cardinality, []).append(line)
            for j, rho_j in enumerate(privacy_curve(inst).breakpoints, start=1):
                upper = max(ln.value_at(rho_j) for ln in by_card[inst.l - j + 1])
                lower = max(ln.value_at(rho_j) for ln in by_card[inst.l - j])
                assert upper == lower

    def test_larger_lists_never_gain_privacy(self):
        rng = random.Random(111)
        for _ in range(30):
            inst = random_instance(rng, r_max=8, k_max=4)
            if inst.l < 2:
                continue
            smaller = inst.with_list_size(inst.l - 1)
            for rho in (F(0), F(2, 5), F(4, 5), F(1)):
                assert privacy_bound(smaller, rho) >= privacy_bound(inst, rho)

    def test_relabeling_invariance(self):
        rng = random.Random(112)
        for _ in range(20):
            inst = random_instance(rng, r_max=7, k_max=3, l_max=3)
            relabeled = relabel_symbols(inst, rng)
            for rho in grid(6):
                assert privacy_bound(relabeled, rho) == privacy_bound(inst, rho)


class TestAgainstExhaustiveReference:
    def test_anchor_and_curve_match_all_subsets(self):
        rng = random.Random(113)
        cases = [random_instance(rng, r_max=9, k_max=4, l_max=5) for _ in range(60)]
        # Uniform pmfs: every preimage is one big tie.
        for _ in range(30):
            inst = random_instance(rng, r_max=9, k_max=4, l_max=5)
            cases.append(Instance(pmf=(F(1, inst.r),) * inst.r, f=inst.f, l=inst.l))
        for inst in cases:
            lines = reference_lines(inst)
            curve = privacy_curve(inst)
            for rho in grid(12):
                members, best = reference_anchor(inst, rho, lines)
                a = anchor_set(inst, rho)
                assert (a.members, a.objective) == (members, best)
                assert curve.value_at(rho) == 1 - best
            for seg, size in zip(curve.segments, curve.lambda_sizes):
                mid = (seg.rho_lo + seg.rho_hi) / 2
                best = max(line.value_at(mid) for line in lines)
                assert size == max(ln.cardinality for ln in lines if ln.value_at(mid) == best)


class TestLargeInstance:
    def test_r50_l5_curve(self):
        # 2,369,936 subsets of at most 5 symbols, but only 21 count vectors.
        inst = Instance(pmf=(F(1, 50),) * 50, f=tuple(x % 2 for x in range(50)), l=5)
        assert len(enumerate_lines(inst)) == 21
        curve = privacy_curve(inst)
        assert curve.value_at(F(0)) == privacy_at_zero(inst)
        assert curve.value_at(F(1)) == privacy_at_one(inst)
        assert 1 - anchor_set(inst, F(1, 2)).objective == curve.value_at(F(1, 2))


class TestValueAtAndSamples:
    """Every value_at reads rho through ensure_rho and stays exact; samples
    count their points before building any."""

    def test_pieces_and_lines_are_exact_at_any_rational_form(self):
        curve = privacy_curve(SKEW7)
        line = enumerate_lines(SKEW7)[-1]
        assert curve.segments[-1].value_at(0.3) == F(143, 200)
        for piece in (curve.segments[-1], line):
            want = piece.intercept + piece.slope * F(3, 10)
            for rho in (0.3, "0.3", "3/10", F(3, 10)):
                got = piece.value_at(rho)
                assert type(got) is F and got == want
            with pytest.raises(InstanceFormatError):
                piece.value_at("three tenths")
            with pytest.raises(RhoOutOfRange):
                piece.value_at(F(3, 2))

    def test_samples_are_counted_before_any_is_built(self, monkeypatch):
        curve = privacy_curve(SKEW7)
        monkeypatch.setattr(envelope, "_MAX_POINTS", 5)
        assert len(curve.samples(4)) == 5
        with pytest.raises(InstanceTooLarge, match="6 points asked for, over 5"):
            curve.samples(5)


class TestExports:
    def test_json_export_round_trips_exact_strings(self):
        payload = json.loads(curve_to_text(privacy_curve(SKEW7)))
        assert payload["breakpoints"] == ["3/5", "2/3", "3/4"]
        assert len(payload["segments"]) == 4
        first = payload["segments"][0]
        assert first["slope"] == "0" and first["intercept"] == "7/20"

    def test_segment_csv(self):
        text = curve_segments_csv(privacy_curve(TERNARY5))
        rows = text.strip().splitlines()
        assert rows[0] == "rho_lo,rho_hi,slope,intercept,anchor_size"
        assert len(rows) == 4
        assert rows[1].startswith("0,1/3,0,3/5")

    def test_sample_csv_has_n_plus_one_rows(self):
        text = curve_samples_csv(privacy_curve(UNIFORM4), 4)
        rows = text.strip().splitlines()
        assert len(rows) == 6
        assert rows[1].split(",")[0] == "0"
        assert rows[-1].split(",")[0] == "1"

    @pytest.mark.parametrize("sizes", [(), (4, 3, 2), (4, 3, 2, 1, 0)])
    def test_one_anchor_size_per_segment(self, sizes):
        curve = privacy_curve(SKEW7)
        malformed = PrivacyCurve(curve.segments, curve.breakpoints, sizes)
        for export in (curve_to_jsonable, curve_to_text, curve_segments_csv):
            with pytest.raises(InstanceFormatError):
                export(malformed)

    def test_at_least_one_segment(self):
        empty = PrivacyCurve((), (), ())
        for export in (curve_to_jsonable, curve_to_text, curve_segments_csv):
            with pytest.raises(InstanceFormatError):
                export(empty)

    def test_a_level_off_the_segments_is_refused(self):
        curve = privacy_curve(SKEW7)
        short = PrivacyCurve(curve.segments[:1], curve.breakpoints, (3,))
        assert short.value_at(curve.segments[0].rho_hi) == curve.value_at(curve.segments[0].rho_hi)
        for read in (
            lambda: short.value_at(1),
            lambda: short.samples(4),
            lambda: curve_samples_csv(short, 4),
            lambda: curve_samples_csv(PrivacyCurve((), (), ()), 4),
        ):
            with pytest.raises(InstanceFormatError, match="no segment of the curve holds rho"):
                read()

    @pytest.mark.parametrize("n", [0, -2, 1.5, 2.0, "3", True, None])
    def test_sample_count_must_be_a_positive_int(self, n):
        curve = privacy_curve(UNIFORM4)
        with pytest.raises(InstanceFormatError):
            curve.samples(n)
        with pytest.raises(InstanceFormatError):
            curve_samples_csv(curve, n)


@functools.cache
def curve_40_8_8():
    # 10,358 count-vector lines: the one reference hull built at this size,
    # shared, so the greedy routes are checked against enumerated lines.
    inst = seeded_instance(40, 8, 8, 1)
    return inst, reference_privacy_curve(inst)


@pytest.fixture
def best_line_levels(monkeypatch):
    """The levels `envelope._best_line` is called at, as (p, q), in call order."""
    levels = []
    best_line = envelope._best_line

    def record(prefix, l, top, p, q):
        levels.append((p, q))
        return best_line(prefix, l, top, p, q)

    monkeypatch.setattr(envelope, "_best_line", record)
    return levels


class TestFirstBreakpointAtScale:
    """`first_breakpoint` builds no curve: it stops the curve's tangent sweep
    at its first step."""

    def test_matches_the_curve_at_40_8_8(self):
        inst, curve = curve_40_8_8()
        assert first_breakpoint(inst) == curve.breakpoints[0] == F(5, 34)

    def test_catalog_at_every_list_size(self):
        for inst in (SKEW7, UNIFORM4, TERNARY5):
            for l in range(1, inst.r):
                sized = inst.with_list_size(l)
                assert first_breakpoint(sized) == reference_privacy_curve(sized).breakpoints[0]

    def test_evaluates_a_prefix_of_the_curves_levels(self, best_line_levels):
        # The kink is the sweep's first step: the levels it evaluates are the
        # first of the curve's, and far fewer (5 against 20 here).
        levels = best_line_levels
        inst = seeded_instance(60, 10, 10, 1)
        rho1 = first_breakpoint(inst)
        kink_levels = list(levels)
        levels.clear()
        assert privacy_curve(inst).breakpoints[0] == rho1
        assert len(kink_levels) < len(levels) and levels[: len(kink_levels)] == kink_levels

    def test_200_20_30_within_a_second(self):
        inst = seeded_instance(200, 20, 30, 1)
        start = time.process_time()
        rho1 = first_breakpoint(inst)
        assert time.process_time() - start < 1
        assert F(1, 20) <= rho1 < 1


class TestPrivacyBoundAtScale:
    """`privacy_bound` enumerates no line: the greedy per anchor size and the
    top-l mass, on the instance's profile."""

    def test_reads_no_line(self, monkeypatch):
        expected = [privacy_bound(SKEW7, rho) for rho in grid(10)]

        def refused(*args, **kwargs):
            raise AssertionError("privacy_bound enumerated lines")

        monkeypatch.setattr(envelope, "enumerate_lines", refused)
        monkeypatch.setattr(envelope, "anchor_set", refused)
        assert [privacy_bound(SKEW7, rho) for rho in grid(10)] == expected
        assert expected[7] == F(63, 200)

    def test_matches_the_curve_at_40_8_8(self):
        inst, curve = curve_40_8_8()
        for rho in grid(20):
            assert privacy_bound(inst, rho) == curve.value_at(rho)

    def test_200_20_30_sweep_within_a_second(self):
        inst = seeded_instance(200, 20, 30, 1)
        start = time.process_time()
        values = [privacy_bound(inst, rho) for rho in grid(20)]
        assert time.process_time() - start < 1
        assert values[0] == privacy_at_zero(inst) and values[-1] == privacy_at_one(inst)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestPrivacyCurveAtScale:
    """`privacy_curve` enumerates no line: a tangent sweep on the greedy
    evaluator. (60, 10, 10) has far too many count vectors to enumerate in
    a test."""

    def test_reads_no_line(self, monkeypatch):
        instances = [inst.with_list_size(l) for inst in (SKEW7, TERNARY5) for l in range(1, inst.r)]
        expected = [privacy_curve(inst) for inst in instances]

        def refused(*args, **kwargs):
            raise AssertionError("privacy_curve enumerated lines")

        monkeypatch.setattr(envelope, "enumerate_lines", refused)
        monkeypatch.setattr(envelope, "anchor_set", refused)
        assert [privacy_curve(inst) for inst in instances] == expected
        assert privacy_curve(SKEW7).breakpoints == (F(3, 5), F(2, 3), F(3, 4))

    def test_matches_the_reference_at_40_8_8(self):
        inst, curve = curve_40_8_8()
        assert privacy_curve(inst) == curve

    def test_60_10_10_within_a_second(self):
        inst = seeded_instance(60, 10, 10, 1)
        start = time.process_time()
        curve = privacy_curve(inst)
        assert time.process_time() - start < 1
        assert curve.value_at(0) == privacy_at_zero(inst)
        assert curve.value_at(1) == privacy_at_one(inst)
        assert curve.breakpoints[0] == first_breakpoint(inst)

    def test_evaluates_only_the_sweeps_levels(self, best_line_levels):
        # Each piece keeps the anchor size its line was found with, so the
        # curve evaluates no level of its own: 20 here, where a second look
        # at every segment's midpoint made 31.
        inst = seeded_instance(60, 10, 10, 1)
        list(envelope._tangent_sweep(inst))
        sweep_levels = list(best_line_levels)
        best_line_levels.clear()
        privacy_curve(inst)
        assert best_line_levels == sweep_levels and len(sweep_levels) == 20

    @pytest.mark.parametrize(
        "inst",
        [
            seeded_instance(60, 10, 10, 1),
            seeded_instance(60, 10, 10, 2),
            seeded_instance(60, 10, 10, 3),
            seeded_instance(60, 10, 10, 1, max_weight=2),
            seeded_instance(200, 20, 30, 1),
        ],
        ids=["60-10-10-s1", "60-10-10-s2", "60-10-10-s3", "60-10-10-ties", "200-20-30-s1"],
    )
    def test_anchor_sizes_are_the_largest_at_each_midpoint(self, inst):
        # Beyond the exhaustive hull's reach: each segment's anchor size is
        # the largest size whose best line reaches the envelope at the
        # segment's midpoint, which `_best_line` reports there.
        curve = privacy_curve(inst)
        profile = inst._profile
        top = envelope._top_mass(profile)
        sizes = []
        for seg in curve.segments:
            mid = (seg.rho_lo + seg.rho_hi) / 2
            p, q = mid.numerator, mid.denominator
            value, _, _, size = envelope._best_line(profile.prefix, inst.l, top, p, q)
            assert 1 - F(value, q * profile.den) == curve.value_at(mid)
            sizes.append(size)
        assert curve.lambda_sizes == tuple(sizes)
        assert len(set(sizes)) > 2

    def test_relabeling_symbols(self):
        inst = seeded_instance(60, 10, 10, 1)
        assert privacy_curve(relabel_symbols(inst, random.Random(4))) == privacy_curve(inst)

    def test_relabeling_outputs(self):
        inst = seeded_instance(60, 10, 10, 1)
        assert privacy_curve(relabel_outputs(inst, random.Random(5))) == privacy_curve(inst)

    def test_larger_list_never_lies_above(self):
        inst = seeded_instance(60, 10, 10, 1)
        curve = privacy_curve(inst)
        larger = privacy_curve(inst.with_list_size(inst.l + 1))
        levels = {*curve.breakpoints, *larger.breakpoints, *grid(20)}
        for rho in levels:
            assert larger.value_at(rho) <= curve.value_at(rho)


class TestMetamorphicAtScale:
    """Relations that hold where no curve or reference runs: (200, 20, 30)
    has far too many count vectors to enumerate."""

    LEVELS = (F(0), F(1, 20), F(1, 3), F(7, 10), F(1))

    def test_relabeling_symbols(self):
        inst = seeded_instance(200, 20, 30, 1)
        relabeled = relabel_symbols(inst, random.Random(2))
        for rho in self.LEVELS:
            assert privacy_bound(relabeled, rho) == privacy_bound(inst, rho)
        assert first_breakpoint(relabeled) == first_breakpoint(inst)

    def test_relabeling_outputs(self):
        inst = seeded_instance(200, 20, 30, 1)
        relabeled = relabel_outputs(inst, random.Random(3))
        for rho in self.LEVELS:
            assert privacy_bound(relabeled, rho) == privacy_bound(inst, rho)
        assert first_breakpoint(relabeled) == first_breakpoint(inst)

    def test_larger_list_never_raises_the_bound(self):
        inst = seeded_instance(200, 20, 30, 1)
        larger = inst.with_list_size(inst.l + 1)
        for rho in self.LEVELS:
            assert privacy_bound(larger, rho) <= privacy_bound(inst, rho)

    def test_larger_list_finds_its_own_first_kink(self):
        # The kink is kept per instance: one kept per shape, or shared
        # between instances, would hand the larger list the smaller's.
        inst = seeded_instance(200, 20, 30, 1)
        assert first_breakpoint(inst) == F(11, 196)
        larger = inst.with_list_size(inst.l + 1)
        fresh = Instance(pmf=inst.pmf, f=inst.f, l=inst.l + 1)
        assert first_breakpoint(larger) == privacy_curve(fresh).breakpoints[0] == F(11, 194)
        assert first_breakpoint(inst) == F(11, 196)
