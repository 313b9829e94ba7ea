"""Piecewise-affine upper bound on list privacy as a function of recoverability.

Every candidate anchor set (a subset of at most l symbols the adversary would
put on every list, whatever the response) contributes one affine function of
rho. The pointwise best anchor gives the bound at one rho; the upper envelope
of all the lines gives the whole curve, its kinks, and the staircase of anchor
cardinalities. For binary functions the bound is known to be attained, which
the optimal-mechanism constructor and the LP oracle both exercise.

Neither the bound nor the curve enumerates a line: for a fixed anchor size a
greedy over per-preimage marginal gains gives the best line at one level in
integers, and the best over every size is the bound there. One tangent sweep
on those best lines finds each piece of the curve with its line's anchor size;
its first step, once per instance, is the first kink that constructor reads.
`enumerate_lines` still lists one line per count vector, and `anchor_set`
picks its anchor, with its tie-breaks, from that list.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    Instance,
    _check_sequence,
    _check_type,
    _is_int,
    _shown,
    ensure_rho,
    format_rational,
    parse_rational,
)
from .errors import InstanceFormatError, InstanceTooLarge


# Most points `PrivacyCurve.samples`, `oracle --grid` or `simulate --grid`
# builds; `_levels` counts them before the first is built.
_MAX_POINTS = 100_000


def _levels(points: int, lo) -> list[Fraction]:
    """`points` equispaced levels from lo to 1: 2 to _MAX_POINTS, counted before any is built."""
    if not _is_int(points) or points < 2:
        raise InstanceFormatError(f"need a whole number of points >= 2, got {_shown(points)}")
    if points > _MAX_POINTS:
        raise InstanceTooLarge(f"{_shown(points)} points asked for, over {_MAX_POINTS}")
    step = Fraction(1 - lo, points - 1)
    return [lo + step * j for j in range(points)]


@dataclass(frozen=True)
class EnvelopeLine:
    """Affine contribution of one anchor set: value(rho) = intercept + slope * rho.

    The intercept is the anchor's own mass; the slope is the mass the
    remaining per-preimage top picks contribute once the response is trusted.
    """

    anchor: tuple[int, ...]
    intercept: Fraction
    slope: Fraction

    @property
    def cardinality(self) -> int:
        """The anchor's size; raises InstanceFormatError unless the anchor is
        a sequence."""
        _check_sequence("anchor", self.anchor)
        return len(self.anchor)

    def value_at(self, rho) -> Fraction:
        """The line at rho; raises RhoOutOfRange unless rho lies in [0, 1].
        The fields are read here, not checked at construction: `anchor_set`
        builds one line per count vector and reads one of them."""
        return parse_rational(self.intercept) + parse_rational(self.slope) * ensure_rho(rho)


@dataclass(frozen=True)
class AnchorSet:
    """Optimal anchor at one recoverability level, with its per-preimage split.

    `objective` is the covered mass: anchor mass plus rho times the mass of the
    per-preimage top picks outside the anchor. The privacy bound is one minus it.
    """

    members: tuple[int, ...]
    per_class_counts: tuple[int, ...]
    objective: Fraction


@dataclass(frozen=True)
class CurveSegment:
    """One affine piece of the bound: value(rho) = intercept + slope * rho on [rho_lo, rho_hi]."""

    rho_lo: Fraction
    rho_hi: Fraction
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        for name in ("rho_lo", "rho_hi", "slope", "intercept"):
            object.__setattr__(self, name, parse_rational(getattr(self, name)))

    def value_at(self, rho) -> Fraction:
        """The piece's line at rho; raises RhoOutOfRange unless rho lies in [0, 1]."""
        return self.intercept + self.slope * ensure_rho(rho)


@dataclass(frozen=True)
class PrivacyCurve:
    """The full bound on [0, 1]: contiguous segments, kink abscissas, anchor sizes.

    `breakpoints` has exactly l entries, nondecreasing; entry j-1 is where the
    optimal anchor cardinality drops below l-j+1. Transitions that never
    happen before rho = 1 are recorded at 1, and a kink where the cardinality
    drops by more than one repeats its abscissa. `lambda_sizes` gives the
    anchor cardinality on each segment.
    """

    segments: tuple[CurveSegment, ...]
    breakpoints: tuple[Fraction, ...]
    lambda_sizes: tuple[int, ...]

    def __post_init__(self):
        # Types only: whether the fields fit together is the exports' check.
        for name in ("segments", "breakpoints", "lambda_sizes"):
            _check_sequence(name, getattr(self, name))
        for seg in self.segments:
            _check_type("segment", seg, CurveSegment)
        for size in self.lambda_sizes:
            if not _is_int(size):
                raise InstanceFormatError(f"anchor sizes must be integers, got {_shown(size)}")
        object.__setattr__(self, "segments", tuple(self.segments))
        breakpoints = tuple([parse_rational(b) for b in self.breakpoints])
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "lambda_sizes", tuple(self.lambda_sizes))

    def value_at(self, rho) -> Fraction:
        """The bound at rho, from the first segment that holds it. Raises
        InstanceFormatError when none does, as on a hand-built curve whose
        segments do not cover [0, 1]."""
        rho = ensure_rho(rho)
        for seg in self.segments:
            if seg.rho_lo <= rho <= seg.rho_hi:
                return seg.value_at(rho)
        raise InstanceFormatError(f"no segment of the curve holds rho = {format_rational(rho)}")

    def samples(self, n: int) -> list[tuple[Fraction, Fraction]]:
        """n+1 equispaced exact samples of the bound on [0, 1], for a whole n >= 1;
        at most _MAX_POINTS. Errors name the n intervals asked for."""
        if not _is_int(n) or n < 1:
            raise InstanceFormatError(f"need a whole number of intervals >= 1, got {_shown(n)}")
        try:
            levels = _levels(n + 1, 0)
        except InstanceTooLarge as exc:  # its message counts points, not intervals
            raise InstanceTooLarge(f"{exc}, from {_shown(n)} intervals") from None
        return [(rho, self.value_at(rho)) for rho in levels]


def _count_vectors(sizes: list[int], budget: int) -> Iterator[tuple[int, ...]]:
    # Every (c_0, ..., c_{k-1}) with c_i <= sizes[i] and sum(c) <= budget.
    if not sizes:
        yield ()
        return
    for c in range(min(sizes[0], budget) + 1):
        for rest in _count_vectors(sizes[1:], budget - c):
            yield (c,) + rest


def enumerate_lines(inst: Instance) -> list[EnvelopeLine]:
    """One line per canonical anchor: the top c_i symbols of each preimage i.

    There is one canonical anchor per count vector c with c_i <= |preimage i|
    and sum(c) <= l. Any other anchor of at most l symbols is dominated on
    [0, 1] by the canonical anchor with the same per-preimage counts, so these
    lines have the same upper envelope as the lines of all such subsets.
    Raises InstanceFormatError unless inst is an Instance.
    """
    _check_type("instance", inst, Instance)
    _, den, orders, prefix, _ = inst._profile
    # prefix[i][c] is the mass of the c heaviest symbols of preimage i.
    prefix = [[Fraction(v, den) for v in s] for s in prefix]
    lines = []
    for counts in _count_vectors([len(order) for order in orders], inst.l):
        take = inst.l - sum(counts)
        intercept = sum(s[c] for s, c in zip(prefix, counts))
        slope = sum(s[min(c + take, len(s) - 1)] - s[c] for s, c in zip(prefix, counts))
        anchor = tuple(sorted(x for order, c in zip(orders, counts) for x in order[:c]))
        lines.append(EnvelopeLine(anchor=anchor, intercept=intercept, slope=slope))
    return lines


def _per_class_counts(inst: Instance, members: Iterable[int]) -> tuple[int, ...]:
    counts = [0] * inst.k
    for x in members:
        counts[inst.f[x]] += 1
    return tuple(counts)


def _preference(line: EnvelopeLine, rho: Fraction):
    # Sort key of the preferred line at a checked rho: highest value, then
    # largest cardinality, then the lexicographically smallest anchor. Every
    # line here comes from `enumerate_lines`, so its anchor's length is read
    # without `cardinality`'s check.
    return (-line.intercept - line.slope * rho, -len(line.anchor), line.anchor)


def anchor_set(inst: Instance, rho) -> AnchorSet:
    """Best anchor at one recoverability level, over the canonical anchors.

    Ties are resolved by largest cardinality first, then the lexicographically
    smallest index tuple. The result always decomposes as per-preimage top
    picks.
    """
    rho = ensure_rho(rho)
    best = min(enumerate_lines(inst), key=lambda line: _preference(line, rho))
    return AnchorSet(
        members=best.anchor,
        per_class_counts=_per_class_counts(inst, best.anchor),
        objective=best.value_at(rho),
    )


def privacy_bound(inst: Instance, rho) -> Fraction:
    """Upper bound on achievable list privacy at recoverability rho.

    Tight for binary functions; never exceeded by any admissible mechanism.
    It is one minus the best anchor line's value, `anchor_set`'s objective,
    without its lines or tie-breaks: at rho = p/q `_best_line` gives that
    value, by a greedy per anchor size below l and the top-l mass for size
    l, all in ints over the pmf's common denominator read from the
    instance's profile.
    """
    rho = ensure_rho(rho)
    _check_type("instance", inst, Instance)
    profile = inst._profile
    p, q = rho.numerator, rho.denominator
    value = _best_line(profile.prefix, inst.l, _top_mass(profile), p, q)[0]
    scale = q * profile.den
    return Fraction(scale - value, scale)


def privacy_at_zero(inst: Instance) -> Fraction:
    """Exact privacy in the uninformative regime: one minus the top-l mass.

    Valid for every rho up to 1/k, where the response can be ignored.
    """
    _check_type("instance", inst, Instance)
    profile = inst._profile
    return 1 - Fraction(_top_mass(profile), profile.den)


def privacy_at_one(inst: Instance) -> Fraction:
    """Exact privacy at full recoverability: guessing inside the revealed preimage."""
    _check_type("instance", inst, Instance)
    profile = inst._profile
    covered = sum([s[min(inst.l, len(s) - 1)] for s in profile.prefix])
    return 1 - Fraction(covered, profile.den)


def privacy_curve(inst: Instance) -> PrivacyCurve:
    """The whole bound as a piecewise-affine curve on [0, 1].

    The covered mass, one minus the bound, is the upper envelope of the
    anchor lines: convex in rho, and `_best_line` gives a line tangent to it
    at any level. The tangent-intersection method (Eisner & Severance,
    J. ACM 23(4), 1976) finds every kink from those tangents alone, with no
    line enumerated (`_tangent_sweep`); pieces of zero width are dropped. A
    segment's anchor size is the largest size whose best line reaches the
    envelope where the sweep found the segment's line, as `_best_line`
    returned it there. Every size owning that line reaches it there, and
    inside the segment no other line touches the envelope, so this is the
    largest size owning the line, the size at every level inside. Masses
    are ints over the pmf's common denominator, read from the instance's
    profile; Fractions are built only for the segments and breakpoints.
    """
    _check_type("instance", inst, Instance)
    profile = inst._profile
    l, den = inst.l, profile.den
    # A piece is (intercept, slope, anchor size, p, q): its line leads from
    # rho = p/q on. The l-symbol anchor leads at 0: smaller ones have less mass.
    pieces = [(_top_mass(profile), 0, l, 0, 1)]
    for piece in _tangent_sweep(inst):
        # A piece that starts where the last one did leads on no interval.
        if piece[3] * pieces[-1][4] == pieces[-1][3] * piece[4]:
            pieces.pop()
        pieces.append(piece)
    if pieces[-1][3] == pieces[-1][4]:  # nor does one that starts at 1
        pieces.pop()
    sizes = [size for _, _, size, _, _ in pieces]
    if sizes[0] != l:
        raise AssertionError("curve does not start at full anchor cardinality")
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError("anchor cardinality increased along the curve")
    starts = [Fraction(p, q) for *_, p, q in pieces] + [Fraction(1)]
    segments = [
        CurveSegment(
            rho_lo=starts[idx],
            rho_hi=starts[idx + 1],
            slope=Fraction(-slope, den),
            intercept=Fraction(den - intercept, den),
        )
        for idx, (intercept, slope, *_) in enumerate(pieces)
    ]
    # Kinks where the anchor cardinality drops give the breakpoints; a drop by
    # d emits the same abscissa d times, and drops that never happen before
    # rho = 1 are recorded at 1.
    breakpoints: list[Fraction] = []
    for idx in range(1, len(pieces)):
        breakpoints.extend([starts[idx]] * (sizes[idx - 1] - sizes[idx]))
    breakpoints.extend([Fraction(1)] * sizes[-1])
    if len(breakpoints) != l:
        raise AssertionError("breakpoint count does not match the list size")
    return PrivacyCurve(
        segments=tuple(segments),
        breakpoints=tuple(breakpoints),
        lambda_sizes=tuple(sizes),
    )


def _tangent_sweep(inst: Instance) -> Iterator[tuple[int, int, int, int, int]]:
    """The lines the tangent sweep confirms on the envelope, left to right, as
    (intercept, slope, size, p, q) in ints over the pmf's common denominator:
    the line leads from rho = p/q on, with the anchor size `_best_line` found
    it with. A crossing of the lead, at first the top-l line, and the nearest
    pending tangent is confirmed when no line beats both there; the pending
    line is yielded and becomes the lead. The first yield starts below 1, as
    k >= 2 and l < r: it is the first kink."""
    profile = inst._profile
    prefix, l, top = profile.prefix, inst.l, _top_mass(profile)
    lead, lead_slope = top, 0
    # Lines tangent to the envelope right of the lead's start, nearest last;
    # each one's tangent point lies left of the one below it.
    pending = [_best_line(prefix, l, top, 1, 1)[1:]]
    while pending:
        right = pending[-1]
        # The lead is tangent at its start and right further on, so right is
        # the steeper line and they cross at p/q, with q > 0.
        p, q = lead - right[0], right[1] - lead_slope
        best = _best_line(prefix, l, top, p, q)
        if best[0] > q * lead + p * lead_slope:
            pending.append(best[1:])
            continue
        pending.pop()
        yield (*right, p, q)
        lead, lead_slope, _ = right


def _top_mass(profile) -> int:
    # The mass of the l heaviest symbols, over the profile's denominator: the
    # value of the best line with l anchor symbols at every level.
    return sum([profile.pw[x] for x in profile.top])


def _best_line(
    prefix: Sequence[Sequence[int]], l: int, top: int, p: int, q: int
) -> tuple[int, int, int, int]:
    """(value, intercept, slope, size) of a best line at rho = p/q over every
    anchor size m = 0..l, with `prefix[i][c]` the mass of the c heaviest
    symbols of preimage i and `top` the top-l mass, in ints over one scale;
    the value q * intercept + p * slope and the gains are scaled by q, and
    any positive multiple of (p, q) gives the same line. `size` is the
    largest m whose best line reaches the value, and the line is that one.

    Size l is the top-l mass, with slope 0. For a smaller size m, with
    t = l - m, a line's value at rho is the sum over preimages of
    g_i(c_i) = (1 - rho) S_i(c_i) + rho S_i(min(c_i + t, n_i)). Each g_i is
    concave: a preimage's marginal gains never increase along its ranked
    prefix. So the m largest gains over all preimages, counted per
    preimage, give a best count vector of size m (Ibaraki & Katoh, Resource
    Allocation Problems, 1988).
    """
    best = (q * top, top, 0, l)
    # Each preimage's marginal masses, then l zeros: the look-ahead term of
    # the gain at c, the mass of symbol c + t, is 0 past the preimage's end.
    steps = [[s[c + 1] - s[c] for c in range(len(s) - 1)] + [0] * l for s in prefix]
    for m in range(l - 1, -1, -1):
        t = l - m
        gains = [
            ((q - p) * d[c] + p * d[c + t], i)
            for i, d in enumerate(steps)
            for c in range(min(len(d) - l, m))
        ]
        gains.sort(reverse=True)
        counts = [0] * len(prefix)
        for _, i in gains[:m]:
            counts[i] += 1
        intercept = sum([s[c] for s, c in zip(prefix, counts)])
        slope = sum([s[min(c + t, len(s) - 1)] for s, c in zip(prefix, counts)]) - intercept
        value = q * intercept + p * slope
        if value > best[0]:
            best = (value, intercept, slope, m)
    return best


def first_breakpoint(inst: Instance) -> Fraction:
    """Recoverability level where the bound first starts to decrease: the
    first entry of `privacy_curve(inst).breakpoints`, without the curve.

    Below it the best mechanism reveals nothing useful; the value is never
    smaller than 1/k. It is where the first line of `_tangent_sweep` leads
    from, and the sweep goes no further. It is found once per instance, on
    the first call; every later call returns the kept value
    (`Instance._first_kink`).
    """
    _check_type("instance", inst, Instance)
    return inst._first_kink


# --- exports -----------------------------------------------------------------

def curve_to_jsonable(curve: PrivacyCurve) -> dict:
    _check_type("curve", curve, PrivacyCurve)
    segments, sizes = curve.segments, curve.lambda_sizes
    if not segments or len(sizes) != len(segments):
        raise InstanceFormatError(f"curve has {len(segments)} segments and {len(sizes)} sizes")
    return {
        "breakpoints": [format_rational(b) for b in curve.breakpoints],
        "segments": [
            {
                "rho_lo": format_rational(seg.rho_lo),
                "rho_hi": format_rational(seg.rho_hi),
                "slope": format_rational(seg.slope),
                "intercept": format_rational(seg.intercept),
                "anchor_size": size,
            }
            for seg, size in zip(segments, sizes)
        ],
    }


def curve_to_text(curve: PrivacyCurve) -> str:
    return json.dumps(curve_to_jsonable(curve), indent=2) + "\n"


def curve_segments_csv(curve: PrivacyCurve) -> str:
    """Segment table with exact rational strings: the `curve_to_jsonable`
    segments, one row each, under their field names."""
    segments = curve_to_jsonable(curve)["segments"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(segments[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(segments)
    return buf.getvalue()


def curve_samples_csv(curve: PrivacyCurve, n: int) -> str:
    """Sampled table for plotting: decimals carry 12 significant digits."""
    _check_type("curve", curve, PrivacyCurve)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rho", "privacy_bound"])
    for rho, val in curve.samples(n):
        writer.writerow([f"{float(rho):.12g}", f"{float(val):.12g}"])
    return buf.getvalue()
