"""Piecewise-affine upper bound on list privacy as a function of recoverability.

Every candidate anchor set (a subset of at most l symbols the adversary would
put on every list, whatever the response) contributes one affine function of
rho. The pointwise best anchor gives the bound at one rho; the upper envelope
of all the lines gives the whole curve, its kinks, and the staircase of anchor
cardinalities. For binary functions the bound is known to be attained, which
the optimal-mechanism constructor and the LP oracle both exercise.

The first kink, which that constructor reads, needs no curve: for a fixed
anchor size a greedy over per-preimage marginal gains gives the best line at
one level, and tangent steps on those lines reach the kink in integers.
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
    _check_type,
    _is_int,
    _shown,
    ensure_rho,
    format_rational,
)
from .errors import InstanceFormatError


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
        return len(self.anchor)

    def value_at(self, rho: Fraction) -> Fraction:
        return self.intercept + self.slope * rho


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

    def value_at(self, rho: Fraction) -> Fraction:
        return self.intercept + self.slope * rho


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

    def value_at(self, rho) -> Fraction:
        rho = ensure_rho(rho)
        for seg in self.segments:
            if seg.rho_lo <= rho <= seg.rho_hi:
                return seg.value_at(rho)
        raise AssertionError("segments do not cover [0, 1]")

    def samples(self, n: int) -> list[tuple[Fraction, Fraction]]:
        """n+1 equispaced exact samples of the bound on [0, 1]."""
        if not _is_int(n) or n < 1:
            raise InstanceFormatError(
                f"need a whole number of sampling intervals >= 1, got {_shown(n)}"
            )
        return [(Fraction(j, n), self.value_at(Fraction(j, n))) for j in range(n + 1)]


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
    # Sort key of the preferred line at rho: highest value, then largest
    # cardinality, then the lexicographically smallest anchor.
    return (-line.value_at(rho), -line.cardinality, line.anchor)


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
    """
    return 1 - anchor_set(inst, rho).objective


def privacy_at_zero(inst: Instance) -> Fraction:
    """Exact privacy in the uninformative regime: one minus the top-l mass.

    Valid for every rho up to 1/k, where the response can be ignored.
    """
    _check_type("instance", inst, Instance)
    profile = inst._profile
    return 1 - Fraction(sum([profile.pw[x] for x in profile.top]), profile.den)


def privacy_at_one(inst: Instance) -> Fraction:
    """Exact privacy at full recoverability: guessing inside the revealed preimage."""
    _check_type("instance", inst, Instance)
    profile = inst._profile
    covered = sum([s[min(inst.l, len(s) - 1)] for s in profile.prefix])
    return 1 - Fraction(covered, profile.den)


def privacy_curve(inst: Instance) -> PrivacyCurve:
    """The whole bound as a piecewise-affine curve on [0, 1].

    Builds the upper envelope of the canonical anchor lines by slope order with
    exact intersection arithmetic, then reads kinks and anchor sizes off the
    surviving pieces.
    """
    # For equal slopes only the highest intercept can ever lead, so each
    # slope keeps its first line in preference order at rho = 0.
    lines = sorted(enumerate_lines(inst), key=lambda ln: (ln.slope, _preference(ln, 0)))
    # Left-to-right sweep: keep (line, start) pairs where each line begins to
    # lead. A newcomer with a steeper slope evicts every line it overtakes at
    # or before that line's own start.
    hull: list[tuple[EnvelopeLine, Fraction]] = []
    for idx, line in enumerate(lines):
        if idx and line.slope == lines[idx - 1].slope:
            continue
        start = Fraction(0)
        while hull:
            leader, led_from = hull[-1]
            cross = (leader.intercept - line.intercept) / (line.slope - leader.slope)
            if cross <= led_from:
                hull.pop()
                continue
            start = cross
            break
        if start < 1:
            hull.append((line, start))
    segments = []
    sizes = []
    for idx, (line, start) in enumerate(hull):
        end = hull[idx + 1][1] if idx + 1 < len(hull) else Fraction(1)
        segments.append(
            CurveSegment(
                rho_lo=start,
                rho_hi=end,
                slope=-line.slope,
                intercept=1 - line.intercept,
            )
        )
        sizes.append(line.cardinality)
    if sizes[0] != inst.l:
        raise AssertionError("curve does not start at full anchor cardinality")
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError("anchor cardinality increased along the curve")
    # Kinks where the anchor cardinality drops give the breakpoints; a drop by
    # d emits the same abscissa d times, and drops that never happen before
    # rho = 1 are recorded at 1.
    breakpoints: list[Fraction] = []
    for idx in range(1, len(hull)):
        drop = sizes[idx - 1] - sizes[idx]
        breakpoints.extend([hull[idx][1]] * drop)
    breakpoints.extend([Fraction(1)] * sizes[-1])
    if len(breakpoints) != inst.l:
        raise AssertionError("breakpoint count does not match the list size")
    return PrivacyCurve(
        segments=tuple(segments),
        breakpoints=tuple(breakpoints),
        lambda_sizes=tuple(sizes),
    )


def _best_short_line(prefix: Sequence[Sequence[int]], l: int, p: int, q: int) -> tuple[int, int]:
    """(intercept, slope) of a best line whose anchor has fewer than l symbols,
    at rho = p/q, with `prefix[i][c]` the mass of the c heaviest symbols of
    preimage i in ints over one scale; gains and values are scaled by q.

    For anchor size m, with t = l - m, a line's value at rho is the sum over
    preimages of g_i(c_i) = (1 - rho) S_i(c_i) + rho S_i(min(c_i + t, n_i)).
    Each g_i is concave: a preimage's marginal gains never increase along
    its ranked prefix. So the m largest gains over all preimages, counted per
    preimage, give a best count vector of size m (Ibaraki & Katoh, Resource
    Allocation Problems, 1988).
    """
    best = (-1, 0, 0)
    for m in range(l):
        t = l - m
        gains = []
        for i, s in enumerate(prefix):
            n = len(s) - 1
            for c in range(min(n, m)):
                gain = (q - p) * (s[c + 1] - s[c]) + p * (s[min(c + 1 + t, n)] - s[min(c + t, n)])
                gains.append((gain, i))
        gains.sort(reverse=True)
        counts = [0] * len(prefix)
        for _, i in gains[:m]:
            counts[i] += 1
        intercept = sum([s[c] for s, c in zip(prefix, counts)])
        slope = sum([s[min(c + t, len(s) - 1)] for s, c in zip(prefix, counts)]) - intercept
        value = q * intercept + p * slope
        if value > best[0]:
            best = (value, intercept, slope)
    return best[1], best[2]


def first_breakpoint(inst: Instance) -> Fraction:
    """Recoverability level where the bound first starts to decrease: the
    first entry of `privacy_curve(inst).breakpoints`, without the curve.

    Below it the best mechanism reveals nothing useful; the value is never
    smaller than 1/k. It is the first rho at which a line with fewer than l
    anchor symbols reaches the top-l mass T, or 1 if none does before. The
    value of the best such line is convex and increasing in rho, so tangent
    steps from rho = 1 descend onto that root without passing it (Eisner &
    Severance, J. ACM 23(4), 1976): each step moves to the root (T - I) / S
    of the best line (I, S) at the current level, found by a greedy per
    anchor size, and the first level where the best line no longer beats T
    is the answer. All masses are ints over the pmf's common denominator,
    read from the instance's profile; no line is enumerated and no hull is
    built.
    """
    _check_type("instance", inst, Instance)
    profile = inst._profile
    prefix = profile.prefix
    top = sum([profile.pw[x] for x in profile.top])
    rho = Fraction(1)
    while True:
        p, q = rho.numerator, rho.denominator
        intercept, slope = _best_short_line(prefix, inst.l, p, q)
        if q * intercept + p * slope <= q * top:
            return rho
        rho = Fraction(top - intercept, slope)


# --- exports -----------------------------------------------------------------

def curve_to_jsonable(curve: PrivacyCurve) -> dict:
    _check_type("curve", curve, PrivacyCurve)
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
            for seg, size in zip(curve.segments, curve.lambda_sizes)
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
