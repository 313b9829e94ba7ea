"""Seeded Monte Carlo check of the exact privacy numbers.

Sampling is deterministic given the seed: draws come from the stdlib Mersenne
Twister as 64-bit integers and are compared against exact cumulative
thresholds, so the realized pmfs match the rationals to within 2**-64 per
boundary. A rho sweep runs its levels one after another, level j on the
stream seeded seed + j; seeds are non-negative, as random.Random seeds by an
int's absolute value.

The game is played in chunks. Each chunk takes one getrandbits call for all
of its draws and decides most trials with bulk C-level operations, one byte
lane per trial: bytes.translate through 256-entry tables, and big-int
arithmetic on the lanes.

- Classes. A symbol hits when the list of every response it can draw holds
  it, misses when none does, and is otherwise mixed. One byte holds 253
  lane classes: the first 253 mixed symbols in index order get one each,
  and every later mixed symbol is unsure. Neighbouring symbols of one class
  are one run, so only cuts between runs of different classes count.
- x. The x draw's leading byte names one of 256 buckets, and a translate
  gives the class at the bucket's start. A cut inside the bucket is passed
  exactly when the draw's second byte s is at least the cut's second-byte
  ceiling T: the lane sum s + (256 - T) carries. The carries are computed
  lane-wise under masks, so none crosses into the next trial's lane, and
  each xors in the class change at its cut; a bucket with several cuts takes
  one such level per cut. When s is the cut's own second byte and the cut
  is not on a second-byte boundary, s cannot place the draw: the trial is
  unsure.
- z. One bytes.count counts the trials of symbols that always miss. Mixed
  symbols share byte lanes, 8 to a group: per group, a translate of the class
  bytes gives each trial's lane bit, translates of the z draw's leading byte
  give the bits that miss and the bits whose bucket a cut splits, and & with
  int.bit_count count the misses.
- Unsure trials (an x draw on its cut's second byte, a z bucket that a cut
  splits, or a mixed symbol without a lane) are placed by bisecting their
  two full 64-bit draws.

Every bulk decision is one that bisection on the full draw would make, and
every trial sees the same two draws as a loop of getrandbits(64) calls, so
the same seed gives the same counts as a trial-at-a-time loop, bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import random
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .adversary import list_privacy
from .core import (
    Instance,
    ListEstimator,
    StochasticMatrix,
    _check_sequence,
    _check_type,
    _is_int,
    _shown,
    check_dims,
    check_estimator,
    ensure_rho,
    format_rational,
    parse_rational,
)
from .errors import InstanceFormatError

_SCALE = 1 << 64
# Trials per getrandbits call: 16 bytes of draws each, a 64 KB buffer.
_CHUNK = 4096
# Widths of the buckets an x draw's leading byte names, and of the cells its
# second byte names within one.
_BUCKET = _SCALE >> 8
_CELL = _SCALE >> 16
# Trial classes, one byte each: x is in the list of every response it can
# draw, of none, is the mixed symbol of lane class _MIXED + m, or is unsure.
_HIT, _MISS, _MIXED, _UNSURE = 0, 1, 2, 255
# Byte-lane masks, one lane per trial of a chunk: 1, the low seven bits and
# the top bit of every lane.
_ONES = int.from_bytes(b"\x01" * _CHUNK, "little")
_LOW7 = _ONES * 0x7F
_TOP = _ONES << 7
# Translate tables: 255 stays 255 and every other byte becomes 0; every
# nonzero byte becomes 1.
_IS_255 = bytes(255) + b"\xff"
_NONZERO = b"\x00" + b"\x01" * 255


@dataclass(frozen=True)
class SimReport:
    """Outcome of one simulation run; empirical_privacy = misses / trials."""

    trials: int
    misses: int
    empirical_privacy: float
    std_error: float
    seed: int


@dataclass(frozen=True)
class SweepPoint:
    """One row of a rho sweep, comparing the run to the exact value."""

    rho: Fraction
    empirical: float
    analytic: Fraction
    abs_error: float

    def __post_init__(self):
        object.__setattr__(self, "rho", parse_rational(self.rho))
        object.__setattr__(self, "analytic", parse_rational(self.analytic))
        _check_type("empirical", self.empirical, float)
        _check_type("abs_error", self.abs_error, float)


def _check_seed(seed):
    # random.Random seeds by an int's absolute value, so a negative seed
    # would replay the stream of its positive twin under another name.
    if not _is_int(seed):
        raise InstanceFormatError(f"need an integer seed, got {_shown(seed)}")
    if seed < 0:
        raise InstanceFormatError(f"need a non-negative seed, got {_shown(seed)}")


def _check_trials(trials):
    if not _is_int(trials) or trials < 1:
        raise InstanceFormatError(f"need a whole number of trials >= 1, got {_shown(trials)}")


def derive_stream_seed(seed: int, stream: int) -> int:
    """Seed for the given sweep stream: seed + stream index. Both are
    non-negative ints, so the streams of one seed get distinct seeds."""
    _check_seed(seed)
    if not _is_int(stream) or stream < 0:
        raise InstanceFormatError(f"need a non-negative stream index, got {_shown(stream)}")
    return seed + stream


def _thresholds(nums: Sequence[int], den: int) -> list[int]:
    # Integer cut points on [0, 2**64): a uniform draw u selects the first
    # index whose threshold exceeds u. Cut i is 2**64 times the sum of masses
    # 0 to i, rounded up; the masses are the ints nums over den.
    return [-(-acc * _SCALE // den) for acc in accumulate(nums)]


def _guide(cuts: Sequence[int], cells: Sequence, unsure) -> list:
    """Guide table over the 256 buckets that a draw's leading byte names.

    Bucket b holds cells[i] when every draw u in it has bisect_right(cuts, u)
    == i, and `unsure` when a cut splits it.
    """
    table = [unsure] * 256
    lo = 0
    for cell, hi in zip(cells, cuts):
        first, end = -(-lo // _BUCKET), hi // _BUCKET
        if end > first:
            table[first:end] = [cell] * (end - first)
        lo = hi
    return table


def _runs(cuts: Sequence[int], cells: Sequence) -> tuple[list[int], list]:
    """Cuts and cells of the runs of equal cells, empty bins left out.

    A draw's run gives its cell as bisection over `cuts` gives its bin's
    cell, so only the cuts where the cell changes can split a bucket.
    """
    run_cuts: list[int] = []
    run_cells: list = []
    lo = 0
    for hi, cell in zip(cuts, cells):
        if hi == lo:
            continue
        if run_cells and run_cells[-1] == cell:
            run_cuts[-1] = hi
        else:
            run_cuts.append(hi)
            run_cells.append(cell)
        lo = hi
    return run_cuts, run_cells


def _x_tables(cuts: Sequence[int], classes: Sequence[int]) -> tuple[bytes, list]:
    """Class tables over the x draw's leading byte, from strictly increasing
    cuts and the class of each bin.

    Returns each bucket's first class and one (add, flip, amb) triple per
    level, level j holding the j-th interior cut of each bucket: 256 minus
    the cut's second-byte ceiling, the xor of the classes on its two sides,
    and 0x80 when those differ and a draw's second byte cannot place it. A
    bucket with more interior cuts than levels is _UNSURE.
    """
    interior = [i for i, c in enumerate(cuts) if c % _BUCKET]
    counts: dict[int, int] = {}
    for i in interior:
        counts[cuts[i] >> 56] = counts.get(cuts[i] >> 56, 0) + 1
    # A level costs a chunk about as much as one bucket's trials on the exact
    # path: take the depth that minimizes the two together.
    ranked = sorted(counts.values(), reverse=True) + [0]
    depth = min((m + i, m) for i, m in enumerate(ranked))[1]
    first = bytearray(_guide(cuts, classes, _UNSURE))
    levels = [(bytearray(256), bytearray(256), bytearray(256)) for _ in range(depth)]
    j = b = -1
    for i in interior:
        rem = cuts[i] % _BUCKET
        j = j + 1 if cuts[i] >> 56 == b else 0
        b = cuts[i] >> 56
        if counts[b] > depth:
            continue
        if j == 0:
            first[b] = classes[i]
        add, flip, amb = levels[j]
        add[b] = 256 + (-rem // _CELL)
        flip[b] = classes[i] ^ classes[i + 1]
        amb[b] = 0x80 if rem % _CELL and flip[b] else 0
    return bytes(first), [tuple(map(bytes, level)) for level in levels]


def _lane_tables(
    group: Sequence[tuple[list[int], list[bool]]], offset: int
) -> tuple[bytes, bytes, bytes]:
    """Tables for up to 8 mixed symbols, bit j of a byte standing for group[j],
    given as the runs of its z draw that hit and miss its list.

    `pick` maps a class byte to its symbol's bit (symbol j has class
    _MIXED + offset + j); `miss` and `split` map the z draw's leading byte to
    the bits of the symbols whose z bucket there misses their list or is
    split by a cut.
    """
    pick = bytearray(256)
    miss = split = 0
    for j, (cuts, hits) in enumerate(group):
        bit = 1 << j
        pick[_MIXED + offset + j] = bit
        cells = [0 if hit else bit for hit in hits]
        miss |= int.from_bytes(bytes(_guide(cuts, cells, 0)), "little")
        split |= int.from_bytes(bytes(_guide(cuts, [0] * len(cuts), bit)), "little")
    return bytes(pick), miss.to_bytes(256, "little"), split.to_bytes(256, "little")


def simulate_game(
    inst: Instance,
    mech: StochasticMatrix,
    estimator: ListEstimator,
    trials: int,
    seed: int,
) -> SimReport:
    """Play the guessing game `trials` times and count list misses.

    The seed is a non-negative int; each seed gives its own stream.
    """
    check_dims(inst, mech)
    check_estimator(inst, estimator)
    _check_trials(trials)
    _check_seed(seed)
    rng = random.Random(seed)
    x_cuts = _thresholds(inst._profile.pw, inst._profile.den)
    rows, den = mech._scaled
    members = [frozenset(lst) for lst in estimator.lists]
    # The outputs whose list holds x, ascending, for every listed symbol x.
    listed: dict[int, tuple[int, ...]] = {}
    for i, lst in enumerate(estimator.lists):
        for x in lst:
            listed[x] = listed.get(x, ()) + (i,)
    # Per symbol, its z draw's cuts and the runs of them that hit and miss
    # its list. Symbols that hold one row object share its int tuple, so
    # each distinct row's cuts are computed once, and its runs once per set
    # of lists that hold the symbol. A symbol with one run has a constant
    # class; the first 253 mixed symbols each have a lane class of their
    # own, and later ones are unsure.
    cuts_of: dict[int, list[int]] = {}
    runs_of: dict[tuple, tuple[list[int], list]] = {}
    z_cuts, z_runs = [], []
    for x, row in enumerate(rows):
        cuts = cuts_of.get(id(row))
        if cuts is None:
            cuts = cuts_of[id(row)] = _thresholds(row, den)
        key = (id(row), listed.get(x, ()))
        runs = runs_of.get(key)
        if runs is None:
            runs = runs_of[key] = _runs(cuts, [i in key[1] for i in range(inst.k)])
        z_cuts.append(cuts)
        z_runs.append(runs)
    laned = [x for x, (_, hits) in enumerate(z_runs) if len(hits) > 1][:_UNSURE - _MIXED]
    lane_class = {x: _MIXED + j for j, x in enumerate(laned)}
    classes = [
        lane_class.get(x, _UNSURE) if len(hits) > 1 else _HIT if hits[0] else _MISS
        for x, (_, hits) in enumerate(z_runs)
    ]
    first, levels = _x_tables(*_runs(x_cuts, classes))
    group = [z_runs[x] for x in laned]
    lanes = [_lane_tables(group[m:m + 8], m) for m in range(0, len(group), 8)]
    misses = 0
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        # Bits [64j, 64j + 64) of one getrandbits call are the j-th of as many
        # getrandbits(64) calls: trial t draws x from word 2t, z from 2t + 1.
        draws = rng.getrandbits(128 * n).to_bytes(16 * n, "little")
        lead = draws[7::16]
        z_lead = draws[15::16]
        # One byte lane per trial: the x draw's second byte.
        second = int.from_bytes(draws[6::16], "little")
        low7 = second & _LOW7
        cls = int.from_bytes(lead.translate(first), "little")
        ambiguous = 0
        for add, flip, amb in levels:
            step = int.from_bytes(lead.translate(add), "little")
            # Lane sums of the low seven bits: no carry leaves its lane.
            low = low7 + (step & _LOW7)
            # The carry out of second + step: the draw is past the cut.
            passed = ((second & step) | ((second | step) & low)) & _TOP
            cls ^= (passed >> 7) * 255 & int.from_bytes(lead.translate(flip), "little")
            # A lane sum of 255: the draw's second byte is the cut's.
            is_255 = ((low & _LOW7) + _ONES) & (low ^ second ^ step)
            ambiguous |= is_255 & int.from_bytes(lead.translate(amb), "little")
        cls_bytes = (cls | (ambiguous >> 7) * 255).to_bytes(n, "little")
        misses += cls_bytes.count(_MISS)
        unsure = int.from_bytes(cls_bytes.translate(_IS_255), "little")
        for pick, miss, split in lanes:
            lane = int.from_bytes(cls_bytes.translate(pick), "little")
            misses += (lane & int.from_bytes(z_lead.translate(miss), "little")).bit_count()
            unsure |= lane & int.from_bytes(z_lead.translate(split), "little")
        if not unsure:
            continue
        # A cut splits this trial's x cell or z bucket, or its symbol has no
        # lane: bisect its two draws.
        exact = unsure.to_bytes(n, "little").translate(_NONZERO)
        t = exact.find(1)
        while t >= 0:
            x = bisect_right(x_cuts, int.from_bytes(draws[16 * t:16 * t + 8], "little"))
            z = bisect_right(z_cuts[x], int.from_bytes(draws[16 * t + 8:16 * t + 16], "little"))
            misses += x not in members[z]
            t = exact.find(1, t + 1)
    p = misses / trials
    return SimReport(
        trials=trials,
        misses=misses,
        empirical_privacy=p,
        std_error=math.sqrt(p * (1 - p) / trials),
        seed=seed,
    )


def privacy_sweep(
    inst: Instance,
    mech_for_rho: Callable[[Fraction], StochasticMatrix],
    rhos: Sequence[Fraction],
    trials: int,
    seed: int,
) -> list[SweepPoint]:
    """Simulate across levels; stream j uses derive_stream_seed(seed, j).

    The instance, that mech_for_rho is callable, every level, the trial
    count and the seed are checked before any level is simulated.
    """
    _check_type("instance", inst, Instance)
    _check_type("mech_for_rho", mech_for_rho, Callable)
    _check_sequence("rhos", rhos)
    levels = [ensure_rho(rho) for rho in rhos]
    _check_trials(trials)
    _check_seed(seed)
    points = []
    for j, rho in enumerate(levels):
        mech = mech_for_rho(rho)
        exact = list_privacy(inst, mech)
        report = simulate_game(
            inst, mech, exact.estimator, trials, derive_stream_seed(seed, j)
        )
        points.append(
            SweepPoint(
                rho=rho,
                empirical=report.empirical_privacy,
                analytic=exact.privacy,
                abs_error=abs(report.empirical_privacy - float(exact.privacy)),
            )
        )
    return points


def report_to_jsonable(report: SimReport) -> dict:
    _check_type("report", report, SimReport)
    return {
        "trials": report.trials,
        "misses": report.misses,
        "empirical_privacy": report.empirical_privacy,
        "std_error": report.std_error,
        "seed": report.seed,
    }


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    _check_sequence("sweep points", points)
    for pt in points:
        _check_type("sweep point", pt, SweepPoint)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rho", "empirical", "analytic", "abs_error"])
    for pt in points:
        writer.writerow(
            [
                format_rational(pt.rho),
                f"{pt.empirical:.12g}",
                format_rational(pt.analytic),
                f"{pt.abs_error:.12g}",
            ]
        )
    return buf.getvalue()
