"""Seeded Monte Carlo check of the exact privacy numbers.

Sampling is deterministic given the seed: draws come from the stdlib Mersenne
Twister as 64-bit integers and are compared against exact cumulative
thresholds, so the realized pmfs match the rationals to within 2**-64 per
boundary. A rho sweep runs its levels one after another, level j on the
stream seeded seed + j.

The game is played in batches. Each batch takes one getrandbits call for all
of its draws, and finds most trials' outcomes in guide tables indexed by the
draws' leading bits, with bulk C-level operations (Chen & Asau's indexed
search; Devroye, Non-Uniform Random Variate Generation, ch. III). A trial
whose guide bucket a threshold splits is decided exactly. Every trial sees
the same two draws as a loop of getrandbits(64) calls, so the same seed gives
the same counts as a trial-at-a-time loop, bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Callable, Sequence

from .adversary import list_privacy
from .core import (
    Instance,
    ListEstimator,
    StochasticMatrix,
    _check_sequence,
    _is_int,
    check_dims,
    ensure_rho,
    format_rational,
)
from .errors import DimensionMismatch, InstanceFormatError

_SCALE = 1 << 64
# Trials per getrandbits call: 16 bytes of draws each, a 64 KB buffer.
_CHUNK = 4096
# Guide cells: the trial's list holds x, misses it, or needs the exact path.
_HIT, _MISS, _UNSURE = 0, 1, 2
# Offset of the low byte in a native 16-bit word, so a memoryview cast reads
# the leading 16 bits of an x draw on either byte order.
_LOW = 0 if sys.byteorder == "little" else 1


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


def derive_stream_seed(seed: int, stream: int) -> int:
    """Seed for the given sweep stream: seed + stream index."""
    return seed + stream


def _thresholds(probs: Sequence[Fraction]) -> list[int]:
    # Integer cut points on [0, 2**64): a uniform draw u selects the first
    # index whose threshold exceeds u.
    out = []
    acc = Fraction(0)
    for p in probs:
        acc += p
        out.append(math.ceil(acc * _SCALE))
    return out


def _guide(cuts: Sequence[int], bits: int, cells: Sequence, unsure) -> list:
    """Guide table over the 2**bits equal buckets of [0, 2**64).

    Bucket b holds cells[i] when every draw u in it has bisect_right(cuts, u)
    == i, and `unsure` when a cut splits it.
    """
    width = _SCALE >> bits
    table = [unsure] * (1 << bits)
    lo = 0
    for cell, hi in zip(cells, cuts):
        first, end = -(-lo // width), hi // width
        if end > first:
            table[first:end] = [cell] * (end - first)
        lo = hi
    return table


def simulate_game(
    inst: Instance,
    mech: StochasticMatrix,
    estimator: ListEstimator,
    trials: int,
    seed: int,
) -> SimReport:
    """Play the guessing game `trials` times and count list misses."""
    check_dims(inst, mech)
    if len(estimator.lists) != inst.k:
        raise DimensionMismatch(
            f"estimator has {len(estimator.lists)} lists, instance needs {inst.k}"
        )
    for i, lst in enumerate(estimator.lists):
        if lst and lst[-1] >= inst.r:
            raise DimensionMismatch(f"list {i} names symbol {lst[-1]}, alphabet is {inst.r}")
    if not _is_int(trials) or trials < 1:
        raise InstanceFormatError(f"need a whole number of trials >= 1, got {trials!r}")
    if not _is_int(seed):
        raise InstanceFormatError(f"need an integer seed, got {seed!r}")
    rng = random.Random(seed)
    x_cuts = _thresholds(inst.pmf)
    z_cuts = [_thresholds(row) for row in mech.rows]
    members = [frozenset(lst) for lst in estimator.lists]
    # One table per x maps the z draw's leading byte to the trial's outcome;
    # the x guide maps the x draw's leading 16 bits to x's table.
    outcomes = [
        bytes(_guide(cuts, 8, [_HIT if x in m else _MISS for m in members], _UNSURE))
        for x, cuts in enumerate(z_cuts)
    ]
    x_guide = _guide(x_cuts, 16, outcomes, bytes([_UNSURE]) * 256)
    misses = 0
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        # Bits [64j, 64j + 64) of one getrandbits call are the j-th of as many
        # getrandbits(64) calls: trial t draws x from word 2t, z from 2t + 1.
        draws = rng.getrandbits(128 * n).to_bytes(16 * n, "little")
        x_keys = bytearray(2 * n)
        x_keys[_LOW::2] = draws[6::16]
        x_keys[1 - _LOW::2] = draws[7::16]
        tables = map(x_guide.__getitem__, memoryview(x_keys).cast("H"))
        cells = bytes(map(getitem, tables, draws[15::16]))
        misses += cells.count(_MISS)
        # A cut splits this trial's x or z bucket: bisect its two draws.
        t = cells.find(_UNSURE)
        while t >= 0:
            x = bisect_right(x_cuts, int.from_bytes(draws[16 * t:16 * t + 8], "little"))
            z = bisect_right(z_cuts[x], int.from_bytes(draws[16 * t + 8:16 * t + 16], "little"))
            misses += x not in members[z]
            t = cells.find(_UNSURE, t + 1)
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

    Every level is checked before any is simulated.
    """
    _check_sequence("rhos", rhos)
    levels = [ensure_rho(rho) for rho in rhos]
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
    return {
        "trials": report.trials,
        "misses": report.misses,
        "empirical_privacy": report.empirical_privacy,
        "std_error": report.std_error,
        "seed": report.seed,
    }


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
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
