"""Seeded Monte Carlo check of the exact privacy numbers.

Sampling is deterministic given the seed: draws come from the stdlib Mersenne
Twister as 64-bit integers and are compared against exact cumulative
thresholds, so the realized pmfs match the rationals to within 2**-64 per
boundary and a rerun with the same seed is bit-identical. A rho sweep runs
its levels one after another, level j on the stream seeded seed + j.
"""

from __future__ import annotations

import csv
import io
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .adversary import list_privacy
from .core import Instance, ListEstimator, StochasticMatrix, check_dims, format_rational
from .errors import DimensionMismatch, InstanceFormatError

_SCALE = 1 << 64


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
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise InstanceFormatError(f"need a whole number of trials >= 1, got {trials!r}")
    rng = random.Random(seed)
    draw = rng.getrandbits
    x_cuts = _thresholds(inst.pmf)
    z_cuts = [_thresholds(row) for row in mech.rows]
    members = [frozenset(lst) for lst in estimator.lists]
    misses = 0
    for _ in range(trials):
        x = bisect_right(x_cuts, draw(64))
        z = bisect_right(z_cuts[x], draw(64))
        if x not in members[z]:
            misses += 1
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
    """Simulate across levels; stream j uses derive_stream_seed(seed, j)."""
    points = []
    for j, rho in enumerate(rhos):
        mech = mech_for_rho(rho)
        exact = list_privacy(inst, mech)
        report = simulate_game(
            inst, mech, exact.estimator, trials, derive_stream_seed(seed, j)
        )
        points.append(
            SweepPoint(
                rho=Fraction(rho),
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
