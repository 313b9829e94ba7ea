"""The list adversary: optimal estimators and exact privacy evaluation.

Given the response, the best l-list collects the symbols with the largest
joint mass pmf[x] * W(i|x). Privacy is the chance the true symbol misses the
list; ties in the scores never change the value, only which witness list is
reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    Instance,
    ListEstimator,
    StochasticMatrix,
    _check_type,
    check_dims,
    format_rational,
    ranked,
)


@dataclass(frozen=True)
class PrivacyReport:
    """Exact evaluation of one mechanism: privacy, witness estimator, per-output mass."""

    privacy: Fraction
    estimator: ListEstimator
    per_output_mass: tuple[Fraction, ...]


def map_list_estimator(inst: Instance, mech: StochasticMatrix) -> ListEstimator:
    """Optimal estimator: per output, the l symbols of largest posterior mass as
    `best_list` picks them; any other tie-break attains the same privacy."""
    return list_privacy(inst, mech).estimator


def best_list(scores: Sequence, l: int) -> tuple[Fraction | int, tuple[int, ...]]:
    """One output's heaviest l-list by `ranked`'s rule, as (mass, ascending indices).

    `scores[x]` is the joint mass pmf[x] * W(i|x): Fractions here, ints over one
    positive scale in the oracle's rounds. The mass keeps their type, l = 0 included.
    """
    picked = ranked(scores, range(len(scores)))[:l]
    return sum([scores[x] for x in picked], scores[0] * 0 if scores else 0), tuple(sorted(picked))


def list_privacy(inst: Instance, mech: StochasticMatrix) -> PrivacyReport:
    """Exact privacy of a mechanism against the optimal list adversary.

    The miss probability is one minus the sum over outputs of their heaviest
    l-list mass.
    """
    check_dims(inst, mech)
    lists = []
    masses = []
    for i in range(inst.k):
        mass, members = best_list([inst.pmf[x] * mech.rows[x][i] for x in range(inst.r)], inst.l)
        masses.append(mass)
        lists.append(members)
    privacy = 1 - sum(masses)
    if not 0 <= privacy <= 1:
        raise AssertionError(f"privacy {privacy} escaped [0, 1]")
    return PrivacyReport(
        privacy=privacy,
        estimator=ListEstimator(lists=tuple(lists)),
        per_output_mass=tuple(masses),
    )


def report_to_jsonable(report: PrivacyReport, inst: Instance | None = None) -> dict:
    """Structured form with exact strings, a decimal, and labeled lists when known."""
    _check_type("report", report, PrivacyReport)
    if inst is not None:
        _check_type("instance", inst, Instance)
        lists = [[inst.label_of(x) for x in lst] for lst in report.estimator.lists]
    else:
        lists = [list(lst) for lst in report.estimator.lists]
    return {
        "privacy": format_rational(report.privacy),
        "privacy_decimal": float(report.privacy),
        "per_output_mass": [format_rational(m) for m in report.per_output_mass],
        "estimator": lists,
    }


def report_to_text(report: PrivacyReport, inst: Instance | None = None) -> str:
    return json.dumps(report_to_jsonable(report, inst), indent=2) + "\n"
