"""The list adversary: optimal estimators and exact privacy evaluation.

Given the response, the best l-list collects the symbols with the largest
joint mass pmf[x] * W(i|x). Privacy is the chance the true symbol misses the
list; ties in the scores never change the value, only which witness list is
reported. One scorer, `_scores`, gives those joint masses as ints for every
best-list pick in the package: here, in the oracle's rounds and in
`oracle.active_lists`.
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
    _check_sequence,
    _check_type,
    _trusted,
    check_dims,
    check_estimator,
    format_rational,
    parse_rational,
    ranked,
)


@dataclass(frozen=True)
class PrivacyReport:
    """Exact evaluation of one mechanism: privacy, witness estimator, per-output mass."""

    privacy: Fraction
    estimator: ListEstimator
    per_output_mass: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "privacy", parse_rational(self.privacy))
        _check_type("estimator", self.estimator, ListEstimator)
        _check_sequence("per_output_mass", self.per_output_mass)
        masses = tuple([parse_rational(m) for m in self.per_output_mass])
        object.__setattr__(self, "per_output_mass", masses)


def map_list_estimator(inst: Instance, mech: StochasticMatrix) -> ListEstimator:
    """Optimal estimator: per output, the l symbols of largest posterior mass as
    `best_list` picks them; any other tie-break attains the same privacy."""
    return list_privacy(inst, mech).estimator


def best_list(scores: Sequence, l: int) -> tuple[Fraction | int, tuple[int, ...]]:
    """One output's heaviest l-list by `ranked`'s rule, as (mass, ascending indices).

    `scores[x]` is the joint mass pmf[x] * W(i|x), in this package as the ints
    of `_scores`, which give the lists of the Fraction scores; Fractions work
    too. The mass keeps their type, l = 0 included.
    """
    picked = ranked(scores, range(len(scores)))[:l]
    return sum([scores[x] for x in picked], scores[0] * 0 if scores else 0), tuple(sorted(picked))


def _scores(inst: Instance, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Per output i, every symbol's joint mass pmf[x] * W(i|x) as an int: the
    profile's pmf times `rows[x][i]`, a matrix's r rows of k ints over one
    scale, as `StochasticMatrix._scaled` gives them. The scores share the
    scale den times the rows', so `best_list` picks on them the lists of the
    Fraction scores."""
    pw = inst._profile.pw
    return [[p * w for p, w in zip(pw, column)] for column in zip(*rows)]


def list_privacy(inst: Instance, mech: StochasticMatrix) -> PrivacyReport:
    """Exact privacy of a mechanism against the optimal list adversary.

    The miss probability is one minus the sum over outputs of their heaviest
    l-list mass, each output scored by `_scores` on the matrix's integer view.
    The report is built from those checked ints through `core._trusted`:
    `best_list` gives each list sorted, distinct and in range, and the miss
    and the masses are ints over one scale, so neither the report nor its
    estimator re-parses or re-checks them. A matrix from
    `StochasticMatrix._over` is scored without its `rows` being built.
    """
    check_dims(inst, mech)
    rows, scale = mech._scaled
    scale *= inst._profile.den
    lists = []
    masses = []
    for scores in _scores(inst, rows):
        mass, members = best_list(scores, inst.l)
        masses.append(mass)
        lists.append(members)
    missed = scale - sum(masses)
    if not 0 <= missed <= scale:
        raise AssertionError(f"privacy {Fraction(missed, scale)} escaped [0, 1]")
    return _trusted(
        PrivacyReport,
        privacy=Fraction(missed, scale),
        estimator=_trusted(ListEstimator, lists=tuple(lists)),
        per_output_mass=tuple([Fraction(mass, scale) for mass in masses]),
    )


def report_to_jsonable(report: PrivacyReport, inst: Instance | None = None) -> dict:
    """Structured form with exact strings, a decimal, and labeled lists when known."""
    _check_type("report", report, PrivacyReport)
    given = report.estimator.lists
    if inst is not None:
        check_estimator(inst, report.estimator)
        lists = [[inst.label_of(x) for x in lst] for lst in given]
    else:
        lists = [list(lst) for lst in given]
    return {
        "privacy": format_rational(report.privacy),
        "privacy_decimal": float(report.privacy),
        "per_output_mass": [format_rational(m) for m in report.per_output_mass],
        "estimator": lists,
    }


def report_to_text(report: PrivacyReport, inst: Instance | None = None) -> str:
    return json.dumps(report_to_jsonable(report, inst), indent=2) + "\n"
