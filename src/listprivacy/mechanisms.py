"""Query-response mechanism constructors and their file format.

A mechanism is a row-stochastic matrix from symbols to output symbols. The
add-noise family applies a channel to the function value itself, so rows agree
inside each preimage. For binary functions the flip channel built from the
curve's first kink is exactly optimal at every recoverability level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import catalog
from .core import (
    Instance,
    StochasticMatrix,
    _check_type,
    _shown,
    check_dims,
    ensure_rho,
    format_rational,
    instance_digest,
    load_json,
    parse_rational,
)
from .envelope import first_breakpoint
from .errors import (
    DigestMismatch,
    DimensionMismatch,
    InstanceFormatError,
    NotBinaryFunction,
    NotRowStochastic,
    RhoOutOfRange,
)


@dataclass(frozen=True)
class NoisePmf:
    """A k x k channel on output symbols; row i is the noise pmf given value i.

    StochasticMatrix checks the rows; this constructor adds only that the
    channel is square.
    """

    conditional: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = StochasticMatrix(rows=self.conditional).rows
        object.__setattr__(self, "conditional", rows)
        if len(rows[0]) != len(rows):
            raise NotRowStochastic(f"noise channel is {len(rows)}x{len(rows[0])}, not square")

    @property
    def k(self) -> int:
        return len(self.conditional)


def uniform_qr(inst: Instance) -> StochasticMatrix:
    """Every output equally likely regardless of the symbol; recoverable at 1/k."""
    _check_type("instance", inst, Instance)
    k = inst.k
    return add_noise_qr(inst, NoisePmf(conditional=((Fraction(1, k),) * k,) * k))


def deterministic_qr(inst: Instance) -> StochasticMatrix:
    """Reports the function value outright; recoverable at 1."""
    _check_type("instance", inst, Instance)
    k = inst.k
    return add_noise_qr(inst, NoisePmf(conditional=((1,) + (0,) * (k - 1),) * k))


def add_noise_qr(inst: Instance, noise: NoisePmf) -> StochasticMatrix:
    """Pass the function value through a modular additive channel.

    Output j given symbol x has probability noise[f(x)][(j - f(x)) mod k], so
    row i of the noise channel is the offset distribution used by preimage i.
    Rows agree inside every preimage by construction: every symbol of
    preimage i shares one row object, which StochasticMatrix checks once.
    """
    _check_type("instance", inst, Instance)
    _check_type("noise channel", noise, NoisePmf)
    if noise.k != inst.k:
        raise DimensionMismatch(f"noise channel is {noise.k}-ary, instance needs {inst.k}")
    k = inst.k
    per_value = [
        tuple([noise.conditional[i][(j - i) % k] for j in range(k)]) for i in range(k)
    ]
    return StochasticMatrix(rows=tuple([per_value[i] for i in inst.f]))


def optimal_binary_qr(inst: Instance, rho) -> StochasticMatrix:
    """The exactly optimal mechanism for a binary function at level rho.

    Reports the true value with probability max(rho, rho1) where rho1 is the
    curve's first kink, and flips it otherwise. Constant in rho below rho1.
    rho1 is found once per instance (`first_breakpoint`), so a sweep over
    levels pays for it once; each level then builds the add-noise rows of
    that flip channel, one row object per output value, in one matrix.
    """
    _check_type("instance", inst, Instance)
    rho = ensure_rho(rho)
    if inst.k != 2:
        raise NotBinaryFunction(f"function has {inst.k} output symbols")
    keep = max(rho, first_breakpoint(inst))
    flip = 1 - keep
    per_value = ((keep, flip), (flip, keep))
    return StochasticMatrix(rows=tuple([per_value[i] for i in inst.f]))


def ternary_example_qr(rho) -> tuple[Instance, StochasticMatrix]:
    """Reference mechanism on the bundled ternary5 instance, for rho in [1/2, 1].

    Not an add-noise construction: the singleton preimage hedges its
    complement mass across both other outputs, yet the mechanism still meets
    the privacy bound 1 - rho on the whole interval.
    """
    rho = parse_rational(rho)
    if not Fraction(1, 2) <= rho <= 1:
        raise RhoOutOfRange(f"this construction needs rho in [1/2, 1], got {rho}")
    inst = catalog.TERNARY5
    comp = 1 - rho
    half = comp / 2
    rows = (
        (rho, comp, Fraction(0)),
        (rho, comp, Fraction(0)),
        (comp, rho, Fraction(0)),
        (comp, rho, Fraction(0)),
        (half, half, rho),
    )
    return inst, StochasticMatrix(rows=rows)


# --- file format --------------------------------------------------------------

def matrix_to_jsonable(mech: StochasticMatrix, inst: Instance | None = None) -> dict:
    """Row-major exact strings, plus the instance digest when one is supplied."""
    _check_type("mechanism", mech, StochasticMatrix)
    out: dict = {
        "rows": [[format_rational(v) for v in row] for row in mech.rows],
    }
    if inst is not None:
        out["instance_digest"] = instance_digest(inst)
    return out


def matrix_to_text(mech: StochasticMatrix, inst: Instance | None = None) -> str:
    return json.dumps(matrix_to_jsonable(mech, inst), indent=2) + "\n"


def _parse_rows(text: str, kind: str) -> tuple[Mapping, tuple[tuple, ...]]:
    """The parsed file and its 'rows' field, checked to be a list of lists."""
    raw = load_json(text)
    if not isinstance(raw, Mapping) or "rows" not in raw:
        raise InstanceFormatError(f"{kind} file needs a 'rows' field")
    rows = raw["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InstanceFormatError(f"{kind} file 'rows' must be a list of lists")
    return raw, tuple(tuple(row) for row in rows)


def parse_matrix(text: str, inst: Instance | None = None) -> StochasticMatrix:
    """Parse a mechanism file; verify its digest when an instance is supplied."""
    raw, rows = _parse_rows(text, "mechanism")
    mech = StochasticMatrix(rows=rows)
    if inst is not None:
        stored = raw.get("instance_digest")
        if stored is not None and stored != instance_digest(inst):
            raise DigestMismatch(
                "mechanism file was written for a different instance "
                f"(digest {_shown(stored)}, expected {instance_digest(inst)})"
            )
        check_dims(inst, mech)
    return mech


def parse_noise(text: str) -> NoisePmf:
    return NoisePmf(conditional=_parse_rows(text, "noise")[1])
