"""Bundled reference instances used by the CLI, the tests, and the docs.

skew7    seven symbols with a strictly handy descending pmf and a binary
         function splitting 3/4; its bound has three interior kinks.
uniform4 four equally likely symbols, binary function, pairs as preimages.
ternary5 five equally likely symbols and a ternary function with preimage
         sizes 2/2/1; the classic case where padded lists still meet the bound.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Instance, _shown
from .errors import InstanceFormatError

F = Fraction

SKEW7 = Instance(
    pmf=(F(3, 10), F(1, 5), F(3, 20), F(1, 10), F(1, 10), F(1, 10), F(1, 20)),
    f=(0, 0, 0, 1, 1, 1, 1),
    l=3,
)

UNIFORM4 = Instance(pmf=(F(1, 4),) * 4, f=(0, 0, 1, 1), l=2)

TERNARY5 = Instance(pmf=(F(1, 5),) * 5, f=(0, 0, 1, 1, 2), l=2)

CATALOG: dict[str, Instance] = {
    "skew7": SKEW7,
    "uniform4": UNIFORM4,
    "ternary5": TERNARY5,
}


def names() -> tuple[str, ...]:
    return tuple(CATALOG)


def instance(name: str) -> Instance:
    try:
        return CATALOG[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InstanceFormatError(
            f"unknown catalog instance {_shown(name)}; available: {', '.join(CATALOG)}"
        ) from None
