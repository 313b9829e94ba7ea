"""Exact domain types: problem instances, row-stochastic mechanisms, list estimators.

Values are exact throughout. Probabilities are `fractions.Fraction` values at
the API; inside, the work is done in ints over common denominators, and an
instance's pmf in that form, with its rankings, is read from the instance's
profile (`Instance._profile`). Nothing in this package ever rounds;
serialization keeps the exact numerator/denominator form so a round trip is
bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadFunctionRange,
    DimensionMismatch,
    EmptyPreimage,
    InstanceFormatError,
    ListSizeOutOfRange,
    NotRowStochastic,
    PmfNotNormalized,
    RhoOutOfRange,
    TooManyRequested,
    ZeroMassSymbol,
)

# Exact carrier for every probability and recoverability level in the package.
Rational = Fraction

ZERO = Fraction(0)

# Most decimal digits int() reads and str() writes (the default if unlimited).
_MAX_DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
# An int of at most this many bits has at most _MAX_DIGITS digits, as 2**3 < 10.
_MAX_BITS = 3 * _MAX_DIGITS


def parse_rational(value) -> Fraction:
    """Parse an exact rational from "p/q", a decimal literal, an int or a Fraction.

    Decimal strings are exact: "0.3" becomes 3/10, never a float. Floats are
    accepted for convenience and go through their shortest decimal repr. Any
    value too long to write back (sys.get_int_max_str_digits) is rejected,
    and so is, before it is expanded, an exponent that makes this certain.
    """
    if isinstance(value, float):
        value = repr(value)
    try:
        if isinstance(value, Fraction):
            q = value
        elif _is_int(value):
            q = Fraction(value)
        elif isinstance(value, str):
            exponent = value.lower().partition("e")[2]
            # int() caps the mantissa at _MAX_DIGITS digits, so past twice that an
            # exponent leaves a part too long to write; Fraction would expand it.
            if exponent and abs(int(exponent)) > 2 * _MAX_DIGITS:
                raise ValueError("exponent too large")
            q = Fraction(value.strip())
        else:
            raise ValueError("not a number")
        if q.numerator.bit_length() > _MAX_BITS or q.denominator.bit_length() > _MAX_BITS:
            str(q)  # ValueError when a part is too long to write back
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"not a rational: {_shown(value)}") from exc
    return q


def _check_sequence(name: str, value):
    """Raise InstanceFormatError unless value is a sequence other than a string."""
    if type(value) in (tuple, list):  # the common case, without the slow ABC test
        return
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise InstanceFormatError(f"{name} must be a sequence, got {type(value).__name__}")


def _check_type(name: str, value, kind: type):
    """Raise InstanceFormatError unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise InstanceFormatError(f"{name} must be {kind.__name__}, got {type(value).__name__}")


def _shown(value) -> str:
    """A value as an error message echoes it: a Fraction as its str, anything else
    as its repr cut to 80 characters, and a number too long to write
    (sys.get_int_max_str_digits) as its side of 1."""
    try:
        return str(value) if isinstance(value, Fraction) else repr(value)[:80]
    except ValueError:  # a part too long to write, perhaps inside a container
        if isinstance(value, (int, Fraction)):
            return f"{'more' if value > 1 else 'less'} than 1 (a number too long to write)"
        return f"a {type(value).__name__} too long to write"


def _is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def format_rational(value) -> str:
    """Canonical exact string (e.g. 3/10, 1, 0) of any value parse_rational reads."""
    return str(parse_rational(value))


def ensure_rho(rho) -> Fraction:
    """Parse a recoverability level and require it to lie in [0, 1]."""
    rho = parse_rational(rho)
    if not 0 <= rho <= 1:
        raise RhoOutOfRange(f"recoverability level {rho} outside [0, 1]")
    return rho


class _Profile(NamedTuple):
    """An instance's pmf in ints and its top picks, as `Instance._profile` gives them."""

    pw: tuple[int, ...]  # the pmf as ints over den, its common denominator
    den: int
    orders: tuple[tuple[int, ...], ...]  # each preimage, heaviest first
    prefix: tuple[tuple[int, ...], ...]  # prefix[i][c]: mass of orders[i][:c], over den
    top: tuple[int, ...]  # the l heaviest symbols, ascending


@dataclass(frozen=True)
class Instance:
    """A finite estimation problem: pmf on {0..r-1}, function f into {0..k-1}, list size l.

    The constructor is the only place an instance is checked, so an Instance
    in hand is always sound: pmf, f and labels are non-string sequences, the
    pmf is positive and sums to one, f is a surjection onto {0..k-1} with
    2 <= k <= r, and 1 <= l < r. `labels` is optional display metadata and
    plays no role in any computation.
    """

    pmf: tuple[Fraction, ...]
    f: tuple[int, ...]
    l: int
    k: int = None  # type: ignore[assignment]  # derived from f when omitted
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        labels = () if self.labels is None else self.labels
        for name, value in (("pmf", self.pmf), ("f", self.f), ("labels", labels)):
            _check_sequence(name, value)
        pmf = tuple([parse_rational(p) for p in self.pmf])
        object.__setattr__(self, "pmf", pmf)
        f = tuple(self.f)
        object.__setattr__(self, "f", f)
        r = len(pmf)
        if r == 0:
            raise InstanceFormatError("pmf is empty")
        if len(f) != r:
            raise InstanceFormatError(f"pmf has {r} entries but f has {len(f)}")
        for v in f:
            if not _is_int(v) or v < 0:
                raise BadFunctionRange(f"function value {_shown(v)} is not a nonnegative integer")
        k = self.k if self.k is not None else max(f) + 1
        if not _is_int(k):
            raise InstanceFormatError(f"k must be an integer, got {_shown(self.k)}")
        object.__setattr__(self, "k", k)
        if k < 2 or k > r:
            raise BadFunctionRange(f"need 2 <= k <= r, got k={_shown(k)} with r={r}")
        for x, v in enumerate(f):
            if v >= k:
                raise BadFunctionRange(f"f({x})={_shown(v)} outside {{0..{k - 1}}}")
        for x, p in enumerate(pmf):
            if p <= 0:
                raise ZeroMassSymbol(f"pmf entry {x} is {p}; every symbol needs positive mass")
        total = sum(pmf)
        if total != 1:
            raise PmfNotNormalized(f"pmf sums to {_shown(total)}")
        seen = set(f)
        for i in range(k):
            if i not in seen:
                raise EmptyPreimage(f"output symbol {i} is never taken")
        if not _is_int(self.l) or not 1 <= self.l < r:
            raise ListSizeOutOfRange(f"need 1 <= l < r, got l={_shown(self.l)} with r={r}")
        if self.labels is not None:
            labels = []
            for s in self.labels:
                try:
                    labels.append(str(s))
                except ValueError as exc:  # a number too long to write, perhaps in a container
                    raise InstanceFormatError(f"a label cannot be written: {_shown(s)}") from exc
            labels = tuple(labels)
            if len(labels) != r:
                raise InstanceFormatError(f"{len(labels)} labels for {r} symbols")
            object.__setattr__(self, "labels", labels)

    @property
    def r(self) -> int:
        """Alphabet size."""
        return len(self.pmf)

    @cached_property
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        """Index sets f^-1(i) for i = 0..k-1, each sorted ascending."""
        buckets: list[list[int]] = [[] for _ in range(self.k)]
        for x, v in enumerate(self.f):
            buckets[v].append(x)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def _profile(self) -> _Profile:
        """The pmf's integer form and its rankings by `ranked`'s rule, computed
        once per instance: the only place the pmf is scaled or ranked. Ints
        over one positive scale rank as the Fractions do, ties included."""
        pw, den = over_common_denominator(self.pmf)
        pw = tuple(pw)
        orders = tuple([tuple(ranked(pw, block)) for block in self.preimages])
        prefix = tuple([tuple(accumulate([pw[x] for x in order], initial=0)) for order in orders])
        top = tuple(sorted(ranked(pw, range(self.r))[: self.l]))
        return _Profile(pw, den, orders, prefix, top)

    def mass(self, members: Iterable[int]) -> Fraction:
        """Total pmf mass of a set of symbols."""
        return sum((self.pmf[x] for x in members), ZERO)

    def with_list_size(self, l: int) -> "Instance":
        """Same pmf and function, different list size."""
        return Instance(self.pmf, self.f, l, self.k, self.labels)

    def label_of(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic r x k matrix; rows[x][i] is the chance of output i given x.

    Entries are exact rationals, each row sums to exactly one; signs are
    read off the numerators and each sum is taken in ints over its row's
    common denominator.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_sequence("rows", self.rows)
        for row in self.rows:
            _check_sequence("a row", row)
        # Tuples on per-operation paths are built from lists: tuple() of a
        # generator shrinks an oversized tuple, which skips CPython's tuple
        # free lists on allocation but refills them on release.
        rows = tuple([tuple([parse_rational(v) for v in row]) for row in self.rows])
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise NotRowStochastic("matrix has no entries")
        width = len(rows[0])
        for x, row in enumerate(rows):
            if len(row) != width:
                raise NotRowStochastic(f"row {x} has {len(row)} entries, expected {width}")
            for v in row:
                if v.numerator < 0:
                    raise NotRowStochastic(f"row {x} has negative entry {v}")
            # The sum in ints over the row's common denominator; the Fraction
            # total is built only for the message.
            nums, den = over_common_denominator(row)
            if sum(nums) != den:
                raise NotRowStochastic(f"row {x} sums to {_shown(sum(row))}")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.rows[0])

    def entry(self, x: int, i: int) -> Fraction:
        return self.rows[x][i]


@dataclass(frozen=True)
class ListEstimator:
    """One candidate list per output symbol; lists[i] is the guess set for output i."""

    lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            lists = tuple([tuple(sorted(lst)) for lst in self.lists])
        except TypeError as exc:  # not iterable, or entries that do not compare
            raise InstanceFormatError(f"estimator lists are not lists of integers: {exc}") from exc
        # type() is the cheap test here (one estimator per list_privacy call); it refuses bools.
        if not all(type(x) is int for lst in lists for x in lst):
            raise InstanceFormatError(f"estimator lists must hold integers, got {_shown(lists)}")
        object.__setattr__(self, "lists", lists)
        if not lists:
            raise InstanceFormatError("estimator has no lists")
        size = len(lists[0])
        for i, lst in enumerate(lists):
            if len(lst) != size:
                raise InstanceFormatError(f"list {i} has {len(lst)} entries, expected {size}")
            if len(set(lst)) != len(lst):
                raise InstanceFormatError(f"list {i} repeats an element")
            if lst and lst[0] < 0:
                raise InstanceFormatError(f"list {i} has a negative element")
        if size < 1:
            raise InstanceFormatError("lists must be nonempty")


def ranked(scores: Sequence, members: Iterable[int]) -> list[int]:
    """Ascending members by score descending, ties by index ascending: the one tie
    rule of every top-l pick (best lists, so the oracle's cuts and active lists,
    `top_elements` and the profile's preimage orders and top-l list). The sort
    is stable, so reverse=True keeps tied members in their ascending input order."""
    return sorted(members, key=scores.__getitem__, reverse=True)


def over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as ints over their common denominator D, the lcm of theirs,
    and D; folded pairwise, as math.lcm(*...) grows the allocator on many calls."""
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


def top_elements(members: Iterable[int], t: int, pmf: Sequence[Fraction]) -> tuple[int, ...]:
    """The t heaviest symbols of a pool by `ranked`'s rule, as an ascending index tuple.

    The tie-break makes the result unique even under tied masses. t = 0 gives
    (). Every member must be a symbol of the pmf: a non-bool int in
    range(len(pmf)), and t a non-bool int.
    """
    if not _is_int(t):
        raise InstanceFormatError(f"need a whole number of elements, got {_shown(t)}")
    _check_type("symbol pool", members, Iterable)
    members = tuple(members)
    for x in members:
        if not _is_int(x) or not 0 <= x < len(pmf):
            raise InstanceFormatError(f"{_shown(x)} is not a symbol of a {len(pmf)}-symbol pmf")
    pool = sorted(set(members))
    if not 0 <= t <= len(pool):
        raise TooManyRequested(f"asked for {_shown(t)} of {len(pool)} elements")
    return tuple(sorted(ranked(pmf, pool)[:t]))


def check_dims(inst: Instance, mech: StochasticMatrix):
    """Raise InstanceFormatError on other types, DimensionMismatch unless mech is r x k."""
    _check_type("instance", inst, Instance)
    _check_type("mechanism", mech, StochasticMatrix)
    if mech.r != inst.r or mech.k != inst.k:
        raise DimensionMismatch(
            f"matrix is {mech.r}x{mech.k}, instance needs {inst.r}x{inst.k}"
        )


def is_recoverable(mech: StochasticMatrix, inst: Instance, rho: Fraction) -> bool:
    """True when every symbol reports its own function value with chance >= rho.
    Raises RhoOutOfRange unless rho lies in [0, 1]."""
    return recoverability_level(mech, inst) >= ensure_rho(rho)


def recoverability_level(mech: StochasticMatrix, inst: Instance) -> Fraction:
    """Largest rho at which the mechanism is still rho-recoverable."""
    check_dims(inst, mech)
    return min(mech.rows[x][inst.f[x]] for x in range(inst.r))


# --- serialization -----------------------------------------------------------

def validate_instance(raw: Mapping) -> Instance:
    """Build an Instance from parsed structured text.

    Expected keys: "pmf" (list of exact rational strings), "f" (list of ints),
    "l" (int). Optional: "k" (declared output alphabet size) and "labels".
    Only the mapping and its required keys are checked here; every other
    invariant is checked once, by the Instance constructor.
    """
    if not isinstance(raw, Mapping):
        raise InstanceFormatError(f"expected a mapping, got {type(raw).__name__}")
    for key in ("pmf", "f", "l"):
        if key not in raw:
            raise InstanceFormatError(f"missing required field {key!r}")
    return Instance(
        pmf=raw["pmf"], f=raw["f"], l=raw["l"], k=raw.get("k"), labels=raw.get("labels")
    )


def instance_to_jsonable(inst: Instance) -> dict:
    """JSON-ready dict with exact rational strings; round-trips bit-identically."""
    _check_type("instance", inst, Instance)
    out = {
        "pmf": [format_rational(p) for p in inst.pmf],
        "f": list(inst.f),
        "l": inst.l,
        "k": inst.k,
    }
    if inst.labels is not None:
        out["labels"] = list(inst.labels)
    return out


def instance_to_text(inst: Instance) -> str:
    return json.dumps(instance_to_jsonable(inst), indent=2) + "\n"


def load_json(text: str):
    """Parsed JSON; a non-str or malformed, too deep or overlong text is an InstanceFormatError."""
    _check_type("JSON text", text, str)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc


def parse_instance(text: str) -> Instance:
    return validate_instance(load_json(text))


def instance_digest(inst: Instance) -> str:
    """Short content hash of the mathematical part of an instance.

    Labels are excluded: a mechanism built for a pmf/function/list-size triple
    is valid regardless of display names.
    """
    _check_type("instance", inst, Instance)
    fields = instance_to_jsonable(inst)
    fields.pop("labels", None)
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]
