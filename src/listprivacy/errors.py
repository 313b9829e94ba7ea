"""Error taxonomy for the whole package.

Every failure that a caller can provoke raises a subclass of
:class:`ListPrivacyError`; the class name doubles as a stable machine-readable
code (the CLI prints it on stderr).
"""

from __future__ import annotations


class ListPrivacyError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        """Stable machine-readable error code."""
        return type(self).__name__


class InstanceFormatError(ListPrivacyError):
    """Structurally malformed input (missing field, bad shape, unparsable number)."""


class ZeroMassSymbol(ListPrivacyError):
    """A pmf entry is zero or negative; every symbol must carry positive mass."""


class PmfNotNormalized(ListPrivacyError):
    """The pmf entries do not sum to exactly one."""


class EmptyPreimage(ListPrivacyError):
    """Some output symbol is never taken by the function."""


class ListSizeOutOfRange(ListPrivacyError):
    """The list size must satisfy 1 <= l < r."""


class BadFunctionRange(ListPrivacyError):
    """Function values must be integers in {0..k-1} with 2 <= k <= r."""


class TooManyRequested(ListPrivacyError):
    """Asked for more elements than the pool contains."""


class DimensionMismatch(ListPrivacyError):
    """Shapes of an instance and a companion object disagree."""


class RhoOutOfRange(ListPrivacyError):
    """Recoverability level outside the admissible interval."""


class NotBinaryFunction(ListPrivacyError):
    """Operation requires a function with exactly two output symbols."""


class InstanceTooLarge(ListPrivacyError):
    """`active_lists` (so `oracle --rho`), an LP dump, or `curve --samples`,
    `oracle --grid` or `simulate --grid` needs more tied lists, list rows or
    points than its fixed limit; `exact_privacy` itself never raises it."""


class NotRowStochastic(ListPrivacyError):
    """Matrix rows must be nonnegative and sum to exactly one."""


class DigestMismatch(ListPrivacyError):
    """A mechanism file was produced for a different instance."""
