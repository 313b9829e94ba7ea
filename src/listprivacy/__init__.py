"""Exact list-privacy / recoverability tradeoffs on finite alphabets.

The library works in exact rational arithmetic throughout. An Instance fixes
a source pmf, a deterministic feature map, and a list size; the envelope
module computes the piecewise-affine privacy bound, mechanisms constructs
channels meeting it, adversary evaluates any channel exactly, oracle solves
the underlying linear program from scratch, and simulate runs seeded Monte
Carlo replays against the exact values.
"""

from .core import (
    Instance,
    ListEstimator,
    Rational,
    StochasticMatrix,
    ensure_rho,
    format_rational,
    instance_digest,
    instance_to_text,
    is_recoverable,
    parse_instance,
    parse_rational,
    recoverability_level,
    top_elements,
    validate_instance,
)
from .envelope import (
    AnchorSet,
    CurveSegment,
    EnvelopeLine,
    PrivacyCurve,
    anchor_set,
    enumerate_lines,
    first_breakpoint,
    privacy_at_one,
    privacy_at_zero,
    privacy_bound,
    privacy_curve,
)
from .mechanisms import (
    NoisePmf,
    add_noise_qr,
    deterministic_qr,
    matrix_to_text,
    optimal_binary_qr,
    parse_matrix,
    parse_noise,
    ternary_example_qr,
    uniform_qr,
)
from .adversary import PrivacyReport, list_privacy, map_list_estimator
from .oracle import OracleResult, active_lists, exact_privacy, exact_privacy_curve, lp_text
from .simulate import (
    SimReport,
    SweepPoint,
    derive_stream_seed,
    privacy_sweep,
    simulate_game,
)
from .catalog import CATALOG, instance, names
from . import errors

__version__ = "0.1.0"
