"""Command line front end.

Instances are JSON files or bundled catalog names (skew7, uniform4,
ternary5). Artifacts go to stdout unless --output names a file. Any library
error prints `error: <Code>: <message>` on stderr and exits nonzero.

Each subcommand's handler is `cmd_x(inst, args) -> str`: it only computes its
artifact's text. `main` resolves the instance first, then writes the text the
handler returns, so every subcommand shares one read path and one write path.
The one artifact a handler writes itself is the `--lp-dump` file, streamed
line by line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog
from .adversary import list_privacy, report_to_jsonable
from .core import (
    Instance,
    ensure_rho,
    format_rational,
    instance_digest,
    is_recoverable,
    parse_instance,
)
from .envelope import (
    _levels,
    curve_samples_csv,
    curve_segments_csv,
    curve_to_text,
    privacy_bound,
    privacy_curve,
)
from .errors import InstanceFormatError, ListPrivacyError
from .mechanisms import (
    deterministic_qr,
    matrix_to_text,
    optimal_binary_qr,
    parse_matrix,
    parse_noise,
    add_noise_qr,
    ternary_example_qr,
    uniform_qr,
)
from .oracle import active_lists, exact_privacy, exact_privacy_curve, lp_lines
from .simulate import (
    privacy_sweep,
    report_to_jsonable as sim_report_jsonable,
    simulate_game,
    sweep_to_csv,
)

MECHANISM_KINDS = (
    "uniform",
    "deterministic",
    "optimal-binary",
    "ternary-example",
    "noise-file",
)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _resolve_instance(name: str) -> Instance:
    if name in catalog.CATALOG:
        return catalog.instance(name)
    path = Path(name)
    if not path.exists():
        raise InstanceFormatError(
            f"{name!r} is neither a catalog name ({', '.join(catalog.names())}) nor a file"
        )
    return parse_instance(_read_text(path))


def _build_mechanism(inst: Instance, kind: str, rho, noise: str | None):
    if kind == "uniform":
        return uniform_qr(inst)
    if kind == "deterministic":
        return deterministic_qr(inst)
    if kind == "optimal-binary":
        _require(rho is not None, "--rho is required for optimal-binary")
        return optimal_binary_qr(inst, rho)
    if kind == "ternary-example":
        _require(rho is not None, "--rho is required for ternary-example")
        fixed, mech = ternary_example_qr(rho)
        if inst != fixed:
            raise InstanceFormatError(
                "the ternary-example construction is defined only for the "
                "bundled ternary5 instance"
            )
        return mech
    # argparse `choices` leaves noise-file as the only other kind.
    _require(noise is not None, "--noise is required for noise-file")
    return add_noise_qr(inst, parse_noise(_read_text(noise)))


def _require(cond: bool, message: str):
    if not cond:
        raise InstanceFormatError(message)


def cmd_validate(inst: Instance, args) -> str:
    sizes = [len(block) for block in inst.preimages]
    return (
        f"r={inst.r} k={inst.k} l={inst.l}, preimages [{','.join(map(str, sizes))}]\n"
        f"digest {instance_digest(inst)}\n"
    )


def cmd_curve(inst: Instance, args) -> str:
    curve = privacy_curve(inst)
    if args.samples is not None:
        return curve_samples_csv(curve, args.samples)
    if args.format == "csv":
        return curve_segments_csv(curve)
    return curve_to_text(curve)


def cmd_mechanism(inst: Instance, args) -> str:
    return matrix_to_text(_build_mechanism(inst, args.kind, args.rho, args.noise), inst)


def cmd_eval(inst: Instance, args) -> str:
    mech = parse_matrix(_read_text(args.mechanism), inst)
    report = list_privacy(inst, mech)
    payload = report_to_jsonable(report, inst)
    if args.rho is not None:
        rho = ensure_rho(args.rho)
        bound = privacy_bound(inst, rho)
        payload["rho"] = format_rational(rho)
        payload["recoverable"] = is_recoverable(mech, inst, rho)
        payload["privacy_bound"] = format_rational(bound)
        payload["gap"] = format_rational(bound - report.privacy)
    return json.dumps(payload, indent=2) + "\n"


def cmd_oracle(inst: Instance, args) -> str:
    _require(
        (args.rho is None) != (args.grid is None),
        "exactly one of --rho or --grid is required",
    )
    if args.lp_dump is not None:
        _require(args.rho is not None, "--lp-dump needs --rho")
        # lp_lines checks rho and the row count before the file is opened.
        lines = lp_lines(inst, args.rho)
        with open(args.lp_dump, "w") as dump:
            dump.writelines(lines)
    if args.rho is not None:
        result = exact_privacy(inst, args.rho)
        rows = result.witness.rows
        payload = {
            "optimum": format_rational(result.optimum),
            "optimum_decimal": float(result.optimum),
            "witness": [[format_rational(v) for v in row] for row in rows],
            # True when the rows agree inside each preimage.
            "witness_is_add_noise": all(rows[x] == rows[b[0]] for b in inst.preimages for x in b),
            "active_lists": [list(map(list, per)) for per in active_lists(inst, result.witness)],
        }
        return json.dumps(payload, indent=2) + "\n"
    grid = _levels(args.grid, 0)
    lines = ["rho,oracle,envelope,equal"]
    curve = privacy_curve(inst)
    for rho, result in exact_privacy_curve(inst, grid):
        got, want = result.optimum, curve.value_at(rho)
        lines.append(
            f"{format_rational(rho)},{format_rational(got)},"
            f"{format_rational(want)},{str(got == want).lower()}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(inst: Instance, args) -> str:
    if args.grid is not None:
        _require(args.kind is not None, "--grid needs --kind")
        _require(args.kind != "noise-file", "--grid does not support noise-file")
        rhos = _levels(args.grid, Fraction(1, 2) if args.kind == "ternary-example" else 0)

        def factory(rho):
            return _build_mechanism(inst, args.kind, rho, None)

        return sweep_to_csv(privacy_sweep(inst, factory, rhos, args.trials, args.seed))
    _require(args.mechanism is not None, "--mechanism (or --kind with --grid) is required")
    mech = parse_matrix(_read_text(args.mechanism), inst)
    exact = list_privacy(inst, mech)
    report = simulate_game(inst, mech, exact.estimator, args.trials, args.seed)
    payload = sim_report_jsonable(report)
    payload["analytic_privacy"] = format_rational(exact.privacy)
    payload["abs_error"] = abs(report.empirical_privacy - float(exact.privacy))
    return json.dumps(payload, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="listprivacy",
        description="Exact list-privacy / recoverability tradeoffs for finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance and print its shape")
    p.add_argument("instance", help="catalog name or JSON file")
    p.set_defaults(handler=cmd_validate, output=None)

    p = sub.add_parser("curve", help="piecewise-affine privacy bound over [0,1]")
    p.add_argument("instance")
    p.add_argument("--format", choices=("exact", "csv"), default="exact")
    p.add_argument("--samples", type=int, default=None, help="emit a sampled CSV instead")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("mechanism", help="construct and export a mechanism")
    p.add_argument("instance")
    p.add_argument("--kind", choices=MECHANISM_KINDS, required=True)
    p.add_argument("--rho", help="recoverability level for parameterized kinds")
    p.add_argument("--noise", help="noise channel JSON for --kind noise-file")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_mechanism)

    p = sub.add_parser("eval", help="exact privacy of a mechanism file")
    p.add_argument("instance")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--rho", help="also report recoverability and bound gap at this level")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("oracle", help="exact optimum by linear programming")
    p.add_argument("instance")
    p.add_argument("--rho")
    p.add_argument("--grid", type=int, help="evaluate at N equispaced levels in [0,1], as CSV")
    p.add_argument("--lp-dump", help="also write the program in LP text form")
    p.add_argument("--output")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("simulate", help="seeded Monte Carlo against the exact value")
    p.add_argument("instance")
    p.add_argument("--mechanism", help="mechanism JSON file")
    p.add_argument("--kind", choices=MECHANISM_KINDS, help="sweep mechanism for --grid")
    p.add_argument("--grid", type=int, help="sweep rho on a grid, emitting CSV")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(_resolve_instance(args.instance), args)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    except ListPrivacyError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
