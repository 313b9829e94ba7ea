"""The four benchmark workloads: a fixed universe of operations each, and a seeded pass order.

Every workload builds its *universe* from a fixed master seed: a list of
`Item`s, each one operation with one exact, deterministic result. The exact
result of every item is pinned once in `reference.json`, and a run with any
seed is checked against it.

A run is made of whole *passes*. One pass runs every item of the universe
once, in an order drawn from the run seed (`Workload.order`). The seed thus
decides the sequence of calls the program sees, while every run measures the
same work: with a few hundred items of widely different cost, a run that
drew a seeded subset instead moved its median latency by a fifth from one
seed to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Master seed of every universe. Changing it (or any generator below) changes
# the items, and reference.json must then be recorded again with record.py.
UNIVERSE_SEED = 20261017


class CheckFailed(Exception):
    """An operation returned, but its result broke a cross-check."""


class KnownDefect(Exception):
    """A CLI call that should fail cleanly raised instead, as catalogued."""


@dataclass(frozen=True)
class Item:
    """One operation of a workload.

    `run()` returns the canonical text of the exact result, which is hashed
    against the reference, or None when the result has no pinned form.
    `trials` counts the Monte Carlo trials the operation plays.
    """

    key: str
    run: Callable[[], str | None]
    trials: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    universe: Callable  # (lp, workdir) -> list[Item]
    order: Callable  # (rng: random.Random) -> list[int], one pass: every item once


def _random_instance(lp, rng: random.Random, r: int, k: int, l: int):
    weights = [rng.randint(1, 12) for _ in range(r)]
    total = sum(weights)
    f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
    rng.shuffle(f)
    return lp.Instance(pmf=tuple(Fraction(w, total) for w in weights), f=tuple(f), l=l)


def _instance_key(inst) -> str:
    return json.dumps([[str(p) for p in inst.pmf], list(inst.f), inst.l])


def _grid(n: int) -> list[Fraction]:
    return [Fraction(j, n) for j in range(n + 1)]


# --- binary_triple ------------------------------------------------------------

TRIPLE_SHAPES = [(r, l) for r in range(3, 7) for l in range(1, min(3, r - 1) + 1)]
TRIPLE_POOL = 2
TRIPLE_LEVELS = _grid(10)


def _triple_op(lp, inst, rho) -> Callable[[], str]:
    def run() -> str:
        bound = lp.privacy_bound(inst, rho)
        mech = lp.optimal_binary_qr(inst, rho)
        if not lp.is_recoverable(mech, inst, rho):
            raise CheckFailed(f"optimal-binary mechanism is not {rho}-recoverable")
        constructed = lp.list_privacy(inst, mech).privacy
        optimum = lp.exact_privacy(inst, rho).optimum
        if not bound == constructed == optimum:
            raise CheckFailed(f"bound {bound}, mechanism {constructed}, oracle {optimum}")
        return str(bound)

    return run


def triple_universe(lp, workdir=None) -> list[Item]:
    """Items are ordered shape, pool index, level."""
    rng = random.Random(UNIVERSE_SEED)
    items = []
    for r, l in TRIPLE_SHAPES:
        for _ in range(TRIPLE_POOL):
            inst = _random_instance(lp, rng, r, 2, l)
            for rho in TRIPLE_LEVELS:
                items.append(Item(f"{_instance_key(inst)} {rho}", _triple_op(lp, inst, rho)))
    return items


def triple_order(rng: random.Random) -> list[int]:
    """Instances in seeded order, each at its 11 levels in ascending order."""
    levels = len(TRIPLE_LEVELS)
    instances = rng.sample(range(len(TRIPLE_SHAPES) * TRIPLE_POOL), len(TRIPLE_SHAPES) * TRIPLE_POOL)
    return [i * levels + j for i in instances for j in range(levels)]


# --- oracle_wide --------------------------------------------------------------

# (r, pool size): k = 3 and l = 3 give 168 list rows at r = 8 and 252 at r = 9.
# Four r = 8 solves to one r = 9 solve.
ORACLE_POOLS = ((8, 8), (9, 2))


def _oracle_op(lp, inst, rho) -> Callable[[], str]:
    def run() -> str:
        optimum = lp.exact_privacy(inst, rho).optimum
        bound = lp.privacy_bound(inst, rho)
        if optimum > bound:
            raise CheckFailed(f"oracle {optimum} beats the bound {bound}")
        return str(optimum)

    return run


def oracle_universe(lp, workdir=None) -> list[Item]:
    """Items are ordered pool, pool index."""
    rng = random.Random(UNIVERSE_SEED + 1)
    items = []
    for r, size in ORACLE_POOLS:
        for _ in range(size):
            inst = _random_instance(lp, rng, r, 3, 3)
            # Interior level: rho in (1/k, 1).
            rho = Fraction(1, 3) + Fraction(2, 3) * Fraction(rng.randint(1, 23), 24)
            items.append(Item(f"{_instance_key(inst)} {rho}", _oracle_op(lp, inst, rho)))
    return items


def oracle_order(rng: random.Random) -> list[int]:
    size = sum(size for _, size in ORACLE_POOLS)
    return rng.sample(range(size), size)


# --- envelope_scale -----------------------------------------------------------

# (r, l, k): 6,885 to 60,460 candidate anchors.
CURVE_SHAPES = ((16, 5, 3), (18, 5, 4), (16, 6, 4), (18, 6, 3), (20, 5, 3), (20, 6, 4))
CURVE_POOL = 1
SWEEP_POOL = 3
SWEEP_LEVELS = _grid(20)


def _curve_text(curve) -> str:
    rows = [
        f"{s.rho_lo} {s.rho_hi} {s.slope} {s.intercept} {size}"
        for s, size in zip(curve.segments, curve.lambda_sizes)
    ]
    rows.append(" ".join(str(b) for b in curve.breakpoints))
    return "\n".join(rows)


def _anchor_text(anchor) -> str:
    return f"{list(anchor.members)} {list(anchor.per_class_counts)} {anchor.objective}"


def _rows_text(rows) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def envelope_universe(lp, workdir=None) -> list[Item]:
    """Curves first (shape, pool), then per sweep instance its bound sweep,
    anchor sweep and optimal-binary sweep (21 levels each)."""
    rng = random.Random(UNIVERSE_SEED + 2)
    items = []
    for r, l, k in CURVE_SHAPES:
        for _ in range(CURVE_POOL):
            inst = _random_instance(lp, rng, r, k, l)
            items.append(
                Item(f"curve {_instance_key(inst)}", lambda inst=inst: _curve_text(lp.privacy_curve(inst)))
            )
    for _ in range(SWEEP_POOL):
        inst = _random_instance(lp, rng, 12, 3, 4)
        binary = _random_instance(lp, rng, 12, 2, 4)
        key, bkey = _instance_key(inst), _instance_key(binary)
        for rho in SWEEP_LEVELS:
            items.append(
                Item(f"bound {key} {rho}", lambda inst=inst, rho=rho: str(lp.privacy_bound(inst, rho)))
            )
        for rho in SWEEP_LEVELS:
            items.append(
                Item(f"anchor {key} {rho}", lambda inst=inst, rho=rho: _anchor_text(lp.anchor_set(inst, rho)))
            )
        for rho in SWEEP_LEVELS:
            items.append(
                Item(
                    f"optimal-binary {bkey} {rho}",
                    lambda inst=binary, rho=rho: _rows_text(lp.optimal_binary_qr(inst, rho).rows),
                )
            )
    return items


def envelope_order(rng: random.Random) -> list[int]:
    """Sweep instances in seeded order, each with its 63 queries in item
    order, and the large curves, in seeded order, spread evenly between them.
    Curves are 6 of 195 operations but most of the time: they set
    `ops_per_s`, and the sweep queries set the median."""
    curves = len(CURVE_SHAPES) * CURVE_POOL
    per_sweep = 3 * len(SWEEP_LEVELS)
    sweeps = [
        curves + s * per_sweep + j
        for s in rng.sample(range(SWEEP_POOL), SWEEP_POOL)
        for j in range(per_sweep)
    ]
    gap = len(sweeps) / curves
    order = []
    for slot, curve in enumerate(rng.sample(range(curves), curves)):
        order.append(curve)
        order.extend(sweeps[round(slot * gap) : round((slot + 1) * gap)])
    return order


# --- cli_replay ---------------------------------------------------------------

SESSIONS = 16
CALLS_PER_SESSION = 24
SIM_TRIALS = 200_000
GRID_TRIALS = 40_000
# Expected outcome of a catalogued defect: the call should exit 1 with an
# error code, but today it raises.
DEFECT = "defect"


def _cli_call(lp, argv: list[str], error: str | None) -> Callable[[], str | None]:
    """One in-process `cli.main(argv)` call with captured streams.

    `error` is the expected error code (exit 1, empty stdout, `error: <Code>`
    on stderr), None for a clean call, or DEFECT. A DEFECT call that raises is
    a known defect, not a failure; once fixed it returns None, because the
    code it will print is not pinned.
    """

    def run() -> str | None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lp.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the call
            raise CheckFailed(f"argument error, exit {exc.code}") from exc
        except Exception as exc:
            if error == DEFECT:
                raise KnownDefect(f"{type(exc).__name__}: {exc}") from exc
            raise
        stdout, stderr = out.getvalue(), err.getvalue()
        if error is None:
            if code != 0 or stderr:
                raise CheckFailed(f"exit {code}, stderr {stderr[:200]!r}")
            return f"0\n{stdout}"
        got = stderr.split(":", 2)[1].strip() if stderr.startswith("error: ") else None
        if code != 1 or stdout or not got:
            raise CheckFailed(f"exit {code}, stdout {stdout[:80]!r}, stderr {stderr[:80]!r}")
        if error == DEFECT:
            return None
        if got != error:
            raise CheckFailed(f"expected error {error}, got {got}")
        return f"1\n{got}"

    return run


def _trials(argv: list[str]) -> int:
    if argv[0] != "simulate":
        return 0
    trials = int(argv[argv.index("--trials") + 1])
    return trials * int(argv[argv.index("--grid") + 1]) if "--grid" in argv else trials


def _stochastic_row(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randint(0, 9) for _ in range(k)]
    weights[rng.randrange(k)] += 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def cli_universe(lp, workdir: Path) -> list[Item]:
    """SESSIONS seeded user sessions of CALLS_PER_SESSION calls, 6 malformed.

    Writes the instance, mechanism and noise files every session needs into
    `workdir`. Sessions are stored back to back, in call order.
    """
    rng = random.Random(UNIVERSE_SEED + 3)
    to_text = lp.mechanisms.matrix_to_text

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text)
        return str(path)

    skew7 = lp.instance("skew7")
    skew_mech = write("skew7_mech.json", to_text(lp.uniform_qr(skew7), skew7))
    bad_rows = write("bad_rows.json", json.dumps({"rows": [1]}))
    catalog = ("skew7", "uniform4", "ternary5")
    items = []
    for s in range(SESSIONS):
        binary = _random_instance(lp, rng, rng.randint(5, 8), 2, rng.randint(1, 3))
        ternary = _random_instance(lp, rng, rng.randint(5, 8), 3, rng.randint(1, 3))
        rho = Fraction(rng.randint(0, 20), 20)
        mech = lp.StochasticMatrix(
            rows=tuple(
                tuple(rho * (i == ternary.f[x]) + (1 - rho) * v for i, v in enumerate(_stochastic_row(rng, 3)))
                for x in range(ternary.r)
            )
        )
        b_path = write(f"s{s}_binary.json", lp.instance_to_text(binary))
        t_path = write(f"s{s}_ternary.json", lp.instance_to_text(ternary))
        m_path = write(f"s{s}_mech.json", to_text(mech, ternary))
        mb_path = write(f"s{s}_binary_mech.json", to_text(lp.optimal_binary_qr(binary, rho), binary))
        noise = [[str(v) for v in _stochastic_row(rng, 3)] for _ in range(3)]
        n_path = write(f"s{s}_noise.json", json.dumps({"rows": noise}))
        bad_pmf = write(f"s{s}_bad_pmf.json", json.dumps({"pmf": ["1/2", f"1/{rng.randint(3, 9)}"], "f": [0, 1], "l": 1}))
        named = catalog[s % len(catalog)]
        r1, r3 = (str(Fraction(rng.randint(0, 20), 20)) for _ in range(2))
        r2 = str(Fraction(rng.randint(10, 20), 20))
        seed = str(rng.randrange(1 << 30))
        calls = [
            (["validate", b_path], None),
            (["validate", t_path], None),
            (["curve", b_path], None),
            (["curve", t_path, "--format", "csv"], None),
            (["curve", named, "--samples", "40"], None),
            (["mechanism", b_path, "--kind", "optimal-binary", "--rho", r1], None),
            (["mechanism", t_path, "--kind", "uniform"], None),
            (["mechanism", t_path, "--kind", "deterministic"], None),
            (["mechanism", t_path, "--kind", "noise-file", "--noise", n_path], None),
            (["mechanism", "ternary5", "--kind", "ternary-example", "--rho", r2], None),
            (["eval", t_path, "--mechanism", m_path, "--rho", r3], None),
            (["eval", b_path, "--mechanism", mb_path, "--rho", r1], None),
            (["eval", "skew7", "--mechanism", skew_mech, "--rho", r3], None),
            (["simulate", t_path, "--mechanism", m_path, "--trials", str(SIM_TRIALS), "--seed", seed], None),
            (["simulate", b_path, "--kind", "optimal-binary", "--grid", "11",
              "--trials", str(GRID_TRIALS), "--seed", seed], None),
            (["simulate", "ternary5", "--kind", "ternary-example", "--grid", "6",
              "--trials", str(GRID_TRIALS), "--seed", seed], None),
            (["curve", t_path], None),
            (["validate", named], None),
            (["eval", t_path, "--mechanism", mb_path], "DigestMismatch"),
            (["mechanism", b_path, "--kind", "optimal-binary", "--rho", "3/2"], "RhoOutOfRange"),
            (["mechanism", t_path, "--kind", "optimal-binary", "--rho", r1], "NotBinaryFunction"),
            (["validate", bad_pmf], "PmfNotNormalized"),
            (["simulate", t_path, "--mechanism", m_path, "--trials", "0", "--seed", seed], DEFECT),
            (["eval", t_path, "--mechanism", bad_rows], DEFECT),
        ]
        assert len(calls) == CALLS_PER_SESSION
        for argv, error in calls:
            key = " ".join(Path(a).name for a in argv)
            items.append(Item(key, _cli_call(lp, argv, error), _trials(argv) if error is None else 0))
    return items


def cli_order(rng: random.Random) -> list[int]:
    """Whole sessions, in call order, sessions in a seeded order."""
    return [
        s * CALLS_PER_SESSION + j
        for s in rng.sample(range(SESSIONS), SESSIONS)
        for j in range(CALLS_PER_SESSION)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("binary_triple", triple_universe, triple_order),
        Workload("oracle_wide", oracle_universe, oracle_order),
        Workload("envelope_scale", envelope_universe, envelope_order),
        Workload("cli_replay", cli_universe, cli_order),
    )
}
