"""Printed witnesses, pinned on a seeded corpus.

`oracle --rho` prints the cutting-plane loop's witness and active lists, and
most optima have many optimal vertices, so only the loop's own pivots
reproduce the printed bytes. This test pins the SHA-256 of that stdout for
each case of a seeded corpus, so a change to the simplex's pivoting rules,
its stall limit included, fails by naming the cases that moved:

- `seed3-NNN`: 400 `conftest.random_instance` cases, seed 3, at `random_rho`;
- `degenerate-NNN`: 600 cases, seed 11, with r 6-10, k 2-4 and l up to 4,
  every other pmf uniform and the rest with weights 1 or 2, at levels 0, 1,
  1/2, 1/k and 2/3. Their ties make long runs of degenerate pivots, so
  some solves reach Bland's rule.

The digests live in `witness_digests.txt`, one `case digest` line each.
Running this file as a script, with the package importable, rewrites it
from the code it runs on.

A case that takes more than `PIVOT_CAP` pivots fails the test at once: a
pivoting rule that cycles would otherwise hang it. The most any case takes
is 1,037 (`degenerate-183`), so the cap is about 19 times that.
"""

from __future__ import annotations

import hashlib
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO
from pathlib import Path
from typing import Iterator

import listprivacy.simplex as simplex
from listprivacy import Instance, format_rational, instance_to_text
from listprivacy.cli import main
from conftest import random_instance, random_rho

DIGESTS = Path(__file__).with_name("witness_digests.txt")
PIVOT_CAP = 20_000


def degenerate_instance(rng: random.Random, uniform: bool) -> tuple[Instance, F]:
    r = rng.randint(6, 10)
    k = rng.randint(2, 4)
    l = rng.randint(1, min(4, r - 1))
    weights = [1] * r if uniform else [rng.choice((1, 2)) for _ in range(r)]
    f = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
    rng.shuffle(f)
    pmf = tuple(F(w, sum(weights)) for w in weights)
    rho = rng.choice((F(0), F(1), F(1, 2), F(1, k), F(2, 3)))
    return Instance(pmf=pmf, f=tuple(f), l=l), rho


def corpus() -> list[tuple[str, Instance, F]]:
    cases = []
    rng = random.Random(3)
    for j in range(400):
        inst = random_instance(rng)
        cases.append((f"seed3-{j:03d}", inst, random_rho(rng)))
    rng = random.Random(11)
    for j in range(600):
        inst, rho = degenerate_instance(rng, uniform=j % 2 == 0)
        cases.append((f"degenerate-{j:03d}", inst, rho))
    return cases


def printed_digests(folder: Path) -> Iterator[tuple[str, str]]:
    """Each case's name and `oracle FILE --rho RHO` stdout digest, case by
    case, its instance file written in `folder`."""
    for name, inst, rho in corpus():
        path = folder / f"{name}.json"
        path.write_text(instance_to_text(inst))
        out = StringIO()
        with redirect_stdout(out):
            assert main(["oracle", str(path), "--rho", format_rational(rho)]) == 0
        yield name, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_printed_witnesses_match_their_digests(tmp_path, monkeypatch):
    pivot = simplex._pivot
    pivots = []

    def capped(T, basis, red, row, col, *rest):
        pivots.append((row, col))
        if len(pivots) > PIVOT_CAP:
            raise RuntimeError(f"over {PIVOT_CAP:,} pivots in one case: the solver cycles")
        pivot(T, basis, red, row, col, *rest)

    monkeypatch.setattr(simplex, "_pivot", capped)
    pinned = dict(line.split() for line in DIGESTS.read_text().splitlines())
    got = {}
    for name, digest in printed_digests(tmp_path):
        got[name] = digest
        pivots.clear()
    assert got.keys() == pinned.keys()
    moved = [name for name in got if got[name] != pinned[name]]
    assert moved == [], f"{len(moved)} printed witnesses moved: {' '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        digests = dict(printed_digests(Path(folder)))
    DIGESTS.write_text("".join(f"{name} {digest}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
