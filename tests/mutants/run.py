"""Run the mutant corpus: every mutant must fail the tests named to kill it.

    python tests/mutants/run.py

Each entry of `corpus.json`'s `mutants` is applied to its own copy of the
checkout in a temporary directory: its `old` text, which must occur exactly
once in its `file`, is replaced by its `new` text. Then its `killed_by` tests
run there with `-x` and without bytecode, and must fail. The `equivalent`
entries are not run, but their `old` text must still occur exactly once, so
that their reasons keep naming code that exists. Exits 1 and names every
entry that survived or could not be applied.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.json")
# A mutant whose tests run longer than this counts as a failure of the run.
TIMEOUT_S = 120


def killed(entry: dict, folder: Path) -> tuple[bool, str]:
    """Apply `entry` to a copy of the checkout under `folder` and run its tests
    there: whether they failed, and the end of their output."""
    copy = folder / entry["name"]
    shutil.copytree(
        ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis")
    )
    target = copy / entry["file"]
    target.write_text(target.read_text().replace(entry["old"], entry["new"]))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *entry["killed_by"]]
    run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    shutil.rmtree(copy)
    # pytest exits 1 when a test failed; 0 is a survivor, anything else an error.
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return run.returncode == 1, run.stdout.strip().splitlines()[-1]


def main() -> int:
    corpus = json.loads(CORPUS.read_text())
    faults = []
    applicable = []
    for entry in corpus["mutants"] + corpus["equivalent"]:
        count = (ROOT / entry["file"]).read_text().count(entry["old"])
        if count != 1:
            faults.append(f"{entry['name']}: its old text occurs {count} times in {entry['file']}")
        elif "killed_by" in entry:
            applicable.append(entry)
    with tempfile.TemporaryDirectory() as folder:
        for entry in applicable:
            dead, last = killed(entry, Path(folder))
            print(f"{entry['name']}: {'killed' if dead else 'SURVIVED'} ({last})", flush=True)
            if not dead:
                faults.append(f"{entry['name']}: survived {' '.join(entry['killed_by'])}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
