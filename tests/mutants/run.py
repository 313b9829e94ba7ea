"""Run the mutant corpus: every mutant must fail the tests named to kill it.

    python tests/mutants/run.py

First the union of every entry's `killed_by` tests runs once on an
unmutated copy of the checkout, and each of them must pass there: a killer
that already fails would count every mutant naming it as killed. Then each
entry of `corpus.json`'s `mutants` is applied to its own copy of the
checkout in a temporary directory: its `old` text, which must occur exactly
once in its `file`, is replaced by its `new` text. Then its `killed_by` tests
run there with `-x` and without bytecode, and must fail. The mutants run
in parallel, one worker thread per CPU this process may use, each mutant in
its own copy and pytest subprocess; their results print in corpus order.
The `equivalent` entries are not run, but their `old` text must still occur
exactly once, so that their reasons keep naming code that exists. Exits 1
and names every killer that fails unmutated, or else every entry that
survived or could not be applied.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("corpus.json")
# A mutant whose tests run longer than this counts as a failure of the run.
TIMEOUT_S = 120


def pytest(copy: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """Run pytest with `argv` in `copy`, on its own source, without bytecode."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *argv]
    return subprocess.run(
        argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def checkout(folder: Path, name: str) -> Path:
    """A copy of the checkout, without its history and caches, as `folder / name`."""
    copy = folder / name
    shutil.copytree(
        ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis")
    )
    return copy


def failing_killers(killers: list[str], folder: Path) -> list[str]:
    """The killers, test ids or files, with a test that fails on an unmutated
    copy of the checkout."""
    copy = checkout(folder, "unmutated")
    run = pytest(copy, ["-rfE", *killers])
    shutil.rmtree(copy)
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    # -rfE names each failed or errored test as `FAILED <id> - <message>`.
    failed = [
        line.split()[1]
        for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return [
        killer
        for killer in killers
        if any(test == killer or test.startswith((f"{killer}::", f"{killer}[")) for test in failed)
    ]


def killed(entry: dict, folder: Path) -> tuple[bool, str]:
    """Apply `entry` to a copy of the checkout under `folder` and run its tests
    there: whether they failed, and the end of their output."""
    copy = checkout(folder, entry["name"])
    target = copy / entry["file"]
    target.write_text(target.read_text().replace(entry["old"], entry["new"]))
    run = pytest(copy, ["-x", *entry["killed_by"]])
    shutil.rmtree(copy)
    # pytest exits 1 when a test failed; 0 is a survivor, anything else an error.
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return run.returncode == 1, run.stdout.strip().splitlines()[-1]


def cpus() -> int:
    """The CPUs this process may run on, or every CPU where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
    killers = list(dict.fromkeys(test for entry in applicable for test in entry["killed_by"]))
    with tempfile.TemporaryDirectory() as folder:
        failing = failing_killers(killers, Path(folder))
        print(f"{len(killers)} killers run unmutated, {len(failing)} failing", flush=True)
        faults += [f"{killer}: fails without a mutant" for killer in failing]
        # A kill by a killer that already fails shows nothing.
        if not failing:
            # Each worker thread waits on its own pytest subprocess; map gives
            # the results in corpus order.
            with ThreadPoolExecutor(cpus()) as pool:
                runs = pool.map(lambda entry: killed(entry, Path(folder)), applicable)
                for entry, (dead, last) in zip(applicable, runs):
                    print(f"{entry['name']}: {'killed' if dead else 'SURVIVED'} ({last})", flush=True)
                    if not dead:
                        faults.append(f"{entry['name']}: survived {' '.join(entry['killed_by'])}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
