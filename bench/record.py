"""Record reference.json: the hash of every item's exact result, per workload.

    python3 bench/record.py [workload ...]

Runs every item of each named workload's universe once (all workloads when
none is named) with the code in `src/`, and rewrites those workloads' entries.
Record only from a commit whose exact outputs are known to be right: from
then on the benchmark fails any run whose results differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, REFERENCE, ROOT, result_hash, set_up, universe_digest
from workloads import WORKLOADS, KnownDefect


def record(workload: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=OUT_DIR)
    try:
        items = set_up(workload, Path(workdir))
        results = []
        for item in items:
            try:
                text = item.run()
            except KnownDefect:
                text = None
            results.append(None if text is None else result_hash(text))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"universe": universe_digest(items), "results": results}


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or sorted(WORKLOADS):
        reference[name] = record(name)
        print(f"{name}: {len(reference[name]['results'])} items")
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
