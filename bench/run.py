"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload binary_triple --seed 1 --seconds 20 --trace 0

Paths are taken from this file's location, so any working directory works.
The run imports `listprivacy` from `src/`, sets up the seeded inputs
SETUP_REPEATS times, then runs operations in a closed loop, one at a time on
one thread, in whole passes over the workload's items, stopping at the pass
boundary nearest to `--seconds`. Every operation's exact result is
hashed and compared with `reference.json`. Times are CPU seconds rescaled to
reference seconds by a speed probe that runs alongside (see `Probe`).

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the same schedule runs twice, untraced and then traced, and the
last line carries the per-layer metrics and the tracing overhead. The line
before it is a full report (environment, sample counts, tail percentile,
failure and known-defect counts, digest). Both are also written under
`.bench_out/`. The exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5
PROBE_EVERY = 0.02  # wall seconds between probe rounds
PROBE_REF = 1000.0  # probe rounds per reference second
SEGMENT_S = 1.0  # CPU seconds of operations per probe-speed segment
PACKAGE = "listprivacy"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workloads import WORKLOADS, KnownDefect  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms.p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def _layer_units() -> dict[str, str]:
    units = {}
    for layer in spans.TRACED:
        units[f"{layer}.calls"] = "calls/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update({
        f"{spans.ROOT}.self_s": "s/op",
        "simplex.rows": "rows/op",
        "oracle.list_rows": "rows/op",
        "envelope.lines_enumerated": "lines/op",
        "envelope.hull_ratio": "ratio",
        "simulate.trials": "trials/op",
        "cli.tracebacks": "count/op",
        "trace.ops_per_s": "1/s",
        "trace.untraced_ops_per_s": "1/s",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER_UNITS = _layer_units()


# --- arithmetic ---------------------------------------------------------------

def tail_percentile(samples: int) -> float | None:
    """Highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if samples * (100 - p) / 100 >= 10 - 1e-9:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def failed_ratio(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 0.0


def cpu_time() -> float:
    """CPU seconds of this process and its reaped children.

    Every timing metric uses this clock. The host shares its cores, and wall
    time also counts the seconds the process sat descheduled (2% to 38% of a
    second in a one-minute probe on a 2-core box), which swamps the program's
    own changes. Counting children keeps work moved into subprocesses visible.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def probe_round():
    """One round of the speed probe: exact arithmetic like the package's own
    (summing 1/i with `fractions.Fraction`), using no code of the package."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)


class Probe:
    """Samples the host's CPU speed while the operations run.

    The CPU speed of a shared host drifts by itself: on a 2-core VM, the same
    two seconds of binary_triple operations took between 1.4 and 2.4 CPU
    seconds within a minute, and 20-second runs of one workload spread by a
    fifth. While active, a SIGALRM every PROBE_EVERY seconds of wall time runs
    one probe round (about 3% of the time) wherever the program is, so the
    speed is also sampled inside operations that last seconds. Timings read
    `rounds` and `cpu_s` before and after, and subtract the probe's CPU time.
    A wall-clock timer is used because an armed CPU-time timer coarsens the
    process CPU clock to the kernel tick.
    """

    def __init__(self):
        self.rounds = 0
        self.cpu_s = 0.0
        self._previous = None
        self._busy = False

    def tick(self, *_):
        if self._busy:  # an alarm that lands inside a round would count it twice
            return
        self._busy = True
        start = process_time()
        probe_round()
        self.cpu_s += process_time() - start
        self.rounds += 1
        self._busy = False

    def clock_ns(self) -> int:
        """Process CPU time without the probe's, for spans."""
        return process_time_ns() - round(self.cpu_s * 1e9)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_times(durations: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Each CPU time in reference seconds: the time on a CPU that runs
    PROBE_REF probe rounds per second.

    `probes[0]` holds the probe rounds (count, CPU seconds) run before the
    first timed step and `probes[i + 1]` those run during step i. Steps are
    cut into consecutive segments of at least SEGMENT_S CPU seconds (a shorter
    last segment joins the one before), and each step is rescaled by the
    probe speed during its own segment, so drift is taken out where it
    happened.
    """
    segments: list[list[int]] = []
    current, work = [], 0.0
    for i, d in enumerate(durations):
        current.append(i)
        work += d
        if work >= SEGMENT_S:
            segments.append(current)
            current, work = [], 0.0
    if current:
        if segments:
            segments[-1].extend(current)
        else:
            segments.append(current)
    out = [0.0] * len(durations)
    for segment in segments:
        during = probes[0 if segment[0] == 0 else segment[0] + 1 : segment[-1] + 2]
        rounds = sum(r for r, _ in during)
        cpu = sum(c for _, c in during)
        for i in segment:
            out[i] = durations[i] * rounds / cpu / PROBE_REF
    return out


def probe_speed(probes: list[tuple[int, float]]) -> float:
    """Probe rounds per CPU second, over all the probes."""
    return sum(r for r, _ in probes) / sum(c for _, c in probes)


def result_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def universe_digest(items) -> str:
    return result_hash("\n".join(item.key for item in items))


# --- set-up -------------------------------------------------------------------

def set_up(workload: str, workdir: Path) -> list:
    """Import the package afresh and build the workload's items. Earlier
    imports are dropped so each repeat pays the whole import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lp = importlib.import_module(PACKAGE)
    if not Path(lp.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"{PACKAGE} came from {lp.__file__}, not from {ROOT / 'src'}")
    importlib.import_module(PACKAGE + ".cli")
    return WORKLOADS[workload].universe(lp, workdir)


# --- the closed loop ------------------------------------------------------------

@dataclass
class Phase:
    durations: list[float] = field(default_factory=list)  # CPU seconds per operation
    # Probe (rounds, CPU seconds): before the first operation, then during each.
    probes: list[tuple[int, float]] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # reference seconds per operation
    elapsed: float = 0.0  # CPU seconds of the phase, without the probes
    wall_s: float = 0.0
    failed: int = 0
    known_defects: int = 0
    mismatches: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    trials: int = 0
    checked: int = 0
    passes: int = 0
    digest: str = ""

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ops_per_s(self) -> float:
        """Operations per reference second spent in them."""
        return self.attempted / sum(self.reference)

    @property
    def factor(self) -> float:
        """Reference seconds per CPU second, over the whole phase."""
        return sum(self.reference) / sum(self.durations)


def measure(items, passes, seconds: float, expected: list, tracer=None, probe: Probe | None = None) -> Phase:
    """Run whole passes of operations, at least one, and stop at the pass
    boundary nearest to `seconds` of wall time. Every run thus measures whole
    copies of the same universe, whatever its length. The speed probe's
    time is taken out of every operation's (and, through the tracer's clock,
    every span's)."""
    probe = probe or Probe()
    with probe:
        return _measure(items, passes, seconds, expected, tracer, probe)


def _measure(items, passes, seconds, expected, tracer, probe) -> Phase:
    phase = Phase()
    digest = hashlib.sha256()
    probe.tick()
    phase.probes.append((probe.rounds, probe.cpu_s))
    start, cpu_start = perf_counter(), cpu_time()
    op = 0
    for done, order in enumerate(passes, 1):
        for index in order:
            item = items[index]
            root = tracer.open(item.key[:48], spans.ROOT, op) if tracer else None
            op += 1
            r0, c0, t0 = probe.rounds, probe.cpu_s, cpu_time()
            try:
                text = item.run()
                status = "ok"
            except KnownDefect:
                text, status = None, "defect"
            except Exception as exc:  # every failure is counted, none stops the run
                text, status = None, "failed"
                if len(phase.errors) < 5:
                    phase.errors.append(f"{item.key[:120]}: {type(exc).__name__}: {exc}")
            t1 = cpu_time()
            if root:
                tracer.close(root)
            rounds, probe_s = probe.rounds - r0, probe.cpu_s - c0
            phase.durations.append(t1 - t0 - probe_s)
            phase.probes.append((rounds, probe_s))
            if status == "ok":
                phase.trials += item.trials
            phase.known_defects += status == "defect"
            if status == "failed":
                phase.failed += 1
            elif text is not None:
                got = result_hash(text)
                digest.update(got.encode())
                phase.checked += 1
                if got != expected[index]:
                    phase.failed += 1
                    if len(phase.mismatches) < 5:
                        phase.mismatches.append(f"{item.key[:120]}: {got} != {expected[index]}")
        wall = perf_counter() - start
        if wall + wall / done / 2 >= seconds:
            break
    phase.passes = done
    phase.elapsed = cpu_time() - cpu_start - (probe.cpu_s - phase.probes[0][1])
    phase.reference = reference_times(phase.durations, phase.probes)
    phase.wall_s = perf_counter() - start
    phase.digest = digest.hexdigest()[:16]
    return phase


# --- environment ----------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401  simplex silently switches to mpq when this imports
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "gmpy2": has_gmpy2,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- one run --------------------------------------------------------------------

def load_reference(workload: str, items) -> list:
    entry = json.loads(REFERENCE.read_text())[workload]
    if entry["universe"] != universe_digest(items) or len(entry["results"]) != len(items):
        raise SystemExit(
            f"{workload}: the generated items differ from those in {REFERENCE.name}; "
            "record it again with bench/record.py"
        )
    return entry["results"]


def _phase_report(phase: Phase) -> dict:
    """Times in reference units (see reference_times), plus the raw CPU figures."""
    ms = [d * 1000 for d in phase.reference]
    tail = tail_percentile(len(ms))
    return {
        "ops": phase.attempted,
        "passes": phase.passes,
        "cpu_s": phase.elapsed,
        "wall_s": phase.wall_s,
        "probe_speed": probe_speed(phase.probes),
        "ops_per_s": phase.ops_per_s,
        "ops_per_cpu_s": phase.attempted / phase.elapsed,
        "ops_per_wall_s": phase.attempted / phase.wall_s,
        "op_ms": {
            "samples": len(ms),
            "p50": statistics.median(ms),
            "p50_cpu": statistics.median(phase.durations) * 1000,
            "tail_percentile": tail,
            "tail": percentile(ms, tail) if tail else None,
            "p90": percentile(ms, 90) if len(ms) >= 100 else None,
        },
        "failed": phase.failed,
        "known_defects": phase.known_defects,
        # A known defect is still a call that should have failed cleanly.
        "failed_ratio": failed_ratio(phase.failed + phase.known_defects, phase.attempted),
        "trials_per_s": phase.trials / sum(phase.reference),
        "results_checked": phase.checked,
        "digest": phase.digest,
        "mismatches": phase.mismatches,
        "errors": phase.errors,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (report, result line)."""
    OUT_DIR.mkdir(exist_ok=True)
    order = WORKLOADS[workload].order

    def passes():
        rng = random.Random(seed)
        while True:
            yield order(rng)

    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        setup_times, setup_probes = [], []
        with Probe() as probe:
            probe.tick()
            setup_probes.append((probe.rounds, probe.cpu_s))
            for _ in range(SETUP_REPEATS):
                r0, c0, t0 = probe.rounds, probe.cpu_s, cpu_time()
                items = set_up(workload, workdir)
                setup_times.append(cpu_time() - t0 - (probe.cpu_s - c0))
                setup_probes.append((probe.rounds - r0, probe.cpu_s - c0))
        expected = load_reference(workload, items)
        # One untimed operation first, so first-use costs (memory growth, lazy
        # imports) do not land in the timed window.
        phases = [measure(items, [next(passes())[:1]], 0, expected)]
        phases.append(measure(items, passes(), seconds, expected))
        if trace:
            probe = Probe()
            tracer = spans.Tracer(clock=probe.clock_ns)
            tracer.install(PACKAGE)
            try:
                phases.append(measure(items, passes(), seconds, expected, tracer, probe))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = phases[1]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "probe_ref": PROBE_REF,
        "setup_s": statistics.median(reference_times(setup_times, setup_probes)),
        "setup_cpu_s": setup_times,
        "setup_probe_speed": probe_speed(setup_probes),
        "peak_rss_mb": peak_rss_mb(),
        "untraced": _phase_report(untraced),
    }
    if trace:
        traced = phases[2]
        report["traced"] = _phase_report(traced)
        values = spans.layer_metrics(tracer, traced.attempted, traced.factor)
        values["trace.ops_per_s"] = traced.ops_per_s
        values["trace.untraced_ops_per_s"] = untraced.ops_per_s
        values["trace.overhead"] = 1 - traced.ops_per_s / untraced.ops_per_s
        units = PER_LAYER_UNITS
        spans_file = OUT_DIR / f"{workload}-seed{seed}.spans.json"
        spans_file.write_text(json.dumps(spans.spans_to_jsonable(tracer.spans)))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        values = {
            "ops_per_s": untraced.ops_per_s,
            "op_ms.p50": report["untraced"]["op_ms"]["p50"],
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": report["setup_s"],
        }
        units = END_TO_END_UNITS
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    report["result"] = line
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / PACKAGE).is_dir():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    report, line = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
