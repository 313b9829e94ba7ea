"""Tests of the benchmark's own arithmetic, plus a one-operation smoke run of
every workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Item, KnownDefect  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "samples, expected",
    [(1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 50) == 5.0
    assert run.percentile(values, 90) == 9.0
    assert run.percentile(values, 100) == 10.0
    assert run.percentile([7.0], 99.9) == 7.0


def test_failed_ratio():
    assert run.failed_ratio(0, 10) == 0.0
    assert run.failed_ratio(3, 12) == 0.25
    assert run.failed_ratio(0, 0) == 0.0


def _span(parent, start, end, layer="x"):
    return spans.Span("f", layer, parent, 0, start, end)


def test_self_time_subtracts_nested_children_once():
    tree = [
        _span(-1, 0, 100),  # root
        _span(0, 10, 40),  # child
        _span(1, 20, 30),  # grandchild: counted against the child, not the root
        _span(0, 50, 60),  # second child
    ]
    assert spans.self_times(tree) == [60, 20, 10, 10]


def test_self_time_takes_the_union_of_overlapping_children_clipped_to_the_parent():
    tree = [_span(-1, 0, 100), _span(0, 10, 50), _span(0, 30, 70), _span(0, 90, 120)]
    assert spans.self_times(tree)[0] == 100 - 60 - 10


def test_tracer_rebinds_cross_module_names_and_restores_them():
    import listprivacy as lp

    original = lp.oracle.solve_lp
    tracer = spans.Tracer()
    tracer.install("listprivacy")
    try:
        assert lp.oracle.solve_lp is not original
        root = tracer.open("op", spans.ROOT, 0)
        lp.exact_privacy(lp.instance("uniform4"), Fraction(1, 2))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert lp.oracle.solve_lp is original
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    oracle = by_name["exact_privacy"]
    assert tracer.spans[by_name["solve_lp"]].parent == oracle
    assert tracer.spans[by_name["list_privacy"]].parent == oracle
    metrics = spans.layer_metrics(tracer, ops=1)
    assert metrics["oracle.calls"] == 1 and metrics["simplex.calls"] == 1
    assert metrics["oracle.list_rows"] == 2 * 6  # k * C(r, l)
    assert metrics["simplex.rows"] == 2 * 6 + 4 + 4
    own = spans.self_times(tracer.spans)
    children = sum(tracer.spans[i].end - tracer.spans[i].start for i in (by_name["solve_lp"], by_name["list_privacy"]))
    span = tracer.spans[oracle]
    assert own[oracle] == span.end - span.start - children


def test_measure_counts_failures_mismatches_and_known_defects():
    def boom():
        raise CheckFailed("disagree")

    def defect():
        raise KnownDefect("ValueError")

    items = [Item("ok", lambda: "a"), Item("wrong", lambda: "b"), Item("boom", boom), Item("defect", defect)]
    expected = [run.result_hash("a"), run.result_hash("not b"), None, None]
    phase = run.measure(items, [[0, 1, 2, 3]], 1e9, expected)
    assert phase.attempted == 4
    assert phase.failed == 2
    assert phase.known_defects == 1
    assert phase.checked == 2
    assert run.failed_ratio(phase.failed, phase.attempted) == 0.5


def test_benchmark_json_matches_the_printed_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_measure_stops_at_the_first_pass_boundary_past_the_time():
    items = [Item("ok", lambda: "a")]
    phase = run.measure(items, iter([[0, 0], [0, 0], [0]]), 0, [run.result_hash("a")])
    assert (phase.attempted, phase.passes) == (2, 1)
    assert len(phase.probes) == 3  # before the first operation, then during each
    assert phase.probes[0][0] == 1
    assert phase.ops_per_s == pytest.approx(2 / sum(phase.reference))


def test_probe_samples_while_active_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with run.Probe() as probe:
        start = time.process_time()
        while time.process_time() - start < 0.2:
            pass
    assert probe.rounds >= 3 and probe.cpu_s > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_times_rescale_each_segment_by_the_probes_during_it():
    # Segments of at least SEGMENT_S: [0.6, 0.6] and then [1.0, 0.2], the
    # short tail [0.2] joining the segment before it. probes[0] ran before the
    # first operation and counts for the first segment.
    durations = [0.6, 0.6, 1.0, 0.2]
    ref = run.PROBE_REF
    probes = [(ref, 3.0), (ref, 2.0), (ref, 1.0), (4 * ref, 1.0), (ref, 1.5)]
    # 3000 rounds in 6 s, then 5000 rounds in 2.5 s.
    assert run.reference_times(durations, probes) == pytest.approx([0.3, 0.3, 2.0, 0.4])
    assert run.probe_speed(probes) == pytest.approx(8 * ref / 8.5)


def test_reference_times_of_a_short_phase_use_one_segment():
    ref = run.PROBE_REF
    probes = [(ref, 0.5), (ref, 0.5), (ref, 2.0)]
    assert run.reference_times([0.1, 0.3], probes) == pytest.approx([0.1, 0.3])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_one_operation(workload, trace, monkeypatch):
    # A one-item pass: the first item of the seed's own first pass.
    full = WORKLOADS[workload]
    monkeypatch.setitem(WORKLOADS, workload, dataclasses.replace(full, order=lambda rng: full.order(rng)[:1]))
    report, line = run.run(workload, seed=3, seconds=0, trace=trace)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == (3 if trace else 2)  # warm-up plus one per phase
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(line["metrics"]) == set(expected)
    assert all(m["value"] > 0 for m in line["metrics"].values()) or trace
    assert report["untraced"]["results_checked"] == 1
