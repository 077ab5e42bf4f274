"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q`` (the
tier-1 suite collects only ``tests/``).  The smoke runs use tiny sizes:
they check the output contract and the correctness checks, not speed.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.harness.cli import DEFAULT_SECONDS
from benchmarks.harness.layers import PER_LAYER
from benchmarks.harness.runner import END_TO_END
from benchmarks.harness.speed import INTERVAL_S, Sample, SpeedSampler
from benchmarks.harness.tracing import Span, Tracer, rollup, self_times, union_length
from benchmarks.harness.workloads import WORKLOADS
from repro.concurrency.executor import ThreadExecutor

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "harness" / "run.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(declared: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in declared}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``smoke(workload, seed, trace)``: one smoke run, cached per module."""
    out_dir = tmp_path_factory.mktemp("smoke")
    runs = {}

    def run(workload: str, seed: int, trace: int):
        key = (workload, seed, trace)
        if key not in runs:
            out = out_dir / f"{workload}-{seed}-{trace}.json"
            started = time.monotonic()
            process = subprocess.run(
                [
                    sys.executable,
                    str(RUN),
                    "--workload",
                    workload,
                    "--seed",
                    str(seed),
                    "--seconds",
                    "0.5",
                    "--trace",
                    str(trace),
                    "--smoke",
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=ROOT,
            )
            elapsed = time.monotonic() - started
            assert process.returncode == 0, process.stdout[-3000:] + process.stderr[-3000:]
            result = json.loads(process.stdout.strip().splitlines()[-1])
            runs[key] = (result, json.loads(out.read_text(encoding="utf-8")), elapsed)
        return runs[key]

    return run


def test_declaration_matches_the_harness():
    assert _units(DECLARED["end_to_end"]) == END_TO_END
    assert _units(DECLARED["per_layer"]) == PER_LAYER
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        name: why for name, (__, why) in WORKLOADS.items()
    }
    assert DECLARED["run_seconds"] == DEFAULT_SECONDS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(smoke, workload, trace):
    result, details, elapsed = smoke(workload, 1, trace)
    assert elapsed < 60
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(value, float | int) for value in values)
    if not trace:
        assert all(value > 0 for value in values)
    assert details["checks"] and all(check["ok"] for check in details["checks"])
    assert details["host"]["cpus"] >= 1 and details["seed"] == 1
    assert details["ops"]["attempted"] == result["attempted"]


def test_seed_changes_inputs_but_not_metric_names(smoke):
    first, first_details, __ = smoke("recommend-cold", 1, 0)
    second, second_details, __ = smoke("recommend-cold", 2, 0)
    assert first_details["inputs_digest"] != second_details["inputs_digest"]
    assert set(first["metrics"]) == set(second["metrics"]) == set(END_TO_END)


def test_union_length_merges_overlaps():
    assert union_length([(5, 6), (0, 2), (1, 3)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        Span(1, None, "op", 0.0, 10.0, 0),
        Span(2, 1, "concurrency.map", 1.0, 9.0, 0),
        # Two tasks on two threads overlap on [3, 5].
        Span(3, 2, "layer", 2.0, 5.0, 0, task=True),
        Span(4, 2, "layer", 3.0, 6.0, 0, task=True),
        # A child outliving its parent is clipped to the parent.
        Span(5, 2, "layer", 7.0, 9.5, 0, task=True),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(8.0 - (4.0 + 2.0))
    assert own[3] == pytest.approx(3.0)
    totals = rollup(_tracer_with(spans), lambda op: op == 0)
    assert totals.calls == {"op": 1, "concurrency.map": 1}
    assert totals.wall_seconds == pytest.approx(10.0)


def test_reference_seconds_drop_probe_time_and_average_neighbouring_samples():
    sampler = SpeedSampler()
    sampler.samples = [
        Sample(0.0, 0.001, 1.0),
        Sample(1.0, 0.002, 2.0),
        Sample(2.0, 0.001, 1.0),
        Sample(3.0, 0.001, 4.0),
    ]
    # Two probes inside; the mean slowdown also takes the one on each side.
    wall, reference = sampler.reference_seconds(0.5, 2.5)
    assert wall == pytest.approx(2.0 - 0.003)
    assert reference == pytest.approx(wall / 2.0)
    # No probe inside: the samples either side set the slowdown.
    assert sampler.reference_seconds(0.2, 0.4) == pytest.approx((0.2, 0.2 / 1.5))


def test_sampler_samples_periodically_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    sampler.start()
    try:
        time.sleep(4 * INTERVAL_S)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == previous
    assert len(sampler.samples) >= 4
    assert all(sample.slowdown > 0 for sample in sampler.samples)


def _tracer_with(spans: list[Span]) -> Tracer:
    tracer = Tracer()
    tracer.spans.extend(spans)
    return tracer


class _Layer:
    def work(self, item):
        time.sleep(0.01)
        return item * 2


def test_tracer_parents_thread_pool_tasks_and_unpatches():
    original = ThreadExecutor.map
    tracer = Tracer()
    tracer.install(
        (
            (_Layer, "work", "layer.work", "call"),
            (ThreadExecutor, "map", "concurrency.map", "map"),
        )
    )
    try:
        with tracer.op(0):
            assert ThreadExecutor(2).map(_Layer().work, range(4)) == [0, 2, 4, 6]
    finally:
        tracer.uninstall()
    assert ThreadExecutor.map is original
    by_id = {span.span_id: span for span in tracer.spans}
    work = [span for span in tracer.spans if span.name == "layer.work"]
    assert len(work) == 4
    for span in work:
        task = by_id[span.parent]
        assert task.task and task.name == "op"
        assert by_id[task.parent].name == "concurrency.map"
    totals = rollup(tracer, lambda op: op == 0)
    assert totals.calls["layer.work"] == 4 and totals.calls["op"] == 1
    assert len([op for op, __ in tracer.waits if op == 0]) == 4
