"""EXP-CONC — wall-clock speedup from the worker pool, output unchanged.

The simulated clock makes latency free, which would hide any threading
win; ``wall_latency_scale`` re-introduces a real ``sleep`` proportional
to each request's virtual latency, so these runs experience genuine
I/O-shaped waiting that the thread pool can overlap (sleeps release the
GIL, like real network waits).

Two levels of fan-out are measured at 1/2/4/8 workers:

- extraction fan-out inside one recommendation run
  (``PipelineConfig.workers``);
- batch fan-out across manuscripts (``recommend_batch`` workers).

Both must return bit-identical rankings at every worker count — the
speedup is the only thing allowed to change.
"""

from __future__ import annotations

import time

from repro.assignment import recommend_batch
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.scholarly.registry import ScholarlyHub
from benchmarks.conftest import print_table, sample_manuscripts

WORKER_COUNTS = (1, 2, 4, 8)
#: Fraction of each request's virtual latency really slept.
WALL_SCALE = 0.05
PAPERS = 8


def _signature(result):
    return [(s.candidate.candidate_id, s.total_score) for s in result.ranked]


def test_bench_extraction_workers(bench_world):
    manuscript = sample_manuscripts(bench_world, count=1)[0][0]
    timings, signatures, rows = {}, {}, []
    for workers in WORKER_COUNTS:
        hub = ScholarlyHub.deploy(bench_world, wall_latency_scale=WALL_SCALE)
        minaret = Minaret(hub, config=PipelineConfig(workers=workers))
        start = time.perf_counter()
        result = minaret.recommend(manuscript)
        timings[workers] = time.perf_counter() - start
        signatures[workers] = _signature(result)
        rows.append(
            (
                workers,
                f"{timings[workers]:.2f}s",
                f"{timings[1] / timings[workers]:.2f}x",
                hub.total_requests(),
            )
        )
    print_table(
        "EXP-CONC extraction fan-out (one recommendation)",
        ("workers", "wall", "speedup", "requests"),
        rows,
    )
    for workers in WORKER_COUNTS[1:]:
        assert signatures[workers] == signatures[1]
    # Extraction is only part of the pipeline (verification stays
    # serial), so expect a real but sub-linear win.
    assert timings[1] / timings[8] >= 1.2


def test_bench_batch_assignment_workers(bench_world):
    entries = [
        (f"paper-{i}", manuscript)
        for i, (manuscript, __) in enumerate(
            sample_manuscripts(bench_world, count=PAPERS)
        )
    ]
    timings, signatures, rows = {}, {}, []
    for workers in WORKER_COUNTS:
        hub = ScholarlyHub.deploy(bench_world, wall_latency_scale=WALL_SCALE)
        minaret = Minaret(hub)
        start = time.perf_counter()
        results = recommend_batch(minaret, entries, workers=workers)
        timings[workers] = time.perf_counter() - start
        signatures[workers] = [
            (paper_id, _signature(result)) for paper_id, result in results
        ]
        rows.append(
            (
                workers,
                f"{timings[workers]:.2f}s",
                f"{timings[1] / timings[workers]:.2f}x",
                hub.total_requests(),
            )
        )
    print_table(
        f"EXP-CONC batch fan-out ({PAPERS} manuscripts)",
        ("workers", "wall", "speedup", "requests"),
        rows,
    )
    for workers in WORKER_COUNTS[1:]:
        assert signatures[workers] == signatures[1]
    # The acceptance bar: parallel batch assignment at 8 workers beats
    # sequential by at least 2x on wall-clock.
    assert timings[1] / timings[8] >= 2.0
