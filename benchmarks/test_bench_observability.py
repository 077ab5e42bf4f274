"""EXP-OBS — full-telemetry-plane overhead stays under 10% wall-clock.

The full instrumentation set — spans, metrics, ring sink, a JSONL file
sink, per-host SLO specs ticking every request, a per-request cost
ledger and tail-based trace retention — runs against the same
recommendation workload as a disabled instance whose every call is an
early-returning no-op.  The workload gets realistic I/O-shaped waits
via ``wall_latency_scale`` (the EXP-CONC technique): the paper's
pipeline is network-bound, so that is the wall time the overhead budget
is a fraction of — and it keeps the ratio stable on a noisy machine,
where a purely CPU-bound ~70ms run would drown a 10% budget in
scheduler jitter.  Each mode is timed min-of-3, interleaved so machine
drift hits both modes equally.  The outputs must be bit-identical —
instrumentation is read-only — and the enabled run must cost at most
10% more wall time.

The sleeps make that headline a fraction of padded wall time.  Two
CPU-bound arms therefore run with no injected sleeps
(``wall_latency_scale=0``), telemetry on against
``Observability.disabled()``: the 96 papers of a planted conference on
a warm deployment, and 60 distinct cold recommendations.  Each item
runs once untimed, then with telemetry on and off back to back on one
deployment, on one worker, timed in process CPU, and the side that
runs first alternates from item to item.  The overhead is the median of
the per-item on/off CPU ratios: pairing cancels the host's drift
between the two sides, the untimed run keeps first-touch work (memo
fills, the per-process draw cache) off whichever side runs first, and
the median of 60 or more ratios does not follow one slow item, where a
min of 5 whole runs spread over 20 points.  The base is therefore a
recommendation whose first-touch work is done, so the ratio reads a
little higher than against a first run.  With no real waits a second
worker only contends for the interpreter lock, and CPU time does not
count the time other processes hold the host's cores.  Rankings must
be bit-identical.  Both arms are reported; neither is held to the
budget.  On the 2-vCPU host the cold arm reads about +10% and the warm
arm more, so a 10% gate would pass or fail on the host's noise, not on
the code (EXPERIMENTS.md, EXP-OBS).

A third benchmark bursts 500 synthetic requests through tail-based
retention (faults on ~5% of them) and micro-times the ledger's charge
path.  All write ``BENCH_obs.json`` at the repo root, uploaded by CI
like the other benchmark artifacts.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.assignment import recommend_batch
from repro.concurrency import SequentialExecutor
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.obs import (
    Observability,
    RequestLedger,
    SloSpec,
    TailRetentionPolicy,
    default_http_slos,
    use,
)
from repro.obs.ledger import charge_http
from repro.scholarly.registry import ScholarlyHub
from repro.web.clock import SimulatedClock
from repro.web.faults import FaultPolicy
from repro.web.http import LatencyModel, ServiceUnavailableError, SimulatedHttpClient
from repro.world.conference import ConferenceConfig, generate_conference
from benchmarks.conftest import print_table, sample_manuscripts

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_obs.json"

REPETITIONS = 3
MAX_OVERHEAD = 0.10
#: Fraction of each request's virtual latency really slept (EXP-CONC
#: uses 0.05; the ~58 virtual seconds of this workload make 0.01 a
#: ~300ms wall run at two workers).
WALL_SCALE = 0.01

#: The CPU-bound arms: the warm arm's conference has the harness's
#: assign-conference size, the cold arm recommends this many distinct
#: manuscripts; both on one worker, timed in process CPU, paired per
#: item, median ratio.
CPU_PAPERS = 96
COLD_MANUSCRIPTS = 60
CPU_WORKERS = 1

BURST_REQUESTS = 500
BURST_FAULT_RATE = 0.05
LEDGER_CHARGES = 20_000


def _signature(result):
    return [(s.candidate.candidate_id, s.total_score) for s in result.ranked]


def _merge_output(section: str, payload: dict) -> None:
    record = {}
    if OUTPUT.exists():
        record = json.loads(OUTPUT.read_text(encoding="utf-8"))
    record[section] = payload
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT.name} [{section}]")


def _full_plane(obs, hub, tmp_path, tag):
    """Arm every telemetry subsystem this PR ships on ``obs``."""
    sink = obs.add_jsonl_sink(tmp_path / f"events-{tag}.jsonl")
    obs.tracer.enable_tail_retention(
        TailRetentionPolicy(latency_threshold=1e9)  # healthy => evict
    )
    obs.slo.bind_clock(hub.clock)
    for spec in default_http_slos(hub.http.hosts()):
        obs.slo.add(spec)
    obs.slo.add(
        SloSpec(
            name="pipeline",
            metric="http_request_latency_seconds",
            threshold=2.0,
            objective=0.9,
            window=600.0,
        )
    )
    return sink


def _run(world, manuscript, obs, plane_hooks=None):
    hub = ScholarlyHub.deploy(world, wall_latency_scale=WALL_SCALE)
    sink = plane_hooks(obs, hub) if plane_hooks is not None else None
    try:
        with use(obs):
            minaret = Minaret(hub, config=PipelineConfig(workers=2))
            start = time.perf_counter()
            if obs.enabled:
                with RequestLedger("bench"):
                    result = minaret.recommend(manuscript)
                obs.slo.tick()
            else:
                result = minaret.recommend(manuscript)
            elapsed = time.perf_counter() - start
    finally:
        if sink is not None:
            sink.close()
    return elapsed, _signature(result)


def test_bench_observability_overhead(bench_world, tmp_path):
    manuscript = sample_manuscripts(bench_world, count=1)[0][0]
    timings = {"disabled": [], "enabled": []}
    signatures = {}
    spans = events = 0
    verdict = None
    # Warm-up run so import/JIT-ish first-touch costs hit neither mode.
    _run(bench_world, manuscript, Observability.disabled())
    for repetition in range(REPETITIONS):
        elapsed, signature = _run(
            bench_world, manuscript, Observability.disabled()
        )
        timings["disabled"].append(elapsed)
        signatures["disabled"] = signature

        obs = Observability()
        elapsed, signature = _run(
            bench_world,
            manuscript,
            obs,
            plane_hooks=lambda o, hub, r=repetition: _full_plane(
                o, hub, tmp_path, r
            ),
        )
        timings["enabled"].append(elapsed)
        signatures["enabled"] = signature
        spans = len(obs.tracer.finished()) + (
            obs.tracer.retention_stats()["evicted_spans"]
        )
        events = len(obs.ring.events())
        verdict = obs.slo.verdict()

    best_disabled = min(timings["disabled"])
    best_enabled = min(timings["enabled"])
    overhead = best_enabled / best_disabled - 1.0
    print_table(
        "EXP-OBS full telemetry plane overhead (one recommendation, workers=2)",
        ("mode", "best wall", "spans", "events", "verdict"),
        [
            ("disabled", f"{best_disabled * 1000:.1f}ms", 0, 0, "-"),
            (
                "full plane",
                f"{best_enabled * 1000:.1f}ms",
                spans,
                events,
                verdict,
            ),
            ("overhead", f"{overhead * 100:+.1f}%", "", "", ""),
        ],
    )
    _merge_output(
        "overhead",
        {
            "disabled_ms": round(best_disabled * 1000, 3),
            "full_plane_ms": round(best_enabled * 1000, 3),
            "overhead_pct": round(overhead * 100, 2),
            "budget_pct": MAX_OVERHEAD * 100,
            "spans": spans,
            "events": events,
            "slo_verdict": verdict,
        },
    )
    assert signatures["enabled"] == signatures["disabled"]
    assert spans > 0 and events > 0
    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% budget"
    )


class _TaskTimer(SequentialExecutor):
    """Runs a batch inline and keeps the process CPU of its last task.

    A paper's task holds all of its per-paper telemetry (its span,
    ledger and ``request_cost`` event); the batch's own span and stats,
    which a 96-paper batch pays once, stay outside the timing.
    """

    seconds = 0.0

    def map(self, fn, items):
        def timed(item):
            start = time.process_time()
            try:
                return fn(item)
            finally:
                self.seconds = time.process_time() - start

        return super().map(timed, items)


def _paired_ratios(items, run):
    """Per-item CPU ratios, telemetry on over off, on one deployment.

    ``run(item)`` answers one item under the ambient observability and
    returns the answer with its process CPU seconds.
    Each item first runs once untimed, with telemetry off, so neither
    timed side pays the first-touch work (memo fills, the per-process
    draw cache) that a second run skips; without it the ratios split
    into two modes by which side ran first, and their median jumps
    between them.  The item then runs on both sides back to back, and
    the side that runs first alternates with the item's index, so the
    host's drift falls on both sides alike.  Returns the ratios, each
    side's total CPU seconds and each side's answers.
    """
    sides = {"enabled": Observability(), "disabled": Observability.disabled()}
    totals = dict.fromkeys(sides, 0.0)
    answers = {mode: [] for mode in sides}
    ratios = []
    for index, item in enumerate(items):
        with use(sides["disabled"]):
            run(item)
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        seconds = {}
        for mode in order:
            with use(sides[mode]):
                answer, seconds[mode] = run(item)
            answers[mode].append(answer)
            totals[mode] += seconds[mode]
        ratios.append(seconds["enabled"] / seconds["disabled"])
    return ratios, totals, answers


def _cpu_arm(section, title, items, run, sizes):
    """Report one arm's paired-median overhead (not held to the budget)."""
    ratios, totals, answers = _paired_ratios(items, run)
    quartiles = statistics.quantiles(ratios, n=4)
    overhead = statistics.median(ratios) - 1.0
    print_table(
        f"EXP-OBS {title} (workers={CPU_WORKERS}, no injected sleeps, "
        f"process CPU, median of {len(ratios)} paired ratios)",
        ("measure", "value"),
        [
            ("disabled CPU (sum)", f"{totals['disabled'] * 1000:.1f}ms"),
            ("telemetry on CPU (sum)", f"{totals['enabled'] * 1000:.1f}ms"),
            ("ratio quartiles", f"{quartiles[0]:.3f} / {quartiles[2]:.3f}"),
            ("overhead (not gated)", f"{overhead * 100:+.1f}%"),
        ],
    )
    _merge_output(
        section,
        {
            **sizes,
            "workers": CPU_WORKERS,
            "clock": "process_cpu",
            "method": "median of paired per-item ratios",
            "pairs": len(ratios),
            "disabled_ms": round(totals["disabled"] * 1000, 3),
            "enabled_ms": round(totals["enabled"] * 1000, 3),
            "ratio_q1": round(quartiles[0], 4),
            "ratio_q3": round(quartiles[2], 4),
            "overhead_pct": round(overhead * 100, 2),
            "gated": False,
        },
    )
    assert answers["enabled"] == answers["disabled"]


def test_bench_observability_cpu_bound(bench_world):
    entries = generate_conference(
        bench_world, ConferenceConfig(paper_count=CPU_PAPERS, seed=1)
    ).entries()
    hub = ScholarlyHub.deploy(bench_world)
    minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
    # Fill the warm plane, so every timed paper is a warm hit.
    with use(Observability.disabled()):
        recommend_batch(minaret, entries, workers=CPU_WORKERS)

    timer = _TaskTimer()

    def run(entry):
        [(paper_id, result)] = recommend_batch(minaret, [entry], executor=timer)
        return (paper_id, _signature(result)), timer.seconds

    _cpu_arm(
        "cpu_bound_overhead",
        f"CPU-bound arm ({CPU_PAPERS} warm papers)",
        entries,
        run,
        {"papers": CPU_PAPERS},
    )


def test_bench_observability_cold_cpu(bench_world):
    manuscripts = [
        manuscript
        for manuscript, __ in sample_manuscripts(bench_world, count=COLD_MANUSCRIPTS)
    ]
    assert len(manuscripts) == COLD_MANUSCRIPTS
    minaret = Minaret(
        ScholarlyHub.deploy(bench_world), config=PipelineConfig(workers=CPU_WORKERS)
    )

    def run(manuscript):
        start = time.process_time()
        signature = _signature(minaret.recommend(manuscript))
        return signature, time.process_time() - start

    _cpu_arm(
        "cold_cpu_overhead",
        f"cold arm ({len(manuscripts)} cold recommendations)",
        manuscripts,
        run,
        {"manuscripts": len(manuscripts)},
    )


def test_bench_retention_memory_and_ledger_cost():
    host = "burst.example"
    clock = SimulatedClock()
    client = SimulatedHttpClient(clock)
    client.register_host(
        host, lambda req: {}, latency=LatencyModel(base=0.5, jitter=0.0)
    )
    client.set_fault_policy(
        host, FaultPolicy(failure_probability=BURST_FAULT_RATE, seed=13)
    )

    # --- tail retention under a 500-request synthetic burst ------------
    obs = Observability()
    obs.tracer.enable_tail_retention(TailRetentionPolicy(latency_threshold=1e9))
    with use(obs):
        for index in range(BURST_REQUESTS):
            try:
                with obs.span("request", i=index):
                    client.get(host, f"/item/{index}")
            except ServiceUnavailableError:
                pass
    stats = obs.tracer.retention_stats()
    retained_spans = len(obs.tracer.finished())
    total_spans = retained_spans + stats["evicted_spans"]
    kept_fraction = retained_spans / total_spans if total_spans else 0.0

    # --- ledger charge-path micro-cost ---------------------------------
    with RequestLedger("bench"):
        start = time.perf_counter()
        for index in range(LEDGER_CHARGES):
            charge_http(host, 200, 0.001)
        active_ns = (time.perf_counter() - start) / LEDGER_CHARGES * 1e9
    start = time.perf_counter()
    for index in range(LEDGER_CHARGES):
        charge_http(host, 200, 0.001)  # nobody listening: the fast path
    idle_ns = (time.perf_counter() - start) / LEDGER_CHARGES * 1e9

    print_table(
        f"EXP-OBS retention burst ({BURST_REQUESTS} requests, "
        f"{BURST_FAULT_RATE:.0%} faults) and ledger charge cost",
        ("measure", "value"),
        [
            ("retained traces", stats["retained_traces"]),
            ("evicted traces", stats["evicted_traces"]),
            ("retained spans", retained_spans),
            ("span memory kept", f"{kept_fraction:.1%}"),
            ("charge (active ledger)", f"{active_ns:.0f}ns"),
            ("charge (no ledger)", f"{idle_ns:.0f}ns"),
        ],
    )
    _merge_output(
        "retention_and_ledger",
        {
            "burst_requests": BURST_REQUESTS,
            "fault_rate": BURST_FAULT_RATE,
            "retained_traces": stats["retained_traces"],
            "evicted_traces": stats["evicted_traces"],
            "retained_spans": retained_spans,
            "evicted_spans": stats["evicted_spans"],
            "span_memory_kept_pct": round(kept_fraction * 100, 2),
            "ledger_charge_active_ns": round(active_ns, 1),
            "ledger_charge_idle_ns": round(idle_ns, 1),
        },
    )
    # The acceptance bar: >=90% of healthy traces evicted.  Here every
    # healthy trace is evicted, so retained == the faulted ones.
    healthy = BURST_REQUESTS - stats["retained_traces"]
    assert stats["evicted_traces"] >= 0.9 * healthy
    assert 0 < stats["retained_traces"] < 0.2 * BURST_REQUESTS
    # The no-listener fast path must be much cheaper than a real charge.
    assert idle_ns < active_ns
