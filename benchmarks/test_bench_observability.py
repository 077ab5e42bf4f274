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
``Observability.disabled()``: a warm ``recommend_batch`` over a planted
96-paper conference, and 20 cold recommendations on one deployment.
Both run on one worker and read process CPU time, interleaved, min of
5.  With no real waits a second worker only contends for the
interpreter lock, and CPU time does not count the time other processes
hold the host's cores.  Rankings must be bit-identical.  Their
overheads are reported, not held to the budget: they are the open gap,
not a regression gate.

A third benchmark bursts 500 synthetic requests through tail-based
retention (faults on ~5% of them) and micro-times the ledger's charge
path.  All write ``BENCH_obs.json`` at the repo root, uploaded by CI
like the other benchmark artifacts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.assignment import recommend_batch
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
#: manuscripts; both on one worker, timed in process CPU, min of 5.
CPU_PAPERS = 96
COLD_MANUSCRIPTS = 20
CPU_WORKERS = 1
CPU_REPETITIONS = 5

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


def _warm_batch(world, entries, obs):
    """CPU seconds of one warm batch (the plane already holds the pool)."""
    hub = ScholarlyHub.deploy(world)
    with use(obs):
        minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
        recommend_batch(minaret, entries, workers=CPU_WORKERS)
        start = time.process_time()
        results = recommend_batch(minaret, entries, workers=CPU_WORKERS)
        elapsed = time.process_time() - start
    return elapsed, [(paper_id, _signature(result)) for paper_id, result in results]


def _cold_recommendations(world, manuscripts, obs):
    """CPU seconds of cold recommendations on one fresh deployment."""
    hub = ScholarlyHub.deploy(world)
    with use(obs):
        minaret = Minaret(hub, config=PipelineConfig(workers=CPU_WORKERS))
        start = time.process_time()
        results = [minaret.recommend(manuscript) for manuscript in manuscripts]
        elapsed = time.process_time() - start
    return elapsed, [_signature(result) for result in results]


def _cpu_arm(section, title, run, sizes):
    """Interleaved telemetry-on/off CPU timing, min of CPU_REPETITIONS."""
    timings = {"disabled": [], "enabled": []}
    signatures = {}
    for __ in range(CPU_REPETITIONS):
        for mode in timings:
            obs = Observability() if mode == "enabled" else Observability.disabled()
            elapsed, signatures[mode] = run(obs)
            timings[mode].append(elapsed)
    best_disabled = min(timings["disabled"])
    best_enabled = min(timings["enabled"])
    overhead = best_enabled / best_disabled - 1.0
    print_table(
        f"EXP-OBS {title} (workers={CPU_WORKERS}, no injected sleeps, "
        f"process CPU, min of {CPU_REPETITIONS})",
        ("mode", "best CPU"),
        [
            ("disabled", f"{best_disabled * 1000:.1f}ms"),
            ("telemetry on", f"{best_enabled * 1000:.1f}ms"),
            ("overhead (not gated)", f"{overhead * 100:+.1f}%"),
        ],
    )
    _merge_output(
        section,
        {
            **sizes,
            "workers": CPU_WORKERS,
            "clock": "process_cpu",
            "repetitions": CPU_REPETITIONS,
            "disabled_ms": round(best_disabled * 1000, 3),
            "enabled_ms": round(best_enabled * 1000, 3),
            "overhead_pct": round(overhead * 100, 2),
            "gated": False,
        },
    )
    assert signatures["enabled"] == signatures["disabled"]


def test_bench_observability_cpu_bound(bench_world):
    entries = generate_conference(
        bench_world, ConferenceConfig(paper_count=CPU_PAPERS, seed=1)
    ).entries()
    _cpu_arm(
        "cpu_bound_overhead",
        f"CPU-bound arm (warm {CPU_PAPERS}-paper batch)",
        lambda obs: _warm_batch(bench_world, entries, obs),
        {"papers": CPU_PAPERS},
    )


def test_bench_observability_cold_cpu(bench_world):
    manuscripts = [
        manuscript
        for manuscript, __ in sample_manuscripts(bench_world, count=COLD_MANUSCRIPTS)
    ]
    _cpu_arm(
        "cold_cpu_overhead",
        f"cold arm ({len(manuscripts)} cold recommendations)",
        lambda obs: _cold_recommendations(bench_world, manuscripts, obs),
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
                with obs.span("request", clock=clock, i=index):
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
