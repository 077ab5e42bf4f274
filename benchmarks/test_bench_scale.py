"""EXP-SCALE — feasibility at scale: latency, caching, and the scale plane.

The paper's framework extracts everything on-the-fly so that results are
always fresh.  This experiment quantifies what that costs and what buys
it back, in two regimes:

- **Pipeline regime** (hundreds of scholars): simulated network latency
  and request count of one recommendation as the population grows, and
  the same run under increasing cache TTLs (TTL 0 = the paper's pure
  mode).
- **Population regime** (10^3 → 10^5 scholars): the streamed world +
  scale plane (:mod:`repro.scale`).  Worlds are derived lazily from the
  seed, ingest streams them once into one index partition, and each
  query retrieves, screens and scores its pool in one pass per phase.
  Measures per-query wall time at each size, split into the plane's
  retrieve / COI / score phases and the rest, the string-interning
  savings, and anchors correctness against the brute-force full scan.
  Writes ``BENCH_scale.json`` at the repo root, uploaded by CI's
  ``scale-bench`` job.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import Minaret
from repro.scale.bench import run_scale_bench
from repro.scholarly.registry import ScholarlyHub
from repro.world.config import WorldConfig
from repro.world.generator import generate_world
from benchmarks.conftest import print_table, sample_manuscripts

WORLD_SIZES = (100, 300, 600)
CACHE_TTLS = (0.0, 300.0, None)  # on-the-fly, 5-minute, immortal

#: Population sweep of the scale-plane regime (the 10^5 point is the
#: issue's "million-scholar path" acceptance size; ingest is ~1 min).
SCALE_SIZES = (1_000, 10_000, 100_000)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def one_run(world, cache_ttl=0.0, repeats=1):
    hub = ScholarlyHub.deploy(world, cache_ttl=cache_ttl)
    manuscript, __ = sample_manuscripts(world, count=1)[0]
    minaret = Minaret(hub)
    result = None
    for __r in range(repeats):
        result = minaret.recommend(manuscript)
    return hub, result


def test_bench_scale_world_size(benchmark):
    def sweep():
        rows = []
        for size in WORLD_SIZES:
            world = generate_world(WorldConfig(author_count=size, seed=42))
            hub, result = one_run(world)
            rows.append(
                (
                    size,
                    hub.total_requests(),
                    f"{hub.total_latency():.1f}s",
                    len(result.candidates),
                    len(result.ranked),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "EXP-SCALE: one recommendation vs world size (TTL 0 = on-the-fly)",
        ("scholars", "requests", "sim latency", "candidates", "recommended"),
        rows,
    )
    # Requests are bounded by max_candidates, not world size: the pipeline
    # must not degrade to crawling the whole world.
    request_counts = [int(r[1]) for r in rows]
    assert max(request_counts) < 3.0 * min(request_counts)


def test_bench_scale_cache_ttl(benchmark, bench_world):
    def sweep():
        rows = []
        for ttl in CACHE_TTLS:
            hub, __ = one_run(bench_world, cache_ttl=ttl, repeats=3)
            label = "0 (on-the-fly)" if ttl == 0 else (str(ttl) if ttl else "inf")
            rows.append(
                (
                    label,
                    hub.total_requests(),
                    f"{hub.crawler.cache_hit_rate():.2f}",
                    f"{hub.total_latency():.1f}s",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "EXP-SCALE: 3 repeated recommendations vs cache TTL",
        ("cache TTL", "requests", "hit rate", "sim latency"),
        rows,
    )
    requests = [int(r[1]) for r in rows]
    # Longer TTLs must strictly reduce network traffic.
    assert requests[0] > requests[-1]
    # The immortal cache must serve the repeat runs almost entirely.
    assert float(rows[-1][2]) > 0.5


def test_bench_scale_population(benchmark):
    """The population-regime sweep: streamed worlds, the plane's query path."""
    report = benchmark.pedantic(
        lambda: run_scale_bench(sizes=SCALE_SIZES), rounds=1, iterations=1
    )
    rows = [
        (
            f"{entry['authors']:,}",
            f"{entry['ingest_seconds']:.1f}s",
            f"{entry['index']['postings']:,}",
            f"{entry['mean_wall_seconds'] * 1000:.1f}ms",
            *(
                f"{seconds * 1000:.2f}ms"
                for seconds in entry["mean_phase_wall_seconds"].values()
            ),
            {True: "yes", False: "NO", None: "-"}[
                entry["topk_matches_brute_force"]
            ],
        )
        for entry in report["sizes"]
    ]
    print_table(
        f"EXP-SCALE: scale-plane query path vs population (k={report['k']})",
        (
            "scholars",
            "ingest",
            "postings",
            "wall/query",
            "retrieve",
            "coi",
            "score",
            "rest",
            "brute=",
        ),
        rows,
    )
    interning = report["interning"]
    print(
        f"string interning at {interning['authors']} authors: "
        f"{interning['saved_bytes']:,} bytes saved "
        f"({interning['saved_pct']:.1f}%)"
    )
    scaling = report["scaling"]
    print(
        f"population x{scaling['size_ratio']:.0f} -> query wall "
        f"x{scaling['query_wall_ratio']:.2f} (sublinear={scaling['sublinear']})"
    )
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    # The 10^5-scholar world must actually have been swept.
    assert report["sizes"][-1]["authors"] >= 100_000
    # Wherever the brute-force reference ran, the plane's top-k matched
    # it entry-for-entry.
    verified = [
        entry["topk_matches_brute_force"]
        for entry in report["sizes"]
        if entry["topk_matches_brute_force"] is not None
    ]
    assert verified and all(verified)
    # Measured per-query wall grows sub-linearly in world size.
    assert scaling["sublinear"]
    # The COI screen works only the pool, capped at 200 at both sizes,
    # so its wall must not follow the population from 10^4 to 10^5.
    coi = {
        entry["authors"]: entry["mean_phase_wall_seconds"]["scale.coi"]
        for entry in report["sizes"]
    }
    assert coi[100_000] <= 3 * coi[10_000]
    # Interning must save memory, not cost it.
    assert interning["saved_bytes"] > 0
    # The wall-clock claim is on query latency itself: scoring reads
    # ingest-time rows, so a steady-state query up to 10^4 scholars stays
    # under 0.5 s however many world blocks its pool spans.
    assert all(
        entry["mean_wall_seconds"] < 0.5
        for entry in report["sizes"]
        if entry["authors"] <= 10_000
    )
