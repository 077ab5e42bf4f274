"""EXP-SCALE: the million-scholar scaling experiment (shared runner).

One code path drives both surfaces — ``minaret scale-bench`` and the
pytest benchmark ``benchmarks/test_bench_scale.py`` — so the CLI, the
CI artifact and the docs all describe the same measurement:

- **Pool-size sweep**: worlds of 10^3 → 10^5+ scholars are streamed
  into a sharded :class:`~repro.scale.plane.ScalePlane`; the measured
  wall time of each query is recorded at each size, split into the
  plane's phases (retrieve, COI screen, score and the rest) from the
  ``scale.*`` spans the plane already emits.  Per-query work tracks
  the retrieved pool, not the population, so query wall grows
  sub-linearly in world size — the claim the sweep checks.
- **Correctness anchor**: at sizes where a full scan is affordable the
  sharded top-k is compared entry-for-entry against
  :meth:`~repro.scale.plane.ScalePlane.brute_force_topk`.
- **Interning probe**: a world is serialized and re-loaded with string
  interning on and off under :mod:`tracemalloc`, measuring what
  :func:`repro.world.io.world_from_dict`'s deduplication saves.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter

from repro.concurrency import create_executor
from repro.obs import Observability, phase_profile, use
from repro.scale.plane import ScalePlane
from repro.world.config import WorldConfig
from repro.world.streaming import StreamingWorld

#: The spans that split a query's wall time into the plane's phases;
#: whatever the query wall holds outside them is reported as ``rest``.
_QUERY_PHASES = ("scale.retrieve", "scale.coi", "scale.score")


def popular_labels(world: StreamingWorld, sample: int = 500, count: int = 6) -> list[str]:
    """The ``count`` most-registered interest labels in a profile sample.

    Deterministic: the sample is the first ``sample`` author indexes and
    ties break alphabetically.  Querying popular labels keeps retrieved
    pools non-trivial at every world size.
    """
    counts: Counter[str] = Counter()
    for index in range(min(sample, world.config.author_count)):
        for label in world.interest_weights(index):
            counts[label] += 1
    return [
        label
        for label, __ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[
            :count
        ]
    ]


def measure_interning(author_count: int = 1000, seed: int = 42) -> dict:
    """Resident bytes a loaded world retains with and without interning.

    JSON parsing mints a fresh string object per occurrence, and an
    uninterned :func:`~repro.world.io.world_from_dict` keeps those
    duplicates alive through the entities that reference them.  The
    probe parses and loads under :mod:`tracemalloc`, frees the parsed
    payload, and reads what the *world* still retains — with interning
    the duplicate identifier copies become garbage with the payload.
    """
    import gc
    import json

    from repro.world.generator import generate_world
    from repro.world.io import world_from_dict, world_to_dict

    text = json.dumps(
        world_to_dict(generate_world(WorldConfig(author_count=author_count, seed=seed)))
    )
    # Warm-up pass: one-time costs (ontology build caches, import work)
    # must not be billed to the first measured variant.
    world_from_dict(json.loads(text), intern_strings=True)
    sizes = {}
    for label, intern in (("plain", False), ("interned", True)):
        gc.collect()
        tracemalloc.start()
        payload = json.loads(text)
        world = world_from_dict(payload, intern_strings=intern)
        del payload
        gc.collect()
        current, __peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sizes[label] = current
        del world
    saved = sizes["plain"] - sizes["interned"]
    return {
        "authors": author_count,
        "plain_bytes": sizes["plain"],
        "interned_bytes": sizes["interned"],
        "saved_bytes": saved,
        "saved_pct": round(100.0 * saved / sizes["plain"], 2)
        if sizes["plain"]
        else 0.0,
    }


def run_scale_bench(
    sizes: tuple[int, ...] = (1_000, 10_000, 100_000),
    shards: int = 16,
    workers: int = 8,
    queries_per_size: int = 5,
    k: int = 10,
    pool_limit: int | None = 200,
    block_size: int = 64,
    verify_max: int = 2_000,
    intern_probe_size: int = 1_000,
    seed: int = 42,
) -> dict:
    """Run the full EXP-SCALE protocol; returns the report dict.

    ``pool_limit`` caps the retrieved pool per query — the setting that
    makes per-query work sub-linear in world size (posting scans grow
    with the population, but screening and scoring work only the pool).
    ``verify_max`` bounds the sizes at which the brute-force reference
    runs (it is O(world) per query by design); the verification query
    runs uncapped, since the full scan considers every match.
    """
    executor = create_executor(workers)
    report: dict = {
        "name": "EXP-SCALE",
        "shards": shards,
        "workers": workers,
        "k": k,
        "sizes": [],
        "interning": measure_interning(intern_probe_size, seed=seed),
    }
    for size in sizes:
        world = StreamingWorld(
            WorldConfig(author_count=size, seed=seed), block_size=block_size
        )
        plane = ScalePlane(world, n_shards=shards, executor=executor)
        t0 = time.perf_counter()
        plane.ingest()
        ingest_seconds = time.perf_counter() - t0
        labels = popular_labels(world)
        submitters = ["author-0", "author-1"]
        per_query = []
        walls = []
        phase_totals = dict.fromkeys(_QUERY_PHASES, 0.0)
        verified = None
        for query_index in range(queries_per_size):
            keywords = {
                labels[(query_index + offset) % len(labels)]: weight
                for offset, weight in ((0, 1.0), (1, 0.8), (2, 0.5))
            }
            # A fresh instance per timed query: its spans are exactly
            # this query's phases.
            query_obs = Observability()
            with use(query_obs):
                t0 = time.perf_counter()
                hits, stats = plane.topk(
                    keywords, submitters, k=k, pool_limit=pool_limit
                )
                wall = time.perf_counter() - t0
            walls.append(wall)
            for profile in phase_profile(query_obs.tracer.finished()):
                if profile.name in phase_totals:
                    phase_totals[profile.name] += profile.wall_total
            per_query.append(
                {
                    "keywords": sorted(keywords),
                    "pool": stats.pool_size,
                    "screened_out": stats.screened_out,
                    "scored": stats.scored,
                    "wall_seconds": round(wall, 4),
                    "top": [h.candidate_id for h in hits],
                }
            )
            if size <= verify_max and query_index == 0:
                uncapped, __stats = plane.topk(
                    keywords, submitters, k=k, pool_limit=None
                )
                reference = plane.brute_force_topk(keywords, submitters, k=k)
                verified = uncapped == reference
        mean_wall = sum(walls) / len(walls)
        phases = {name: total / len(walls) for name, total in phase_totals.items()}
        phases["rest"] = mean_wall - sum(phases.values())
        report["sizes"].append(
            {
                "authors": size,
                "ingest_seconds": round(ingest_seconds, 2),
                "index": {
                    key: value
                    for key, value in plane.index.stats().items()
                    if key != "per_shard"
                },
                "mean_wall_seconds": round(mean_wall, 4),
                "mean_phase_wall_seconds": {
                    name: round(seconds, 6) for name, seconds in phases.items()
                },
                "topk_matches_brute_force": verified,
                "queries": per_query,
            }
        )
    sizes_run = report["sizes"]
    if len(sizes_run) >= 2:
        first, last = sizes_run[0], sizes_run[-1]
        size_ratio = last["authors"] / first["authors"]
        wall_ratio = (
            last["mean_wall_seconds"] / first["mean_wall_seconds"]
            if first["mean_wall_seconds"]
            else 0.0
        )
        report["scaling"] = {
            "size_ratio": round(size_ratio, 1),
            "query_wall_ratio": round(wall_ratio, 2),
            "sublinear": wall_ratio < size_ratio,
        }
    return report
