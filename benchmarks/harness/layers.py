"""The layers the traced pass times, and the per-layer metrics.

Layers are named after the repo's modules.  :data:`TARGETS` lists the
public function wrapped for each one; counts that the program already
keeps (HTTP host statistics, the telemetry registry's feature and
retrieval counters, the streaming world's realisation counter) are
read before and after the measured phase instead of being re-counted.
Every value is normalised per measured op, except set-up timings and
the per-write refresh time.
"""

from __future__ import annotations

import statistics

import repro.assignment.batch as assignment_batch
import repro.assignment.conference as assignment_conference
import repro.scale.plane as scale_plane
from repro.api.handlers import MinaretApi
from repro.concurrency.executor import SequentialExecutor, ThreadExecutor
from repro.core.extraction import CandidateExtractor
from repro.core.filtering import FilterPhase
from repro.core.identity import IdentityVerifier
from repro.core.ranking import Ranker
from repro.ontology.expansion import KeywordExpander
from repro.retrieval.plane import RetrievalPlane
from repro.scale.features import ShardedFeatureStore
from repro.scholarly.registry import ScholarlyHub
from repro.scoring.features import FeatureStore
from repro.web.http import SimulatedHttpClient
from repro.world.streaming import StreamingWorld

from benchmarks.harness.speed import REFERENCE

#: ``(owner, attribute, span name, kind)`` for every wrapped function.
TARGETS = (
    (MinaretApi, "handle", "api.handle", "call"),
    (IdentityVerifier, "verify_all", "core.identity.verify_all", "call"),
    (KeywordExpander, "expand", "ontology.expand", "call"),
    (CandidateExtractor, "extract_candidates", "core.extraction.extract_candidates", "call"),
    (SimulatedHttpClient, "get", "web.get", "call"),
    (RetrievalPlane, "fetch", "retrieval.fetch", "call"),
    (FilterPhase, "apply", "core.filtering.apply", "call"),
    (Ranker, "rank", "core.ranking.rank", "call"),
    (FeatureStore, "features_for_many", "scoring.features_for_many", "call"),
    (ScholarlyHub, "refresh_services", "scholarly.refresh_services", "call"),
    (StreamingWorld, "block", "world.block", "call"),
    (scale_plane.ScalePlane, "retrieve", "scale.retrieve", "call"),
    (scale_plane.ScalePlane, "screen", "scale.screen", "call"),
    (scale_plane.ScalePlane, "candidate_of", "scale.candidate_of", "call"),
    (scale_plane.ScalePlane, "component_rows", "scale.component_rows", "call"),
    (scale_plane, "score_rows", "scale.score_rows", "call"),
    (ShardedFeatureStore, "features_for_many", "scale.features_for_many", "call"),
    (assignment_batch, "recommend_batch", "assignment.recommend_batch", "call"),
    (assignment_conference, "problem_from_results", "assignment.build_problem", "call"),
    (assignment_batch.SOLVERS, "flow", "assignment.solve", "call"),
    (SequentialExecutor, "map", "concurrency.map", "map"),
    (ThreadExecutor, "map", "concurrency.map", "map"),
)

#: Span names whose self time is reported per op.
SELF_TIMED = (
    "api.handle",
    "core.identity.verify_all",
    "ontology.expand",
    "core.extraction.extract_candidates",
    "web.get",
    "retrieval.fetch",
    "core.filtering.apply",
    "core.ranking.rank",
    "scoring.features_for_many",
    "world.block",
    "scale.retrieve",
    "scale.screen",
    "scale.candidate_of",
    "scale.component_rows",
    "scale.score_rows",
    "scale.features_for_many",
    "assignment.recommend_batch",
    "assignment.build_problem",
    "assignment.solve",
    "concurrency.map",
)

#: Span names whose call count is reported per op.
COUNTED = ("web.get", "retrieval.fetch", "world.block", "concurrency.map")

#: Set-up sub-phases, timed inside each workload's build (median of reps).
SETUP_PARTS = ("scholarly.deploy_s", "world.generate_s", "scale.ingest_s")

#: Every per-layer metric and its unit.
PER_LAYER = {
    **{f"{name}.self_ms_per_op": "ms" for name in SELF_TIMED},
    **{f"{name}.calls_per_op": "count" for name in COUNTED},
    "web.errors_per_op": "count",
    "web.virtual_s_per_op": "s",
    "retrieval.hit_rate": "ratio",
    "scoring.features.reuse_rate": "ratio",
    "scholarly.refresh_services.ms_per_write": "ms",
    "world.block.realisations_per_op": "count",
    "world.block.hit_rate": "ratio",
    "concurrency.map.wait_ms_per_op": "ms",
    **{name: "s" for name in SETUP_PARTS},
    "trace_overhead_pct": "%",
}

_COUNTER_NAMES = {
    "features.built": "scoring_features_built_total",
    "features.reused": "scoring_features_reused_total",
    "retrieval.hits": "retrieval_hits_total",
    "retrieval.misses": "retrieval_misses_total",
    "retrieval.coalesced": "retrieval_coalesced_total",
}


def read_counters(obs, http=None, world=None) -> dict[str, float]:
    """Cumulative counters the program keeps, read between ops.

    ``obs`` is the telemetry instance the workload's requests report to;
    ``http`` the deployment's simulated client; ``world`` a streaming
    world.  Layers a workload lacks read as zero.
    """
    counters = {
        key: obs.metrics.counter_total(name) for key, name in _COUNTER_NAMES.items()
    }
    stats = list(http.stats.values()) if http is not None else []
    counters["web.errors"] = sum(s.faults + s.rate_limited + s.not_found for s in stats)
    # Virtual seconds: the simulated web's latency *model*, not a timing.
    counters["web.virtual_s"] = http.total_latency() if http is not None else 0.0
    counters["world.realisations"] = (
        world.stats()["blocks_realized"] if world is not None else 0
    )
    return counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(run, ops, writes, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass.

    ``ops`` and ``writes`` are :class:`~benchmarks.harness.tracing.Rollup`
    s over the measured ops and the timed writes.  Span times are wall
    time, scaled to reference time by the pass's overall ratio of the
    two; set-up parts are converted interval by interval.
    """
    n = run.attempted
    ms = 1000 * run.reference_ratio
    deltas = run.counter_deltas
    metrics = {
        f"{name}.self_ms_per_op": ms * ops.self_seconds.get(name, 0.0) / n
        for name in SELF_TIMED
    }
    metrics.update(
        {f"{name}.calls_per_op": ops.calls.get(name, 0) / n for name in COUNTED}
    )
    hits = deltas["retrieval.hits"] + deltas["retrieval.coalesced"]
    realisations = deltas["world.realisations"]
    block_calls = ops.calls.get("world.block", 0)
    metrics.update(
        {
            "web.errors_per_op": deltas["web.errors"] / n,
            "web.virtual_s_per_op": deltas["web.virtual_s"] / n,
            "retrieval.hit_rate": _ratio(hits, hits + deltas["retrieval.misses"]),
            "scoring.features.reuse_rate": _ratio(
                deltas["features.reused"],
                deltas["features.built"] + deltas["features.reused"],
            ),
            "scholarly.refresh_services.ms_per_write": ms
            * _ratio(
                writes.self_seconds.get("scholarly.refresh_services", 0.0),
                len(run.write_seconds),
            ),
            "world.block.realisations_per_op": realisations / n,
            "world.block.hit_rate": 1 - realisations / block_calls if block_calls else 0.0,
            "concurrency.map.wait_ms_per_op": ms * ops.wait_seconds / n,
            "trace_overhead_pct": overhead_pct,
        }
    )
    for name in SETUP_PARTS:
        pairs = run.setup_parts.get(name)
        metrics[name] = statistics.median(p[REFERENCE] for p in pairs) if pairs else 0.0
    return metrics


def shares(ops) -> dict[str, float]:
    """Each span name's self time as a share of the measured op wall."""
    if not ops.wall_seconds:
        return {}
    ranked = sorted(ops.self_seconds.items(), key=lambda item: -item[1])
    return {name: seconds / ops.wall_seconds for name, seconds in ranked}
