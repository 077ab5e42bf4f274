"""The hash-sharded feature store: per-shard locks, shard-parallel builds.

:class:`ShardedFeatureStore` keeps ``n_shards`` independent
:class:`repro.scoring.FeatureStore` partitions — candidates are routed
by :func:`shard_of`, a stable hash, so a candidate always lands in the
same shard and LRU/epoch bookkeeping stay per-shard local — and
dispatches per-shard batches through an
:class:`~repro.concurrency.Executor`.  It is the last sharded structure
in :mod:`repro.scale`; the scale plane itself is one partition.

Feature construction (:func:`repro.scoring.features.build_candidate_features`)
is a pure function of ``(candidate, ctx)``, and results are reassembled
into input order, so the output is bit-identical to one monolithic store
at any worker or shard count.

The store has no caller in the pipeline: the ranked pools it was meant
to speed up hold a few dozen candidates, and a warm batch was no faster
at 4 or 16 shards than at one, so :class:`repro.core.pipeline.Minaret`
always uses one :class:`~repro.scoring.FeatureStore`.  The class stays
because ``benchmarks/harness/layers.py`` times its ``features_for_many``
as the ``scale.features_for_many`` layer; it goes when that row does.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.concurrency import Executor, SequentialExecutor
from repro.obs import get_obs
from repro.scoring.features import CandidateFeatures, FeatureStore, ScoringContext

if TYPE_CHECKING:
    from repro.core.models import Candidate


def shard_of(doc_id: str, n_shards: int) -> int:
    """The shard owning ``doc_id``: ``blake2b(doc_id) % n_shards``.

    A *stable* hash — Python's builtin ``hash`` is randomized per
    process, which would scatter the same candidates differently on
    every run and break cross-process reproducibility.
    """
    if n_shards == 1:
        return 0
    digest = hashlib.blake2b(doc_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


class ShardedFeatureStore:
    """``n_shards`` independent :class:`FeatureStore` partitions behind
    the monolithic store's interface.

    Parameters
    ----------
    n_shards:
        Partition count; ``capacity`` is split evenly across shards with
        a floor of 1 slot per shard, so ``capacity < n_shards`` can
        never produce a zero-capacity store (which ``FeatureStore``
        rejects).  Total cache memory is therefore bounded by
        ``max(capacity, n_shards)`` entries — equal to a monolithic
        store of the same capacity in the normal ``capacity >= n_shards``
        regime, and one entry per shard in the degenerate one.
    epoch_provider:
        Shared freshness epoch, exactly as for :class:`FeatureStore` —
        all shards consult the same provider, so a plane refresh
        invalidates every shard at once.
    executor:
        Fan-out pool for per-shard batch builds; defaults to inline.
    """

    def __init__(
        self,
        n_shards: int = 1,
        epoch_provider: Callable[[], int] | None = None,
        capacity: int = 16384,
        name: str = "scoring",
        executor: Executor | None = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        # Floor at one slot per shard: every candidate must be cacheable
        # in its owning shard even when capacity < n_shards (total bound
        # becomes max(capacity, n_shards) — see class docstring).
        per_shard = max(1, capacity // n_shards)
        self._stores = [
            FeatureStore(
                epoch_provider=epoch_provider,
                capacity=per_shard,
                name=f"{name}-s{shard_id}",
            )
            for shard_id in range(n_shards)
        ]
        self._name = name
        self._executor = executor or SequentialExecutor()

    @property
    def n_shards(self) -> int:
        return len(self._stores)

    @property
    def built(self) -> int:
        return sum(store.built for store in self._stores)

    @property
    def reused(self) -> int:
        return sum(store.reused for store in self._stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)

    def features_for(
        self, candidate: Candidate, ctx: ScoringContext
    ) -> CandidateFeatures:
        store = self._stores[shard_of(candidate.candidate_id, len(self._stores))]
        return store.features_for(candidate, ctx)

    def features_for_many(
        self, candidates: list[Candidate], ctx: ScoringContext
    ) -> list[CandidateFeatures]:
        """Features for the pool, in pool order, built shard-parallel.

        Partitions the batch by owning shard, fans the per-shard batches
        through the executor, and scatters results back to input
        positions.  Builds are pure, so placement and scheduling can't
        change a single float.
        """
        n_shards = len(self._stores)
        if n_shards == 1 or len(candidates) <= 1:
            return self._stores[0].features_for_many(candidates, ctx)
        partitions: dict[int, tuple[list[int], list[Candidate]]] = {}
        for index, candidate in enumerate(candidates):
            shard_id = shard_of(candidate.candidate_id, n_shards)
            positions, members = partitions.setdefault(shard_id, ([], []))
            positions.append(index)
            members.append(candidate)
        obs = get_obs()
        with obs.span(
            "scale.features",
            store=self._name,
            shards=len(partitions),
            candidates=len(candidates),
        ):
            tasks = sorted(partitions.items())

            def build(task: tuple[int, tuple[list[int], list[Candidate]]]):
                shard_id, (__, members) = task
                return self._stores[shard_id].features_for_many(members, ctx)

            per_shard = self._executor.map(build, tasks)
        features: list[CandidateFeatures | None] = [None] * len(candidates)
        for (__, (positions, __m)), shard_features in zip(tasks, per_shard):
            for position, built in zip(positions, shard_features):
                features[position] = built
        return features

    def clear(self) -> None:
        for store in self._stores:
            store.clear()

    def stats(self) -> dict:
        """Aggregate snapshot plus the per-shard breakdown."""
        per_shard = [store.stats() for store in self._stores]
        built = sum(s["features_built"] for s in per_shard)
        reused = sum(s["features_reused"] for s in per_shard)
        total = built + reused
        obs = get_obs()
        for shard_id, snapshot in enumerate(per_shard):
            obs.gauge(
                "scale_shard_features",
                float(snapshot["entries"]),
                store=self._name,
                shard=str(shard_id),
            )
        return {
            "shards": len(self._stores),
            "features_built": built,
            "features_reused": reused,
            "reuse_rate": round(reused / total, 4) if total else 0.0,
            "entries": sum(s["entries"] for s in per_shard),
            "per_shard": per_shard,
        }
