"""Spawn-safe task descriptors for process-parallel scale queries.

Closures over a live :class:`~repro.scale.plane.ScalePlane` cannot cross
a process boundary, and pickling the plane itself — gigabytes of index
postings at population scale — would erase any speedup.  This module is
the bridge that makes the process backend cheap instead:

- :class:`ScaleWorkerBootstrap` carries only what a fresh interpreter
  needs to rebuild everything — the world *config* (seed included), the
  world's block/cache geometry and the shard count.  Its ``hydrate()``
  runs once per pool worker (via the executor's initializer) and
  reconstructs a full plane replica; the
  :class:`~repro.world.streaming.StreamingWorld`'s derive-anything-from-
  the-seed property guarantees the replica is bit-identical to the
  parent's plane, so shard tasks can run against it interchangeably.
- The task descriptors (:class:`RetrieveShardTask`,
  :class:`ScreenShardTask`) are small frozen dataclasses holding only
  per-query data: keywords, idf maps, pool members, submitters.
  Each knows how to :meth:`run` itself against a hydrated plane, and
  each delegates to the *same* plane method the in-process path calls —
  single-sourcing the logic is what makes "bit-identical at 1/2/8
  processes" a structural property rather than a test-enforced one.
- :func:`run_scale_task` is the module-level (hence picklable) entry
  point the executor maps: it resolves the calling worker's hydrated
  replica and dispatches.

Everything here must stay importable without side effects: spawned
interpreters import this module before the bootstrap runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.concurrency.process import worker_state


@dataclass(frozen=True)
class ScaleWorkerBootstrap:
    """Everything a pool worker needs to rebuild a plane replica.

    ``shard_ids`` optionally restricts the replica to a subset of
    shards — the hook for pools whose scheduler routes each shard's
    tasks to a dedicated worker.  The stock
    :class:`~repro.concurrency.process.ProcessExecutor` hands any task
    to any worker, so its bootstraps leave it ``None`` (full replica).
    """

    world_config: object
    n_shards: int
    block_size: int = 32
    cache_blocks: int = 64
    shard_ids: tuple[int, ...] | None = None

    @classmethod
    def for_plane(cls, plane) -> "ScaleWorkerBootstrap":
        """The bootstrap that replicates ``plane`` in a worker."""
        return cls(
            world_config=plane.world.config,
            n_shards=plane.n_shards,
            block_size=plane.world.block_size,
            cache_blocks=plane.world.cache_blocks,
        )

    @classmethod
    def for_world(cls, world, n_shards: int) -> "ScaleWorkerBootstrap":
        """The bootstrap for a plane over ``world`` with ``n_shards``."""
        return cls(
            world_config=world.config,
            n_shards=int(n_shards),
            block_size=world.block_size,
            cache_blocks=world.cache_blocks,
        )

    def hydrate(self):
        """Rebuild the plane replica (runs once, inside the worker).

        Streams the world through the plane's ingest, so the worker's
        index/COI structures equal the parent's for the shards it owns.
        The replica keeps no scoring rows: workers only retrieve and
        screen, and the parent scores from its own rows.  All telemetry
        this emits lands in the worker's local registry, which ships
        home with the first result batch.
        """
        from repro.scale.plane import ScalePlane
        from repro.world.streaming import StreamingWorld

        world = StreamingWorld(
            self.world_config,
            block_size=self.block_size,
            cache_blocks=self.cache_blocks,
        )
        plane = ScalePlane(world, n_shards=self.n_shards)
        plane._ingest(self.shard_ids, with_rows=False)
        return plane


@dataclass(frozen=True)
class RetrieveShardTask:
    """Score one shard's documents against a query.

    Carries the query terms (duplicates preserved — accumulation order
    is part of the float contract) plus the parent-computed global idf.
    """

    shard_id: int
    terms: tuple[str, ...]
    weights: dict[str, float] | None = None
    idf: dict[str, float] = field(default_factory=dict)

    def run(self, plane) -> dict[str, float]:
        return plane.index.score_shard(
            self.shard_id, list(self.terms), self.weights, self.idf
        )


@dataclass(frozen=True)
class ScreenShardTask:
    """COI-screen one shard's slice of the retrieved pool."""

    shard_id: int
    members: tuple[tuple[int, object], ...]
    submitters: frozenset[str]
    submitter_affs: tuple[tuple[str, int, int], ...]

    def run(self, plane) -> list:
        return plane.screen_shard(
            self.shard_id,
            list(self.members),
            set(self.submitters),
            list(self.submitter_affs),
        )


#: Every descriptor type the scale plane ships to workers (the pickle
#: round-trip test enumerates these).
TASK_TYPES = (RetrieveShardTask, ScreenShardTask)


def run_scale_task(task):
    """Executor entry point: run ``task`` against this worker's replica.

    Module-level on purpose — the process backend pickles the function
    by qualified name.  Outside a hydrated pool worker (e.g. under the
    unpicklable-payload thread fallback, or in a direct in-process
    call) it falls back to the ambient plane registered by the parent,
    so a degraded process executor still computes correct results.
    """
    plane = worker_state()
    if plane is None:
        plane = _PARENT_PLANE.get("plane")
    if plane is None:
        raise RuntimeError(
            "no hydrated ScalePlane in this worker: create the process "
            "executor with bootstrap=ScaleWorkerBootstrap.for_plane(plane)"
        )
    return task.run(plane)


#: In-process fallback target for ``run_scale_task`` (set by the parent
#: plane when it routes descriptors through a non-process executor, as
#: happens after an unpicklable-payload or broken-pool downgrade).
_PARENT_PLANE: dict = {}


def register_parent_plane(plane) -> None:
    """Let in-process ``run_scale_task`` calls resolve ``plane``."""
    _PARENT_PLANE["plane"] = plane
