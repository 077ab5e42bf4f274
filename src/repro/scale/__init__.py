"""``repro.scale`` — the scale plane: sharded indexes over streamed worlds.

MINARET's pitch is recommending reviewers from the *whole* online
scholarly population, but a monolithic :class:`repro.storage.InvertedIndex`
and one COI posting map serialize every query behind single locks and
single cores.  This package shards both by ``hash(candidate_id) %
n_shards`` (:func:`shard_of` — a stable blake2b hash, not Python's
per-process ``hash``), gives each shard its own lock and epoch stamp,
and fans per-shard work out through the existing
:class:`repro.concurrency.Executor`, merging with the canonical
``(-score, candidate_id)`` tie-break so results are **bit-identical** to
the unsharded path at any worker or shard count.

:class:`ScalePlane` composes the pieces over a
:class:`repro.world.StreamingWorld`: ingest streams scholars once into
the sharded interest index, COI maps and compact per-scholar scoring
rows, and each query touches only the retrieved pool — without
realising a single world block or holding scholars resident.

Neither the pipeline nor :class:`ScalePlane` uses
:class:`ShardedFeatureStore`: the pipeline scores through one
:class:`repro.scoring.FeatureStore` and the plane looks up its scoring
rows.  The class stays only because the benchmark harness times it as
its ``scale.features_for_many`` layer (see :mod:`repro.scale.features`).
"""

from repro.scale.features import ShardedFeatureStore
from repro.scale.plane import PoolMember, ScalePlane, ScaleVerdict
from repro.scale.sharding import ShardedInvertedIndex, shard_of

__all__ = [
    "PoolMember",
    "ScalePlane",
    "ScaleVerdict",
    "ShardedFeatureStore",
    "ShardedInvertedIndex",
    "shard_of",
]
