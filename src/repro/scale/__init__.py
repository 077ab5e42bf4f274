"""``repro.scale`` — the scale plane: reviewer search over streamed worlds.

MINARET's pitch is recommending reviewers from the *whole* online
scholarly population.  :class:`ScalePlane` does that over a
:class:`repro.world.StreamingWorld`: ingest streams scholars once into
one :class:`repro.storage.InvertedIndex` of interests, the COI
screen's institution and co-author maps and compact per-scholar
scoring rows, and each query touches only the retrieved pool — without
realising a single world block or holding scholars resident.  Each
query phase (retrieve, COI screen, score) is one pass over that one
partition, and answers are bit-identical to
:meth:`ScalePlane.brute_force_topk`, a full scan over every scholar.

Neither the pipeline nor :class:`ScalePlane` uses
:class:`ShardedFeatureStore`: the pipeline scores through one
:class:`repro.scoring.FeatureStore` and the plane looks up its scoring
rows.  The class stays only because the benchmark harness times it as
its ``scale.features_for_many`` layer (see :mod:`repro.scale.features`).
"""

from repro.scale.features import ShardedFeatureStore
from repro.scale.plane import PoolMember, ScalePlane, ScaleVerdict

__all__ = [
    "PoolMember",
    "ScalePlane",
    "ScaleVerdict",
    "ShardedFeatureStore",
]
