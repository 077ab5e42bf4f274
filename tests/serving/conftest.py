"""Fixtures for the serving front-end suite."""

from __future__ import annotations

import pytest

from repro.api.handlers import MinaretApi
from repro.serving import ServingConfig, ServingFrontend, TenantPolicy


@pytest.fixture()
def api(hub):
    return MinaretApi(hub)


def manuscript_payload(manuscript):
    return {
        "title": manuscript.title,
        "keywords": list(manuscript.keywords),
        "authors": [
            {
                "name": a.name,
                "affiliation": a.affiliation,
                "country": a.country,
            }
            for a in manuscript.authors
        ],
        "target_venue": manuscript.target_venue,
    }


@pytest.fixture()
def recommend_body(manuscript):
    return {"manuscript": manuscript_payload(manuscript), "top_k": 5}


def make_frontend(api, **overrides) -> ServingFrontend:
    """A front-end with small, test-friendly defaults."""
    defaults = dict(
        queue_capacity=8,
        default_policy=TenantPolicy(capacity=4, refill_rate=1.0),
    )
    defaults.update(overrides)
    return ServingFrontend(api, ServingConfig(**defaults))


@pytest.fixture()
def frontend(api):
    return make_frontend(api)


def queue_depth(metrics) -> float:
    """The ``serving_queue_depth`` gauge, read from the registry snapshot."""
    (series,) = metrics.snapshot()["gauges"]["serving_queue_depth"]
    return series["value"]
