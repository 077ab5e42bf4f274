"""Deterministic open-loop load generation on the virtual clock.

A :class:`LoadGenerator` draws a seeded Poisson arrival process —
open-loop: arrival times never depend on how fast the server drains, so
overload actually *builds up* instead of self-throttling the way a
closed-loop client would.  Each arrival picks a tenant from a weighted
multi-tenant mix and a request from a weighted template set.
:class:`Burst` windows multiply the arrival rate for a span of virtual
time (the 2x-capacity spike the admission path exists for).

Everything derives from one ``random.Random(seed)``: the same seed
yields byte-identical arrival schedules, which is what lets the traffic
benchmark compare worker counts and admission policies on *exactly* the
same offered load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RequestTemplate:
    """One request shape the generator can emit, with a mix weight."""

    method: str
    path: str
    body: dict | None = None
    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's share of the offered traffic."""

    name: str
    weight: float = 1.0

    def __post_init__(self):
        if not self.name.strip():
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


@dataclass(frozen=True)
class Burst:
    """A rate multiplier over ``[start, start + duration)`` virtual seconds."""

    start: float
    duration: float
    multiplier: float

    def __post_init__(self):
        if not self.start >= 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not self.multiplier > 0:
            raise ValueError(f"multiplier must be > 0, got {self.multiplier}")

    def active_at(self, at: float) -> bool:
        return self.start <= at < self.start + self.duration


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, who, and what."""

    at: float
    tenant: str
    method: str
    path: str
    body: dict | None


def _weighted_choice(rng: random.Random, items, weights) -> int:
    """Index drawn proportionally to ``weights`` (deterministic per rng)."""
    total = sum(weights)
    point = rng.random() * total
    running = 0.0
    for index, weight in enumerate(weights):
        running += weight
        if point < running:
            return index
    return len(items) - 1


class LoadGenerator:
    """Seeded open-loop arrival schedules over a tenant/request mix.

    Example
    -------
    >>> gen = LoadGenerator(
    ...     templates=(RequestTemplate("GET", "/api/v1/health"),),
    ...     rate=100.0,
    ...     seed=7,
    ... )
    >>> first = gen.arrivals(count=50)
    >>> first == gen.arrivals(count=50)  # same seed, same schedule
    True
    >>> all(a.at <= b.at for a, b in zip(first, first[1:]))
    True
    """

    def __init__(
        self,
        templates,
        tenants=(TenantLoad("default"),),
        rate: float = 10.0,
        seed: int = 7,
        bursts=(),
    ):
        templates = tuple(templates)
        tenants = tuple(tenants)
        if not templates:
            raise ValueError("at least one request template is required")
        if not tenants:
            raise ValueError("at least one tenant is required")
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self._templates = templates
        self._tenants = tenants
        self._rate = float(rate)
        self._seed = int(seed)
        self._bursts = tuple(bursts)

    def rate_at(self, at: float) -> float:
        """The offered arrival rate at one instant (bursts applied)."""
        rate = self._rate
        for burst in self._bursts:
            if burst.active_at(at):
                rate *= burst.multiplier
        return rate

    def arrivals(
        self, count: int | None = None, duration: float | None = None
    ) -> list[Arrival]:
        """The deterministic schedule: ``count`` arrivals, or all arrivals
        before ``duration`` virtual seconds (pass exactly one)."""
        if (count is None) == (duration is None):
            raise ValueError("pass exactly one of count or duration")
        if count is not None and count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rng = random.Random(self._seed)
        template_weights = [t.weight for t in self._templates]
        tenant_weights = [t.weight for t in self._tenants]
        out: list[Arrival] = []
        at = 0.0
        while count is None or len(out) < count:
            at += rng.expovariate(self.rate_at(at))
            if duration is not None and at >= duration:
                break
            template = self._templates[
                _weighted_choice(rng, self._templates, template_weights)
            ]
            tenant = self._tenants[
                _weighted_choice(rng, self._tenants, tenant_weights)
            ]
            out.append(
                Arrival(
                    at=round(at, 9),
                    tenant=tenant.name,
                    method=template.method,
                    path=template.path,
                    body=template.body,
                )
            )
        return out


def manuscript_templates(
    world, count: int = 4, keyword_count: int = 2, weight: float = 1.0
) -> list[RequestTemplate]:
    """Recommendation request templates drawn from real world scholars.

    Picks unambiguous authors with enough topic expertise (the same
    rule the test conftest uses) so every template's pipeline run
    succeeds, and renders each as a ``POST /api/v1/recommend`` payload.
    """
    templates: list[RequestTemplate] = []
    for author in world.authors.values():
        if len(templates) >= count:
            break
        if len(world.authors_by_name(author.name)) > 1:
            continue
        if len(author.topic_expertise) < keyword_count:
            continue
        topics = sorted(author.topic_expertise)[:keyword_count]
        keywords = [world.ontology.topic(t).label for t in topics]
        affiliation = author.affiliations[-1]
        journals = world.journal_venues()
        templates.append(
            RequestTemplate(
                method="POST",
                path="/api/v1/recommend",
                body={
                    "manuscript": {
                        "title": f"A Study of {keywords[0]}",
                        "keywords": keywords,
                        "authors": [
                            {
                                "name": author.name,
                                "affiliation": affiliation.institution,
                                "country": affiliation.country,
                            }
                        ],
                        "target_venue": journals[0].name if journals else "",
                    }
                },
                weight=weight,
            )
        )
    if not templates:
        raise ValueError("world has no unambiguous author with enough topics")
    return templates
