"""End-to-end integration: every subsystem in one scenario.

Covers the full life of a deployment: generate a world, freeze it to a
dataset, reload it, stand up the simulated scholarly web, recommend
through the REST API, batch-assign a special issue, simulate the review
process, evolve the world and observe freshness — the whole system
working together.
"""

import pytest

from repro.assignment import (
    assess_assignment,
    optimal_assignment,
    problem_from_results,
)
from repro.baselines.evaluation import CandidateResolver
from repro.api.handlers import MinaretApi
from repro.core.models import Manuscript, ManuscriptAuthor
from repro.core.pipeline import Minaret
from repro.scholarly.registry import ScholarlyHub
from repro.simulation import ReviewProcessSimulator
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world
from repro.world.io import load_world, save_world


@pytest.fixture(scope="module")
def frozen_world(tmp_path_factory):
    original = generate_world(WorldConfig(author_count=150, seed=77))
    path = tmp_path_factory.mktemp("dataset") / "world.json"
    save_world(original, path)
    return load_world(path)


def pick_manuscripts(world, count):
    picks = []
    for author in world.authors.values():
        if len(picks) >= count:
            break
        if len(world.authors_by_name(author.name)) > 1:
            continue
        topics = sorted(author.topic_expertise)[:3]
        picks.append(
            (
                Manuscript(
                    title=f"Integration Paper {len(picks)}",
                    keywords=tuple(world.ontology.topic(t).label for t in topics),
                    authors=(
                        ManuscriptAuthor(
                            author.name, author.affiliations[-1].institution
                        ),
                    ),
                    target_venue=world.journal_venues()[0].name,
                ),
                author,
            )
        )
    return picks


class TestFullScenario:
    def test_frozen_dataset_end_to_end(self, frozen_world):
        hub = ScholarlyHub.deploy(frozen_world)
        api = MinaretApi(hub)
        pairs = pick_manuscripts(frozen_world, 3)

        # 1. Recommend through the REST API.
        manuscript, author = pairs[0]
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": {
                    "title": manuscript.title,
                    "keywords": list(manuscript.keywords),
                    "authors": [
                        {
                            "name": a.name,
                            "affiliation": a.affiliation,
                        }
                        for a in manuscript.authors
                    ],
                },
                "top_k": 5,
            },
        )
        assert response.ok
        assert response.body["recommendations"]

        # 2. Batch-assign across the three manuscripts.
        minaret = Minaret(hub)
        results = [
            (f"paper-{i}", minaret.recommend(m)) for i, (m, __) in enumerate(pairs)
        ]
        problem = problem_from_results(
            results, reviewers_per_paper=2, max_load=2, top_k=10
        )
        assignment = optimal_assignment(problem)
        quality = assess_assignment(problem, assignment)
        assert quality.max_load <= 2

        # 3. Simulate the review process for the first paper.
        resolver = CandidateResolver(hub)
        ranked = resolver.world_ids(
            [s.candidate.candidate_id for s in results[0][1].ranked]
        )
        process = ReviewProcessSimulator(frozen_world, seed=3).run(
            ranked, sorted(author.topic_expertise)[:3]
        )
        assert process.invitations_sent() > 0

        # 4. Evolve the world and confirm the services re-index.
        dynamics = WorldDynamics(frozen_world, seed=9)
        target = sorted(frozen_world.authors)[0]
        new_pubs = dynamics.publish(target, "databases", 2020, count=2)
        hub.refresh_services()
        pid = hub.dblp_service.pid_of(target)
        page = hub.dblp.author_page(pid)
        assert set(new_pubs) <= set(page.profile.publication_ids)

    def test_api_and_direct_pipeline_agree(self, frozen_world):
        """The REST facade must return exactly the pipeline's answer."""
        hub_api = ScholarlyHub.deploy(frozen_world)
        hub_direct = ScholarlyHub.deploy(frozen_world)
        manuscript, __ = pick_manuscripts(frozen_world, 1)[0]
        api = MinaretApi(hub_api)
        response = api.handle(
            "POST",
            "/api/v1/recommend",
            {
                "manuscript": {
                    "title": manuscript.title,
                    "keywords": list(manuscript.keywords),
                    "authors": [
                        {"name": a.name, "affiliation": a.affiliation}
                        for a in manuscript.authors
                    ],
                    "target_venue": manuscript.target_venue,
                }
            },
        )
        direct = Minaret(hub_direct).recommend(manuscript)
        api_ids = [r["candidate_id"] for r in response.body["recommendations"]]
        direct_ids = [s.candidate.candidate_id for s in direct.ranked]
        assert api_ids == direct_ids
