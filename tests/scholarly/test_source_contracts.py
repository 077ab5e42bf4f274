"""The contract every simulated source and its scraper client share.

Identity verification (paper §2.1) treats the six services alike: search
by name, open the hit's page, and map a missing page to "no profile".
These tests hold each source to that contract over the real simulated
HTTP path, and check that the routes only tests used to reach are gone.
"""

from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.scholarly.records import SourceName, SourcePage
from repro.text.strings import name_similarity
from repro.web.http import NotFoundError
from tests.scholarly.test_sources import acm_profile_id, orcid_id


@dataclass(frozen=True)
class Contract:
    source: SourceName
    client: str
    service: str
    search: str
    hit_key: str
    page: str
    #: ``(hub, world author id) -> the source's id for that author``.
    own_id: Callable[[object, str], str | None]
    unknown_id: str


CONTRACTS = [
    Contract(
        SourceName.DBLP,
        "dblp",
        "dblp_service",
        "search_author",
        "pid",
        "author_page",
        lambda hub, author_id: hub.dblp_service.pid_of(author_id),
        "Nobody Nowhere 0042",
    ),
    Contract(
        SourceName.GOOGLE_SCHOLAR,
        "scholar",
        "scholar_service",
        "search_author",
        "user",
        "profile_page",
        lambda hub, author_id: hub.scholar_service.user_of(author_id),
        "sch_nonexistent",
    ),
    Contract(
        SourceName.PUBLONS,
        "publons",
        "publons_service",
        "search_reviewer",
        "reviewer_id",
        "reviewer_profile",
        lambda hub, author_id: hub.publons_service.reviewer_id_of(author_id),
        "P-nothere",
    ),
    Contract(
        SourceName.ACM_DL,
        "acm",
        "acm_service",
        "search_author",
        "profile_id",
        "profile",
        lambda hub, author_id: acm_profile_id(author_id),
        "acm-nothere",
    ),
    Contract(
        SourceName.ORCID,
        "orcid",
        "orcid_service",
        "search",
        "orcid",
        "record",
        lambda hub, author_id: orcid_id(author_id),
        "0000-0000-0000-0000",
    ),
    Contract(
        SourceName.RESEARCHER_ID,
        "rid",
        "rid_service",
        "search",
        "rid",
        "profile",
        lambda hub, author_id: hub.rid_service.rid_of(author_id),
        "Z-9999-2000",
    ),
]
IDS = [contract.client for contract in CONTRACTS]
PARTIAL = [c for c in CONTRACTS if c.source is not SourceName.DBLP]
#: Sources whose service keeps no author → id map: tests mint the id.
MINTED = {SourceName.ACM_DL, SourceName.ORCID}


def covered_author(world, source):
    for author_id in sorted(world.authors):
        if source in world.authors[author_id].covered_by:
            return world.authors[author_id]
    raise RuntimeError(f"no author covered by {source}")


def profile_of(page):
    return page.profile if isinstance(page, SourcePage) else page


@pytest.mark.parametrize("contract", CONTRACTS, ids=IDS)
class TestEverySource:
    def test_unknown_id_is_none(self, shared_hub, contract):
        client = getattr(shared_hub, contract.client)
        assert getattr(client, contract.page)(contract.unknown_id) is None

    def test_unknown_name_has_no_hits(self, shared_hub, contract):
        client = getattr(shared_hub, contract.client)
        assert getattr(client, contract.search)("Zebulon Quixwort") == []

    def test_search_finds_the_authors_own_id(self, shared_hub, world, contract):
        author = covered_author(world, contract.source)
        own_id = contract.own_id(shared_hub, author.author_id)
        client = getattr(shared_hub, contract.client)
        hits = getattr(client, contract.search)(author.name)
        assert own_id in [hit[contract.hit_key] for hit in hits]

    def test_own_page_names_the_author(self, shared_hub, world, contract):
        author = covered_author(world, contract.source)
        own_id = contract.own_id(shared_hub, author.author_id)
        client = getattr(shared_hub, contract.client)
        profile = profile_of(getattr(client, contract.page)(own_id))
        assert profile.source is contract.source
        assert profile.source_author_id == own_id
        assert name_similarity(profile.name, author.name) > 0.9

    def test_unrouted_path_is_404(self, hub, contract):
        # A fresh deployment: a bare GET has no crawler to wait out a
        # rate limit that earlier traffic drained.
        host = getattr(hub, contract.client).host
        with pytest.raises(NotFoundError):
            hub.http.get(host, "/no-such-page")

    def test_client_and_service_share_a_host(self, shared_hub, contract):
        service = getattr(shared_hub, contract.service)
        assert getattr(shared_hub, contract.client).host == service.host
        assert service.source is contract.source


@pytest.mark.parametrize("contract", PARTIAL, ids=[c.client for c in PARTIAL])
def test_uncovered_author_has_no_id(world, shared_hub, contract):
    author = next(
        world.authors[author_id]
        for author_id in sorted(world.authors)
        if contract.source not in world.authors[author_id].covered_by
    )
    own_id = contract.own_id(shared_hub, author.author_id)
    if contract.source in MINTED:
        # No map to ask: the id minted from the world id has no page.
        client = getattr(shared_hub, contract.client)
        assert getattr(client, contract.page)(own_id) is None
    else:
        assert own_id is None


def test_duplicate_route_rejected(hub):
    before = hub.dblp_service.paths()
    with pytest.raises(ValueError, match="duplicate route"):
        hub.dblp_service.route("/author", lambda request: {})
    assert hub.dblp_service.paths() == before


@pytest.mark.parametrize(
    ("host", "path", "params"),
    [
        ("dblp.org", "/search/publications", {"from": 2000, "to": 2019}),
        ("dblp.org", "/search/title", {"q": "semantic web"}),
        ("dblp.org", "/publication", {"id": "pub-1"}),
        ("dblp.org", "/venue", {"id": "venue-1"}),
        ("publons.com", "/api/reviews", {"id": "P-1"}),
    ],
    ids=["dblp-year-range", "dblp-title", "dblp-publication", "dblp-venue", "publons-reviews"],
)
def test_routes_nothing_requests_answer_404(hub, host, path, params):
    with pytest.raises(NotFoundError):
        hub.http.get(host, path, params)
    assert hub.http.stats[host].not_found == 1
