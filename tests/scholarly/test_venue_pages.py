"""Tests for DBLP venue search (Fig. 2's outlet crawl)."""

import pytest

from repro.core.pipeline import Minaret
from repro.scholarly.registry import ScholarlyHub


class TestVenueSearch:
    def test_exact_name_resolves(self, shared_hub, world):
        venue = world.journal_venues()[0]
        hits = shared_hub.dblp.search_venue(venue.name)
        assert any(h["venue_id"] == venue.venue_id for h in hits)

    def test_partial_name_matches(self, shared_hub, world):
        venue = world.journal_venues()[0]
        fragment = venue.name.split(" ")[-1]
        hits = shared_hub.dblp.search_venue(fragment)
        assert any(h["venue_id"] == venue.venue_id for h in hits)

    def test_case_insensitive(self, shared_hub, world):
        venue = world.journal_venues()[0]
        assert shared_hub.dblp.search_venue(venue.name.upper())

    def test_no_match(self, shared_hub):
        assert shared_hub.dblp.search_venue("Annals of Improbability") == []

    def test_empty_query(self, shared_hub):
        assert shared_hub.dblp.search_venue("") == []


class TestOutletResolution:
    def test_pipeline_canonicalizes_target_venue(self, world, manuscript):
        import dataclasses

        hub = ScholarlyHub.deploy(world)
        # Feed a sloppily-cased target name; the crawl_outlet phase must
        # canonicalize it so familiarity matching works.
        sloppy = dataclasses.replace(
            manuscript, target_venue=manuscript.target_venue.upper()
        )
        result = Minaret(hub).recommend(sloppy)
        assert result.manuscript.target_venue == manuscript.target_venue
        assert result.phase("crawl_outlet").requests >= 1

    def test_unknown_target_left_untouched(self, world, manuscript):
        import dataclasses

        hub = ScholarlyHub.deploy(world)
        odd = dataclasses.replace(
            manuscript, target_venue="Journal of Nonexistence"
        )
        result = Minaret(hub).recommend(odd)
        assert result.manuscript.target_venue == "Journal of Nonexistence"

    def test_no_target_venue_skips_crawl(self, world, manuscript):
        import dataclasses

        hub = ScholarlyHub.deploy(world)
        none = dataclasses.replace(manuscript, target_venue="")
        result = Minaret(hub).recommend(none)
        assert result.phase("crawl_outlet").requests == 0
