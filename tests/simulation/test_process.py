"""Tests for the review-process simulator."""

from collections import Counter

import pytest

from repro.simulation.process import (
    ProcessConfig,
    Response,
    ReviewProcessSimulator,
)


def ranked_authors(world, count=20):
    """A deterministic slice of author ids."""
    return sorted(world.authors)[:count]


def topics_of(world, author_id):
    return sorted(world.authors[author_id].topic_expertise)[:2]


@pytest.fixture(scope="module")
def simulator(world):
    return ReviewProcessSimulator(world, seed=7)


class TestConfigValidation:
    def test_zero_reviews_rejected(self):
        with pytest.raises(ValueError):
            ProcessConfig(reviews_needed=0)

    def test_bad_accept_base_rejected(self):
        with pytest.raises(ValueError):
            ProcessConfig(accept_base=0.0)
        with pytest.raises(ValueError):
            ProcessConfig(accept_base=1.5)


class TestProcess:
    def test_deterministic(self, world):
        ids = ranked_authors(world)
        topics = topics_of(world, ids[0])
        a = ReviewProcessSimulator(world, seed=3).run(ids, topics)
        b = ReviewProcessSimulator(world, seed=3).run(ids, topics)
        assert [o.author_id for o in a.outcomes] == [o.author_id for o in b.outcomes]
        assert a.turnaround_days == b.turnaround_days

    def test_different_seeds_differ(self, world):
        ids = ranked_authors(world)
        topics = topics_of(world, ids[0])
        a = ReviewProcessSimulator(world, seed=1).run(ids, topics)
        b = ReviewProcessSimulator(world, seed=2).run(ids, topics)
        # Either outcomes or timing must differ somewhere.
        assert (
            a.turnaround_days != b.turnaround_days
            or [o.response for o in a.outcomes] != [o.response for o in b.outcomes]
        )

    def test_completes_with_long_list(self, simulator, world):
        ids = ranked_authors(world, count=40)
        result = simulator.run(ids, topics_of(world, ids[0]))
        assert result.completed
        assert len(result.accepted()) == 3
        assert result.turnaround_days > 0

    def test_incomplete_with_short_list(self, world):
        # A single uninterested candidate cannot fill three slots.
        config = ProcessConfig(reviews_needed=3)
        simulator = ReviewProcessSimulator(world, config=config, seed=1)
        ids = ranked_authors(world, count=1)
        result = simulator.run(ids, topics_of(world, ids[0]))
        assert not result.completed
        assert len(result.accepted()) < 3

    def test_empty_list(self, simulator, world):
        result = simulator.run([], ["databases"])
        assert not result.completed
        assert result.invitations_sent() == 0

    def test_outcomes_are_chronological(self, simulator, world):
        ids = ranked_authors(world, count=40)
        result = simulator.run(ids, topics_of(world, ids[0]))
        invited_days = [o.invited_on_day for o in result.outcomes]
        assert invited_days == sorted(invited_days)
        for outcome in result.outcomes:
            assert outcome.responded_on_day >= outcome.invited_on_day
            if outcome.response is Response.ACCEPTED:
                assert outcome.review_completed_on_day > outcome.responded_on_day

    def test_turnaround_is_last_review_day(self, simulator, world):
        ids = ranked_authors(world, count=40)
        result = simulator.run(ids, topics_of(world, ids[0]))
        assert result.turnaround_days == max(
            o.review_completed_on_day for o in result.accepted()
        )

    def test_quality_in_range(self, simulator, world):
        ids = ranked_authors(world, count=40)
        result = simulator.run(ids, topics_of(world, ids[0]))
        assert 0.0 <= result.mean_review_quality() <= 1.0

    def test_mean_quality_empty(self, simulator):
        from repro.simulation.process import ProcessResult

        assert ProcessResult().mean_review_quality() == 0.0


class TestBehaviouralShape:
    def test_responsive_population_faster(self, world):
        """Ranking by true responsiveness must reduce expected turnaround."""
        by_responsiveness = sorted(
            world.authors, key=lambda a: -world.authors[a].responsiveness
        )
        reversed_order = list(reversed(by_responsiveness))
        topics = topics_of(world, by_responsiveness[0])
        fast_days, slow_days = [], []
        for seed in range(8):
            simulator = ReviewProcessSimulator(world, seed=seed)
            fast_days.append(simulator.run(by_responsiveness[:30], topics).turnaround_days)
            slow_days.append(simulator.run(reversed_order[:30], topics).turnaround_days)
        assert sum(fast_days) / len(fast_days) < sum(slow_days) / len(slow_days)

    def test_relevant_reviewers_accept_more(self, world):
        """On-topic lists need fewer invitations than off-topic ones.

        The two topics are the ones most scholars work on (ties broken by
        topic id), so the on-topic list is long enough to compare, and
        both lists have the same length.
        """
        counts = Counter(topic for a in world.authors.values() for topic in a.topics())
        topics = sorted(counts, key=lambda topic: (-counts[topic], topic))[:2]
        on_topic = [
            a.author_id
            for a in world.authors.values()
            if set(topics) & a.topics()
        ][:30]
        off_topic = [
            a.author_id
            for a in world.authors.values()
            if not (set(topics) & a.topics())
        ][: len(on_topic)]
        assert len(on_topic) >= 10
        assert len(off_topic) == len(on_topic)
        on_invites, off_invites = [], []
        for seed in range(8):
            simulator = ReviewProcessSimulator(world, seed=seed)
            on_invites.append(simulator.run(on_topic, topics).invitations_sent())
            off_invites.append(simulator.run(off_topic, topics).invitations_sent())
        assert sum(on_invites) <= sum(off_invites)
