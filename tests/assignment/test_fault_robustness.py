"""Conference assignment under a degraded scholarly web.

Runs a planted conference scenario against a hub whose sources fault
hard enough that some papers' identity verification dies outright, and
asserts the ``on_error="skip"`` contract: every failure is a typed
per-paper record, the surviving papers still get a valid assignment
(no partial-state corruption), and the failures are observable as
events and counters.  Because fault draws are content-keyed, the *same*
papers fail at every worker count.
"""

import pytest

from repro.assignment import PaperFailure, assign_conference, recommend_batch
from repro.core.errors import MinaretError
from repro.core.pipeline import Minaret
from repro.obs import Observability, use
from repro.scholarly.records import SourceName
from repro.scholarly.registry import DEFAULT_BEHAVIOUR, ScholarlyHub, SourceBehaviour
from repro.web.crawler import RetryPolicy
from repro.world.conference import ConferenceConfig, generate_conference

#: DBLP and Scholar faulting 55% with single attempts: author searches
#: die for an appreciable fraction of papers, which is exactly the
#: failure mode (IdentityVerificationError) conference mode must absorb.
FAULTY_SOURCES = {SourceName.DBLP, SourceName.GOOGLE_SCHOLAR}


def faulty_behaviour():
    behaviour = {}
    for source in SourceName:
        if source in FAULTY_SOURCES:
            behaviour[source] = SourceBehaviour(
                latency_base=0.001,
                latency_jitter=0.0,
                failure_probability=0.55,
            )
        else:
            behaviour[source] = DEFAULT_BEHAVIOUR[source]
    return behaviour


def deploy_faulty(world):
    return ScholarlyHub.deploy(
        world,
        behaviour=faulty_behaviour(),
        retry=RetryPolicy(max_attempts=1, base_backoff=0.001),
    )


@pytest.fixture(scope="module")
def scenario(world):
    return generate_conference(world, ConferenceConfig(paper_count=8, seed=3))


def run_conference(world, scenario, workers=1):
    obs = Observability()
    with use(obs):
        conference = assign_conference(
            Minaret(deploy_faulty(world)),
            scenario.entries(),
            reviewers_per_paper=2,
            capacity=3,
            solver="flow",
            workers=workers,
            on_error="skip",
        )
    return conference, obs


class TestFaultTolerantConference:
    def test_failures_are_typed_and_run_survives(self, world, scenario):
        conference, _ = run_conference(world, scenario)
        assert conference.failures, (
            "the fault policy must actually kill some papers — "
            "raise failure_probability if this fires"
        )
        assert conference.results, "not every paper may die"
        for failure in conference.failures:
            assert isinstance(failure, PaperFailure)
            # The recorded error type really is a framework error.
            error_types = {
                cls.__name__ for cls in MinaretError.__subclasses__()
            }
            error_types.add("MinaretError")
            assert failure.error in error_types
            assert failure.message

    def test_survivors_get_valid_assignment_no_corruption(
        self, world, scenario
    ):
        conference, _ = run_conference(world, scenario)
        failed_ids = {failure.paper_id for failure in conference.failures}
        survivor_ids = {paper_id for paper_id, _ in conference.results}
        # Exact partition: every paper is either a result or a failure.
        all_ids = {paper_id for paper_id, _ in scenario.entries()}
        assert failed_ids | survivor_ids == all_ids
        assert not failed_ids & survivor_ids
        # The problem and assignment mention only surviving papers.
        assert set(conference.problem.papers()) <= survivor_ids
        assert set(conference.assignment.by_paper) <= survivor_ids
        # And the assignment stays structurally valid.
        loads = conference.assignment.loads()
        assert all(load <= 3 for load in loads.values())
        for paper_id in conference.problem.papers():
            reviewers = conference.assignment.reviewers_of(paper_id)
            assert len(set(reviewers)) == len(reviewers)
            for reviewer in reviewers:
                assert reviewer in conference.problem.scores[paper_id]

    def test_failures_emit_events_and_counters(self, world, scenario):
        conference, obs = run_conference(world, scenario)
        events = obs.ring.events("conference.paper_failed")
        assert len(events) == len(conference.failures)
        event_papers = {event.fields["paper_id"] for event in events}
        assert event_papers == {f.paper_id for f in conference.failures}
        for event in events:
            assert event.fields["error"]
            assert event.fields["message"]
        snapshot = obs.metrics.snapshot()
        failed_total = sum(
            series["value"]
            for name, entries in snapshot.get("counters", {}).items()
            if name == "conference_papers_failed_total"
            for series in entries
        )
        assert failed_total == len(conference.failures)

    def test_each_surviving_paper_is_billed(self, world, scenario):
        """Skip mode keeps the per-paper ledger: one ``request_cost``
        event per successful run, none for a failed one."""
        conference, obs = run_conference(world, scenario)
        billed = [event.fields["label"] for event in obs.ring.events("request_cost")]
        assert sorted(billed) == sorted(paper_id for paper_id, _ in conference.results)

    def test_failures_keep_their_positions(self, world, scenario):
        conference, _ = run_conference(world, scenario)
        with use(Observability()):
            outcomes = recommend_batch(
                Minaret(deploy_faulty(world)), scenario.entries(), on_error="skip"
            )
        assert [paper_id for paper_id, _ in outcomes] == [
            paper_id for paper_id, _ in scenario.entries()
        ]
        assert [o for _, o in outcomes if isinstance(o, PaperFailure)] == list(
            conference.failures
        )

    def test_raise_mode_runs_every_paper_then_raises_the_first(self, world, scenario):
        skipped, _ = run_conference(world, scenario)
        obs = Observability()
        with use(obs), pytest.raises(MinaretError) as raised:
            recommend_batch(Minaret(deploy_faulty(world)), scenario.entries(), workers=2)
        first = skipped.failures[0]
        assert (type(raised.value).__name__, str(raised.value)) == (
            first.error,
            first.message,
        )
        failed = {event.fields["paper_id"] for event in obs.ring.events("conference.paper_failed")}
        assert failed == {failure.paper_id for failure in skipped.failures}

    def test_same_papers_fail_at_every_worker_count(self, world, scenario):
        """Content-keyed fault draws: the failure pattern is part of the
        deterministic output, not a race artifact."""
        baseline, _ = run_conference(world, scenario, workers=1)
        for workers in (2, 8):
            conference, _ = run_conference(world, scenario, workers=workers)
            assert conference.failures == baseline.failures
            assert (
                conference.assignment.by_paper
                == baseline.assignment.by_paper
            )
