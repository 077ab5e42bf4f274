"""Per-request cost ledger: unit accounting and pipeline wiring.

The ledger is a contextvar-scoped accumulator: instrumented code calls
the module-level ``charge_*`` helpers, which bill every ledger active
on the current context — so a whole recommendation run rolls up into
one itemised cost record without threading a handle through the stack.
The awkward shapes — deep nesting, ledgers crossing pool threads, and
re-entering a ledger after it has exited — are covered here too, since
phase reports read their requests and virtual time from ledgers.
"""

import contextlib
import threading

import pytest

from repro.concurrency import create_executor
from repro.core.config import PipelineConfig
from repro.core.pipeline import Minaret
from repro.obs import Observability, RequestLedger, use
from repro.obs.ledger import (
    _ACTIVE,
    charge_cache,
    charge_features,
    charge_http,
    charge_pruning,
    charge_wait,
    record_phase,
)
from repro.scholarly.records import SourceName
from repro.scholarly.registry import ScholarlyHub, SourceBehaviour


def active_ledgers():
    """The ledgers the ``charge_*`` helpers bill here, outermost first."""
    return _ACTIVE.get()


#: Every source faults now and then, none throttles: the crawler retries
#: and its backoff waits are charged, while request counts stay exact.
FLAKY_BEHAVIOUR = {
    source: SourceBehaviour(0.05, 0.02, failure_probability=0.1)
    for source in SourceName
}


class TestRequestLedgerUnit:
    def test_http_rolls_up_by_host(self):
        ledger = RequestLedger("r")
        ledger.add_http("a.example", 200, 0.5)
        ledger.add_http("a.example", 503, 1.5)
        ledger.add_http("b.example", 200, 0.25)
        payload = ledger.to_dict()
        assert payload["http"]["a.example"] == {
            "requests": 2,
            "errors": 1,
            "virtual_seconds": 2.0,
        }
        assert payload["http"]["b.example"]["errors"] == 0
        assert ledger.requests == 3
        assert ledger.virtual_seconds == pytest.approx(2.25)

    def test_client_errors_counted_as_errors(self):
        ledger = RequestLedger()
        ledger.add_http("a.example", 404, 0.1)
        assert ledger.to_dict()["http"]["a.example"]["errors"] == 1

    def test_cache_hit_rates(self):
        ledger = RequestLedger()
        for hit in (True, True, False):
            ledger.add_cache("crawler", hit)
        payload = ledger.to_dict()["caches"]["crawler"]
        assert payload == {"hits": 2, "misses": 1, "hit_rate": pytest.approx(2 / 3)}

    def test_feature_reuse_and_prune_rates(self):
        ledger = RequestLedger()
        ledger.add_features(built=3, reused=1)
        ledger.add_pruning(ranked=10, pruned=4)
        payload = ledger.to_dict()
        assert payload["features"] == {
            "built": 3,
            "reused": 1,
            "reuse_rate": pytest.approx(0.25),
        }
        assert payload["pruning"] == {
            "ranked": 10,
            "pruned": 4,
            "prune_rate": pytest.approx(0.4),
        }

    def test_phases_preserve_order(self):
        ledger = RequestLedger()
        ledger.add_phase("resolve", 0.1, 1.0, 2)
        ledger.add_phase("score", 0.2, 3.0, 5)
        names = [phase["phase"] for phase in ledger.to_dict()["phases"]]
        assert names == ["resolve", "score"]

    def test_empty_ledger_serialises_cleanly(self):
        payload = RequestLedger("empty").to_dict()
        assert payload["label"] == "empty"
        assert payload["requests"] == 0
        assert payload["wait_seconds"] == 0.0
        assert payload["http"] == {}
        assert payload["features"]["reuse_rate"] == 0.0

    def test_waits_add_virtual_time_but_no_host_row(self):
        ledger = RequestLedger()
        ledger.add_http("a.example", 200, 0.5)
        ledger.add_wait(0.25)
        payload = ledger.to_dict()
        assert ledger.requests == 1
        assert ledger.virtual_seconds == 0.75
        assert payload["virtual_seconds"] == 0.75
        assert payload["wait_seconds"] == 0.25
        assert payload["http"]["a.example"]["virtual_seconds"] == 0.5

    def test_bill_total_is_rounded_once(self):
        # Each host's row rounds 400 ns down to 0.0; summing the rounded
        # rows would bill nothing, while the exact 800 ns rounds to 1 us.
        ledger = RequestLedger()
        ledger.add_http("a.example", 200, 0.0000004)
        ledger.add_http("b.example", 200, 0.0000004)
        payload = ledger.to_dict()
        assert payload["http"]["a.example"]["virtual_seconds"] == 0.0
        assert payload["virtual_seconds"] == round(ledger.virtual_seconds, 6) == 1e-06


class TestChargeHelpers:
    def test_charges_reach_only_active_ledgers(self):
        outside = RequestLedger("outside")
        with RequestLedger("inside") as inside:
            charge_http("a.example", 200, 0.5)
            charge_cache("crawler", hit=True)
        charge_http("a.example", 200, 0.5)  # nobody listening
        assert inside.requests == 1
        assert outside.requests == 0
        assert active_ledgers() == ()

    def test_nested_ledgers_both_billed(self):
        with RequestLedger("outer") as outer:
            charge_http("a.example", 200, 1.0)
            with RequestLedger("inner") as inner:
                charge_http("b.example", 503, 2.0)
                charge_features(2, 3)
                charge_pruning(10, 5)
                record_phase("score", 0.1, 2.0, 1)
        assert outer.requests == 2
        assert inner.requests == 1
        assert outer.to_dict()["features"]["built"] == 2
        assert inner.to_dict()["pruning"]["pruned"] == 5
        assert [p["phase"] for p in outer.to_dict()["phases"]] == ["score"]

    def test_waits_reach_only_active_ledgers(self):
        with RequestLedger("outer") as outer:
            with RequestLedger("inner") as inner:
                charge_wait(0.5)
            charge_wait(0.25)
        charge_wait(10.0)  # nobody listening
        assert inner.virtual_seconds == 0.5
        assert outer.virtual_seconds == 0.75
        assert outer.requests == inner.requests == 0

    def test_cache_charge_counts(self):
        with RequestLedger("outer") as outer:
            with RequestLedger("inner") as inner:
                charge_cache("plane", hit=True, count=3)
                charge_cache("plane", hit=False, count=2)
            charge_cache("plane", hit=True)
        charge_cache("plane", hit=True, count=5)  # nobody listening
        assert inner.to_dict()["caches"]["plane"] == {
            "hits": 3,
            "misses": 2,
            "hit_rate": 0.6,
        }
        assert outer.to_dict()["caches"]["plane"]["hits"] == 4

    def test_zero_feature_charge_is_free(self):
        with RequestLedger() as ledger:
            charge_features(0, 0)
        assert ledger.to_dict()["features"] == {
            "built": 0,
            "reused": 0,
            "reuse_rate": 0.0,
        }

    def test_exit_restores_previous_stack(self):
        with RequestLedger("a") as a:
            with RequestLedger("b"):
                assert len(active_ledgers()) == 2
            assert active_ledgers() == (a,)


class TestLedgerPipelineWiring:
    """A real recommendation run bills http, caches, features, phases."""

    @pytest.fixture(scope="class")
    def bills(self, world):
        from tests.conftest import make_manuscript

        author = next(iter(world.authors.values()))
        manuscript = make_manuscript(world, author)
        hub = ScholarlyHub.deploy(world, cache_ttl=None)
        obs = Observability()
        with use(obs):
            minaret = Minaret(hub, config=PipelineConfig(workers=2))
            with RequestLedger("cold") as cold:
                minaret.recommend(manuscript)
            with RequestLedger("warm") as warm:
                minaret.recommend(manuscript)
        return cold.to_dict(), warm.to_dict()

    def test_http_charged_per_host(self, bills):
        cold, _ = bills
        assert cold["requests"] > 0
        assert cold["http"]
        for host, row in cold["http"].items():
            assert host in ("dblp.org", "scholar.google.com", "dl.acm.org",
                            "orcid.org", "publons.com", "researcherid.com")
            assert row["requests"] >= 1
            assert row["virtual_seconds"] > 0

    def test_warm_run_billed_to_caches_not_the_wire(self, bills):
        cold, warm = bills
        assert cold["caches"]["crawler"]["misses"] > 0
        assert warm["caches"]["crawler"]["hit_rate"] == 1.0
        assert warm["caches"]["crawler"]["misses"] == 0
        assert warm["requests"] == 0  # cache absorbed the whole run

    def test_features_built_then_reused(self, bills):
        cold, warm = bills
        assert cold["features"]["built"] > 0
        assert warm["features"]["built"] == 0
        assert warm["features"]["reuse_rate"] == 1.0

    def test_phases_cover_the_pipeline(self, bills):
        cold, _ = bills
        phases = {phase["phase"] for phase in cold["phases"]}
        assert {"verify_authors", "extract_candidates", "rank"} <= phases
        total_virtual = sum(phase["virtual_seconds"] for phase in cold["phases"])
        assert total_virtual >= cold["virtual_seconds"] * 0.5

    def test_worker_threads_bill_the_request_ledger(self, bills):
        # Phase work runs on pool threads; context propagation means
        # their http spend still lands on this request's ledger.
        cold, _ = bills
        assert sum(row["requests"] for row in cold["http"].values()) == (
            cold["requests"]
        )


class TestBillMatchesPhases:
    """The bill and the phase reports count the same requests and time.

    Both read the one request-cost channel, so a run's bill must equal
    the sum of its phases — waits included — at any worker count.
    """

    @pytest.mark.parametrize("workers", [1, 8])
    def test_bill_equals_sum_of_phases(self, world, manuscript, workers):
        hub = ScholarlyHub.deploy(world, behaviour=FLAKY_BEHAVIOUR, fault_seed=7)
        minaret = Minaret(hub, config=PipelineConfig(workers=workers))
        with RequestLedger("recommend") as ledger:
            result = minaret.recommend(manuscript)
        bill = ledger.to_dict()
        phases = result.phase_reports
        assert bill["wait_seconds"] > 0, "sanity: the crawler waited on retries"
        assert bill["requests"] == sum(report.requests for report in phases)
        assert ledger.virtual_seconds == pytest.approx(
            sum(report.virtual_seconds for report in phases), abs=1e-9
        )


class TestDeepNesting:
    def test_every_level_sees_inner_charges(self):
        ledgers = [RequestLedger(f"level-{i}") for i in range(10)]
        with contextlib.ExitStack() as stack:
            for ledger in ledgers:
                stack.enter_context(ledger)
            assert active_ledgers() == tuple(ledgers)
            charge_http("a.example", 200, 0.5)
        assert all(ledger.requests == 1 for ledger in ledgers)
        assert all(ledger.virtual_seconds == pytest.approx(0.5) for ledger in ledgers)
        assert active_ledgers() == ()

    def test_inner_exit_stops_inner_charges_only(self):
        with RequestLedger() as outer:
            with RequestLedger() as inner:
                charge_http("a.example", 200, 1.0)
            charge_http("a.example", 200, 1.0)
        assert inner.requests == 1
        assert outer.requests == 2

    def test_sibling_ledgers_do_not_leak(self):
        with RequestLedger() as first:
            charge_wait(1.0)
        with RequestLedger() as second:
            charge_wait(2.0)
        assert first.virtual_seconds == pytest.approx(1.0)
        assert second.virtual_seconds == pytest.approx(2.0)


class TestCrossThreadCharging:
    def test_pool_threads_charge_the_submitting_ledger(self):
        def work(latency):
            charge_http("a.example", 200, latency)
            return latency

        with RequestLedger() as ledger:
            create_executor(4).map(work, [0.25] * 8)
        assert ledger.requests == 8
        assert ledger.virtual_seconds == pytest.approx(2.0)

    def test_sibling_contexts_stay_separate(self):
        def run_in_own_ledger(latency):
            with RequestLedger() as ledger:
                charge_http("a.example", 200, latency)
            return ledger

        ledgers = create_executor(2).map(run_in_own_ledger, [1.0, 2.0])
        assert [ledger.virtual_seconds for ledger in ledgers] == [1.0, 2.0]
        assert all(ledger.requests == 1 for ledger in ledgers)

    def test_plain_thread_does_not_inherit_ledger(self):
        # Raw threading (unlike the executors) starts a fresh context:
        # charges made there must not land in the spawning ledger.
        with RequestLedger() as ledger:
            thread = threading.Thread(target=charge_http, args=("a.example", 200, 1.0))
            thread.start()
            thread.join()
        assert ledger.requests == 0


class TestReentry:
    def test_ledger_can_be_reused_after_exit(self):
        ledger = RequestLedger()
        with ledger:
            charge_http("a.example", 200, 1.0)
        with ledger:
            charge_http("a.example", 200, 1.0)
        # Totals accumulate across activations; nothing resets or leaks.
        assert ledger.requests == 2
        assert ledger.virtual_seconds == pytest.approx(2.0)
        assert active_ledgers() == ()

    def test_charges_between_activations_are_not_counted(self):
        ledger = RequestLedger()
        with ledger:
            charge_http("a.example", 200, 1.0)
        charge_http("a.example", 200, 10.0)  # no ledger active
        assert ledger.requests == 1
        assert ledger.virtual_seconds == pytest.approx(1.0)

    def test_exit_without_enter_is_harmless(self):
        ledger = RequestLedger()
        ledger.__exit__(None, None, None)
        assert active_ledgers() == ()

    def test_nested_self_reentry(self):
        ledger = RequestLedger()
        with ledger:
            with ledger:
                # Active twice -> charged once per activation.
                charge_http("a.example", 200, 1.0)
                assert active_ledgers() == (ledger, ledger)
            charge_http("a.example", 200, 1.0)
            assert active_ledgers() == (ledger,)
        assert ledger.requests == 3
        assert ledger.virtual_seconds == pytest.approx(3.0)
        assert active_ledgers() == ()


class TestChargeOrder:
    def test_totals_do_not_depend_on_charge_order(self):
        """Pool threads finish in any order; float addition would make
        the last bit of a phase's virtual time depend on that order."""
        charges = [(0.1, 0.05), (0.2, 0.15), (0.3, 0.25)]
        totals = []
        for order in (charges, charges[::-1]):
            with RequestLedger() as ledger:
                for latency, wait in order:
                    charge_http("dblp.example", 200, latency)
                    charge_wait(wait)
            totals.append((ledger.virtual_seconds, ledger.to_dict()["virtual_seconds"]))
        assert totals[0] == totals[1] == (1.05, 1.05)
