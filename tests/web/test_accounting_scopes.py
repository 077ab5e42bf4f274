"""Edge cases for scoped request accounting.

The basics (one scope, simple nesting) are covered alongside the HTTP
client tests; these exercise the awkward shapes — deep nesting, scopes
crossing pool threads, and re-entering a scope after it has exited.
"""

import pytest

from repro.web.accounting import (
    RequestScope,
    active_scopes,
    charge_request,
    charge_wait,
)


class TestDeepNesting:
    def test_every_level_sees_inner_charges(self):
        scopes = [RequestScope(label=f"level-{i}") for i in range(10)]
        import contextlib

        with contextlib.ExitStack() as stack:
            for scope in scopes:
                stack.enter_context(scope)
            assert active_scopes() == tuple(scopes)
            charge_request(0.5)
        assert all(s.requests == 1 for s in scopes)
        assert all(s.virtual_seconds == pytest.approx(0.5) for s in scopes)
        assert active_scopes() == ()

    def test_inner_exit_stops_inner_charges_only(self):
        with RequestScope() as outer:
            with RequestScope() as inner:
                charge_request(1.0)
            charge_request(1.0)
        assert inner.requests == 1
        assert outer.requests == 2

    def test_sibling_scopes_do_not_leak(self):
        with RequestScope() as first:
            charge_wait(1.0)
        with RequestScope() as second:
            charge_wait(2.0)
        assert first.virtual_seconds == pytest.approx(1.0)
        assert second.virtual_seconds == pytest.approx(2.0)


class TestCrossThreadCharging:
    def test_pool_threads_charge_the_submitting_scope(self):
        from repro.concurrency import create_executor

        executor = create_executor(4)

        def work(latency):
            charge_request(latency)
            return latency

        with RequestScope() as scope:
            executor.map(work, [0.25] * 8)
        assert scope.requests == 8
        assert scope.virtual_seconds == pytest.approx(2.0)

    def test_sibling_contexts_stay_separate(self):
        from repro.concurrency import create_executor

        executor = create_executor(2)

        def run_in_own_scope(latency):
            with RequestScope() as scope:
                charge_request(latency)
            return scope

        scopes = executor.map(run_in_own_scope, [1.0, 2.0])
        assert [s.virtual_seconds for s in scopes] == [1.0, 2.0]
        assert all(s.requests == 1 for s in scopes)

    def test_plain_thread_does_not_inherit_scope(self):
        # Raw threading (unlike the executors) starts a fresh context:
        # charges made there must not land in the spawning scope.
        import threading

        with RequestScope() as scope:
            thread = threading.Thread(target=charge_request, args=(1.0,))
            thread.start()
            thread.join()
        assert scope.requests == 0


class TestReentry:
    def test_scope_can_be_reused_after_exit(self):
        scope = RequestScope()
        with scope:
            charge_request(1.0)
        with scope:
            charge_request(1.0)
        # Totals accumulate across activations; nothing resets or leaks.
        assert scope.requests == 2
        assert scope.virtual_seconds == pytest.approx(2.0)
        assert active_scopes() == ()

    def test_charges_between_activations_are_not_counted(self):
        scope = RequestScope()
        with scope:
            charge_request(1.0)
        charge_request(10.0)  # no scope active
        assert scope.requests == 1
        assert scope.virtual_seconds == pytest.approx(1.0)

    def test_exit_without_enter_is_harmless(self):
        scope = RequestScope()
        scope.__exit__(None, None, None)
        assert active_scopes() == ()

    def test_nested_self_reentry(self):
        scope = RequestScope()
        with scope:
            with scope:
                # Active twice -> charged once per activation.
                charge_request(1.0)
                assert active_scopes() == (scope, scope)
            charge_request(1.0)
            assert active_scopes() == (scope,)
        assert scope.requests == 3
        assert scope.virtual_seconds == pytest.approx(3.0)
        assert active_scopes() == ()


class TestChargeOrder:
    def test_totals_do_not_depend_on_charge_order(self):
        """Pool threads finish in any order; float addition would make
        the last bit of a phase's virtual time depend on that order."""
        from repro.obs.ledger import RequestLedger, charge_http

        totals = []
        for latencies in ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]):
            with RequestScope() as scope, RequestLedger() as ledger:
                for latency in latencies:
                    charge_request(latency)
                    charge_http("dblp.example", 200, latency)
            totals.append((scope.virtual_seconds, ledger.virtual_seconds))
        assert totals[0] == totals[1] == (0.6, 0.6)
