"""Unit tests for singleflight call coalescing."""

import gc
import threading
import time
import weakref

import pytest

from repro.retrieval import SingleFlight


class TestSequential:
    def test_leader_executes_loader(self):
        flight = SingleFlight()
        value, leader = flight.do("k", lambda: 42)
        assert value == 42
        assert leader is True

    def test_sequential_calls_reexecute(self):
        """Coalescing is per concurrent burst, not a cache across time."""
        flight = SingleFlight()
        calls = []
        for i in range(3):
            value, leader = flight.do("k", lambda i=i: calls.append(i) or i)
            assert leader is True
            assert value == i
        assert calls == [0, 1, 2]

    def test_distinct_keys_are_independent(self):
        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == (1, True)
        assert flight.do("b", lambda: 2) == (2, True)

    def test_key_forgotten_after_landing(self):
        """A landed flight keeps no reference to its key, so the keys
        seen over a deployment's life do not accumulate."""

        class Key:
            pass

        flight = SingleFlight()
        key = Key()
        landed = weakref.ref(key)
        assert flight.do(key, lambda: 1) == (1, True)
        del key
        gc.collect()
        assert landed() is None

    def test_exception_propagates_and_key_forgotten(self):
        flight = SingleFlight()
        with pytest.raises(ValueError):
            flight.do("k", lambda: (_ for _ in ()).throw(ValueError("boom")))
        # The key is forgotten: it is reusable after the failure.
        assert flight.do("k", lambda: "ok") == ("ok", True)


class TestConcurrent:
    def test_burst_executes_loader_once(self):
        flight = SingleFlight()
        workers = 8
        release = threading.Event()
        entered = threading.Event()
        calls = []
        lock = threading.Lock()
        outcomes = [None] * workers

        def loader():
            with lock:
                calls.append(threading.get_ident())
            entered.set()
            release.wait(timeout=5)
            return "answer"

        def run(i):
            outcomes[i] = flight.do("k", loader)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        # Wait until the leader is inside the loader, give the waiters
        # time to pile onto the flight, then release it.
        entered.wait(timeout=5)
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(calls) == 1
        assert all(value == "answer" for value, _ in outcomes)
        assert sum(1 for _, leader in outcomes if leader) == 1
        assert flight.do("k", lambda: "again") == ("again", True)

    def test_burst_failure_fans_out_to_all_waiters(self):
        flight = SingleFlight()
        workers = 4
        release = threading.Event()
        entered = threading.Event()
        errors = []
        lock = threading.Lock()

        def loader():
            entered.set()
            release.wait(timeout=5)
            raise RuntimeError("source down")

        def run():
            try:
                flight.do("k", loader)
            except RuntimeError as exc:
                with lock:
                    errors.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(workers)]
        for t in threads:
            t.start()
        entered.wait(timeout=5)
        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert errors == ["source down"] * workers
        assert flight.do("k", lambda: "again") == ("again", True)
