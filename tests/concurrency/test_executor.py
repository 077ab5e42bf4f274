"""The executor contract: ordering, errors, context propagation."""

import contextvars
import threading
import time

import pytest

from repro.concurrency import (
    Executor,
    SequentialExecutor,
    ThreadExecutor,
    create_executor,
)
from repro.obs.ledger import RequestLedger, charge_http


@pytest.fixture(params=["sequential", "thread-2", "thread-8"])
def executor(request) -> Executor:
    if request.param == "sequential":
        return SequentialExecutor()
    return ThreadExecutor(int(request.param.split("-")[1]))


class TestMapContract:
    def test_results_in_input_order(self, executor):
        assert executor.map(lambda x: x * 2, range(20)) == [x * 2 for x in range(20)]

    def test_order_survives_out_of_order_completion(self):
        # Earlier tasks sleep longer, so completion order is reversed.
        def slow_identity(i):
            time.sleep((5 - i) * 0.01)
            return i

        assert ThreadExecutor(8).map(slow_identity, range(5)) == list(range(5))

    def test_empty_input(self, executor):
        assert executor.map(lambda x: x, []) == []

    def test_single_item(self, executor):
        assert executor.map(lambda x: x + 1, [41]) == [42]

    def test_lowest_index_exception_propagates(self):
        def boom_on_odd(i):
            if i % 2 == 1:
                raise ValueError(str(i))
            return i

        with pytest.raises(ValueError, match="^1$"):
            ThreadExecutor(4).map(boom_on_odd, range(10))

    def test_all_tasks_complete_despite_failure(self, executor):
        executed = set()
        lock = threading.Lock()

        def record(i):
            with lock:
                executed.add(i)
            if i == 0:
                raise RuntimeError("first task fails")
            return i

        with pytest.raises(RuntimeError):
            executor.map(record, range(12))
        assert executed == set(range(12))

    def test_sequential_exception_matches(self):
        def boom_on_odd(i):
            if i % 2 == 1:
                raise ValueError(str(i))
            return i

        with pytest.raises(ValueError, match="^1$"):
            SequentialExecutor().map(boom_on_odd, range(10))


class TestContextPropagation:
    def test_contextvar_visible_in_tasks(self):
        var: contextvars.ContextVar[str] = contextvars.ContextVar("who")
        var.set("caller")
        seen = ThreadExecutor(4).map(lambda _: var.get(), range(8))
        assert seen == ["caller"] * 8

    def test_request_scope_charged_from_pool_threads(self, executor):
        def charge(_):
            charge_http("a.example", 200, 0.5)

        with RequestLedger(label="phase") as ledger:
            executor.map(charge, range(3))
        assert ledger.requests == 3
        assert ledger.virtual_seconds == pytest.approx(1.5)

    def test_scope_ignores_unrelated_work(self):
        with RequestLedger(label="outer") as ledger:
            pass
        charge_http("a.example", 200, 1.0)  # outside the ledger: not counted
        assert ledger.requests == 0


class TestCreateExecutor:
    def test_auto_picks_sequential_for_one_worker(self):
        assert isinstance(create_executor(1), SequentialExecutor)
        assert isinstance(create_executor(None), SequentialExecutor)

    def test_auto_picks_threads_for_many(self):
        built = create_executor(4)
        assert isinstance(built, ThreadExecutor)
        assert built.workers == 4

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            create_executor(0)
        with pytest.raises(ValueError):
            ThreadExecutor(0)
