"""The worker-pool ``Executor`` abstraction.

Two implementations behind one interface: :class:`SequentialExecutor`
runs tasks inline (no threads, no scheduling — the reference semantics)
and :class:`ThreadExecutor` fans tasks out over a bounded
:class:`concurrent.futures.ThreadPoolExecutor`.  The worker count is the
only setting: :func:`create_executor` runs inline at one worker and on
threads above.

Both uphold the same observable contract:

- ``map(fn, items)`` returns results **in input order**;
- if any task raises, the exception of the **lowest-index** failing task
  propagates (after every task has finished), so which worker crashed
  first is never observable;
- the ambient :mod:`contextvars` context at the ``map`` call site is
  propagated into every task, so request cost ledgers (see
  :mod:`repro.obs.ledger`) attribute work done in pool threads to the
  caller that submitted it.

``ThreadExecutor`` deliberately builds a fresh pool per ``map`` call:
pools are cheap at this scale, nothing leaks when callers forget to
close anything, and nested fan-out (a batch of manuscripts each running
parallel extraction) can never deadlock on a shared bounded pool.
"""

from __future__ import annotations

import contextvars
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.obs import get_obs, label_key

#: Per-backend series keys: ``(backend, ok outcome, error outcome)``.
_KEYS = {
    backend: (
        label_key(backend=backend),
        label_key(backend=backend, outcome="ok"),
        label_key(backend=backend, outcome="error"),
    )
    for backend in ("sequential", "thread")
}


class Executor(ABC):
    """Ordered fan-out over a bounded worker pool."""

    @property
    @abstractmethod
    def workers(self) -> int:
        """Maximum number of tasks in flight at once (>= 1)."""

    @abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results come back in input order.

        If one or more tasks raise, every task still runs to completion
        and the exception of the lowest-index failing task is re-raised.
        """


def _run_task(fn: Callable, item, index: int, backend: str, submitted_at: float):
    """Run one task under a span with queue/run metrics.

    Shared by both executors so the telemetry a caller sees is identical
    whichever pool executed the work.  The span opens in the task's own
    (copied) context, so it parents under whatever span was current at
    the ``map`` call site — a pipeline phase, a batch entry, an API
    request.
    """
    obs = get_obs()
    key, ok_key, error_key = _KEYS[backend]
    start = time.perf_counter()
    obs.observe_key("executor_queue_seconds", key, start - submitted_at)
    obs.gauge_add_key("executor_inflight", key, 1.0)
    try:
        with obs.span("executor.task", index=index, backend=backend):
            result = fn(item)
    except BaseException:
        obs.inc_key("executor_tasks_total", error_key)
        raise
    finally:
        obs.observe_key("executor_task_seconds", key, time.perf_counter() - start)
        obs.gauge_add_key("executor_inflight", key, -1.0)
    obs.inc_key("executor_tasks_total", ok_key)
    return result


class SequentialExecutor(Executor):
    """The no-pool executor: tasks run inline, one after another.

    Example
    -------
    >>> SequentialExecutor().map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn: Callable, items: Iterable) -> list:
        tasks: Sequence = list(items)
        outcomes: list = []
        errors: list[tuple[int, BaseException]] = []
        for index, item in enumerate(tasks):
            try:
                outcomes.append(
                    _run_task(fn, item, index, "sequential", time.perf_counter())
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                outcomes.append(None)
                errors.append((index, exc))
        if errors:
            raise errors[0][1]
        return outcomes


class ThreadExecutor(Executor):
    """Bounded thread-pool executor with contextvars propagation.

    Example
    -------
    >>> ThreadExecutor(4).map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)

    @property
    def workers(self) -> int:
        return self._workers

    def map(self, fn: Callable, items: Iterable) -> list:
        tasks: Sequence = list(items)
        if not tasks:
            return []
        if len(tasks) == 1:
            # No point spinning a pool up for a single task.
            return [_run_task(fn, tasks[0], 0, "thread", time.perf_counter())]
        outcomes: list = [None] * len(tasks)
        errors: list[tuple[int, BaseException]] = []
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                # One context copy per task: a Context object can only
                # be entered by one thread at a time.
                pool.submit(
                    contextvars.copy_context().run,
                    _run_task,
                    fn,
                    task,
                    index,
                    "thread",
                    time.perf_counter(),
                )
                for index, task in enumerate(tasks)
            ]
            for index, future in enumerate(futures):
                try:
                    outcomes[index] = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    errors.append((index, exc))
        if errors:
            raise min(errors)[1]
        return outcomes


def create_executor(workers: int | None) -> Executor:
    """Build an executor from a worker count.

    ``None`` or ``1`` gives a :class:`SequentialExecutor`; any larger
    count gives a :class:`ThreadExecutor` of that many workers.
    """
    count = 1 if workers is None else int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if count == 1:
        return SequentialExecutor()
    return ThreadExecutor(count)
