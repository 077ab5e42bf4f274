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

Telemetry is written once per ``map`` call, the unit of work a caller
sees, not once per task:

- one ``executor.map`` span, labelled ``backend``, ``tasks`` and
  ``failures``, parents under the span open at the call site, and the
  work inside every task (its spans, its HTTP attempts' exemplars)
  parents under it; it carries the lowest-index task error;
- each task records its queue time, run time and outcome in its own
  slot, and after the map one registry call writes
  ``executor_queue_seconds{backend}``, ``executor_task_seconds{backend}``
  and ``executor_tasks_total{backend,outcome}`` for all of them.

Both backends emit that same shape, for empty and single-item maps too.

``ThreadExecutor`` deliberately builds a fresh pool per ``map`` call:
pools are cheap at this scale, nothing leaks when callers forget to
close anything, and nested fan-out (a batch of manuscripts each running
parallel extraction) can never deadlock on a shared bounded pool.
"""

from __future__ import annotations

import contextvars
import time
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
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


def _fan_out(backend: str, fn: Callable, items: Iterable, run_all) -> list:
    """One ``map`` call: its tasks under one span, then one metrics write.

    ``run_all(task, tasks)`` runs ``task(index, item, submitted_at)``
    for every task and returns the outcomes in input order and the
    failed tasks' ``(index, exception)`` pairs in index order.  Each
    task times itself into its own slot, so the slots need no lock.
    """
    tasks = list(items)
    queued = [0.0] * len(tasks)
    ran = [0.0] * len(tasks)

    def task(index: int, item, submitted_at: float):
        start = time.perf_counter()
        queued[index] = start - submitted_at
        try:
            return fn(item)
        finally:
            ran[index] = time.perf_counter() - start

    obs = get_obs()
    with obs.span("executor.map", backend=backend, tasks=len(tasks)) as span:
        outcomes, errors = run_all(task, tasks)
        span.set_label("failures", len(errors))
        if tasks:
            key, ok_key, error_key = _KEYS[backend]
            outcomes_by_key = ((ok_key, len(tasks) - len(errors)), (error_key, len(errors)))
            obs.write(
                counters=[
                    ("executor_tasks_total", outcome, count)
                    for outcome, count in outcomes_by_key
                    if count
                ],
                observations=(
                    ("executor_queue_seconds", key, queued),
                    ("executor_task_seconds", key, ran),
                ),
            )
        if errors:
            raise errors[0][1]
    return outcomes


def _run_inline(task: Callable, tasks: list) -> tuple[list, list]:
    outcomes: list = []
    errors: list[tuple[int, BaseException]] = []
    for index, item in enumerate(tasks):
        try:
            outcomes.append(task(index, item, time.perf_counter()))
        except BaseException as exc:  # noqa: BLE001 — re-raised by _fan_out
            outcomes.append(None)
            errors.append((index, exc))
    return outcomes, errors


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
        return _fan_out("sequential", fn, items, _run_inline)


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
        return _fan_out("thread", fn, items, self._run_pooled)

    def _run_pooled(self, task: Callable, tasks: list) -> tuple[list, list]:
        if len(tasks) < 2:
            # No point spinning a pool up for a single task.
            return _run_inline(task, tasks)
        outcomes: list = [None] * len(tasks)
        errors: list[tuple[int, BaseException]] = []
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                # One context copy per task: a Context object can only
                # be entered by one thread at a time.  Copied inside the
                # map's span, so every task parents under it.
                pool.submit(
                    contextvars.copy_context().run,
                    task,
                    index,
                    item,
                    time.perf_counter(),
                )
                for index, item in enumerate(tasks)
            ]
            for index, future in enumerate(futures):
                try:
                    outcomes[index] = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised by _fan_out
                    errors.append((index, exc))
        return outcomes, errors


def create_executor(workers: int | None) -> Executor:
    """Build an executor from a worker count.

    ``None`` or ``1`` gives a :class:`SequentialExecutor`; any other count
    a :class:`ThreadExecutor` of that many workers, which refuses below 1.
    """
    count = 1 if workers is None else int(workers)
    if count == 1:
        return SequentialExecutor()
    return ThreadExecutor(count)
