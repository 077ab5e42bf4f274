"""The worker-pool ``Executor`` abstraction.

Two backends behind one interface: :class:`SequentialExecutor` runs
tasks inline (no threads, no scheduling — the reference semantics) and
:class:`ThreadExecutor` fans tasks out over a bounded
:class:`concurrent.futures.ThreadPoolExecutor`.

Both backends uphold the same observable contract:

- ``map(fn, items)`` returns results **in input order**;
- if any task raises, the exception of the **lowest-index** failing task
  propagates (after every task has finished), so which worker crashed
  first is never observable;
- the ambient :mod:`contextvars` context at the ``map`` call site is
  propagated into every task, so request-accounting scopes (see
  :mod:`repro.web.accounting`) attribute work done in pool threads to
  the caller that submitted it;
- an optional ``chunk_size`` groups tiny tasks into chunks that share
  one span and one queue observation, amortizing per-task telemetry
  overhead without changing results or error semantics (the
  lowest-index error still wins, within and across chunks).

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

from repro.obs import get_obs

#: The canonical backend registry.  Every surface that enumerates or
#: validates executor backends — :func:`create_executor`'s error
#: message, ``PipelineConfig.executor_backend`` validation, the CLI's
#: ``--backend`` choices, and the API config payload — reads this one
#: constant, so a new backend cannot drift out of sync between layers.
EXECUTOR_BACKENDS: tuple[str, ...] = ("auto", "sequential", "thread")


class Executor(ABC):
    """Ordered fan-out over a bounded worker pool."""

    @property
    @abstractmethod
    def workers(self) -> int:
        """Maximum number of tasks in flight at once (>= 1)."""

    @abstractmethod
    def map(self, fn: Callable, items: Iterable, chunk_size: int | None = None) -> list:
        """Apply ``fn`` to every item; results come back in input order.

        If one or more tasks raise, every task still runs to completion
        and the exception of the lowest-index failing task is re-raised.
        ``chunk_size`` groups items into chunks of that many tasks which
        share one telemetry span (results and error semantics are
        unchanged — chunking only amortizes per-task overhead).
        """


def _run_task(fn: Callable, item, index: int, backend: str, submitted_at: float):
    """Run one task under a span with queue/run metrics.

    Shared by both backends so the telemetry a caller sees is identical
    whichever pool executed the work.  The span opens in the task's own
    (copied) context, so it parents under whatever span was current at
    the ``map`` call site — a pipeline phase, a batch entry, an API
    request.
    """
    obs = get_obs()
    start = time.perf_counter()
    obs.observe("executor_queue_seconds", start - submitted_at, backend=backend)
    obs.gauge_add("executor_inflight", 1.0, backend=backend)
    try:
        with obs.span("executor.task", index=index, backend=backend):
            result = fn(item)
    except BaseException:
        obs.inc("executor_tasks_total", backend=backend, outcome="error")
        raise
    finally:
        obs.observe(
            "executor_task_seconds", time.perf_counter() - start, backend=backend
        )
        obs.gauge_add("executor_inflight", -1.0, backend=backend)
    obs.inc("executor_tasks_total", backend=backend, outcome="ok")
    return result


def _run_chunk(
    fn: Callable,
    chunk: Sequence,
    start_index: int,
    backend: str,
    submitted_at: float,
) -> tuple[list, list[tuple[int, BaseException]]]:
    """Run a chunk of tasks inline under **one** span.

    The amortized counterpart of :func:`_run_task`: one queue
    observation, one span and one duration histogram for the whole
    chunk, while ``executor_tasks_total`` still counts every task.
    Errors do not abort the chunk — every task runs, and the caller
    receives ``(outcomes, errors)`` with absolute indexes so the
    lowest-index-error contract holds across chunk boundaries.
    """
    obs = get_obs()
    start = time.perf_counter()
    obs.observe("executor_queue_seconds", start - submitted_at, backend=backend)
    obs.gauge_add("executor_inflight", 1.0, backend=backend)
    outcomes: list = []
    errors: list[tuple[int, BaseException]] = []
    try:
        with obs.span(
            "executor.chunk", start=start_index, size=len(chunk), backend=backend
        ):
            for offset, item in enumerate(chunk):
                try:
                    outcomes.append(fn(item))
                except BaseException as exc:  # noqa: BLE001 — re-raised by caller
                    outcomes.append(None)
                    errors.append((start_index + offset, exc))
                    obs.inc("executor_tasks_total", backend=backend, outcome="error")
                else:
                    obs.inc("executor_tasks_total", backend=backend, outcome="ok")
    finally:
        obs.observe(
            "executor_task_seconds", time.perf_counter() - start, backend=backend
        )
        obs.gauge_add("executor_inflight", -1.0, backend=backend)
    return outcomes, errors


def _chunked(tasks: Sequence, chunk_size: int) -> list[tuple[int, Sequence]]:
    """Split ``tasks`` into ``(start_index, chunk)`` slices."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1 or None, got {chunk_size}")
    return [
        (start, tasks[start : start + chunk_size])
        for start in range(0, len(tasks), chunk_size)
    ]


class SequentialExecutor(Executor):
    """The no-pool backend: tasks run inline, one after another.

    Example
    -------
    >>> SequentialExecutor().map(lambda x: x * 2, [1, 2, 3])
    [2, 4, 6]
    """

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn: Callable, items: Iterable, chunk_size: int | None = None) -> list:
        tasks: Sequence = list(items)
        outcomes: list = []
        errors: list[tuple[int, BaseException]] = []
        if chunk_size is None:
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
        for start, chunk in _chunked(tasks, chunk_size):
            chunk_outcomes, chunk_errors = _run_chunk(
                fn, chunk, start, "sequential", time.perf_counter()
            )
            outcomes.extend(chunk_outcomes)
            errors.extend(chunk_errors)
        if errors:
            raise min(errors)[1]
        return outcomes


class ThreadExecutor(Executor):
    """Bounded thread-pool backend with contextvars propagation.

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

    def map(self, fn: Callable, items: Iterable, chunk_size: int | None = None) -> list:
        tasks: Sequence = list(items)
        if not tasks:
            return []
        if chunk_size is not None:
            return self._map_chunked(fn, tasks, chunk_size)
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

    def _map_chunked(self, fn: Callable, tasks: Sequence, chunk_size: int) -> list:
        chunks = _chunked(tasks, chunk_size)
        outcomes: list = []
        errors: list[tuple[int, BaseException]] = []
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    _run_chunk,
                    fn,
                    chunk,
                    start,
                    "thread",
                    time.perf_counter(),
                )
                for start, chunk in chunks
            ]
            for future in futures:
                chunk_outcomes, chunk_errors = future.result()
                outcomes.extend(chunk_outcomes)
                errors.extend(chunk_errors)
        if errors:
            raise min(errors)[1]
        return outcomes


def create_executor(workers: int | None, backend: str = "auto") -> Executor:
    """Build an executor from a worker count and backend name.

    ``backend`` (see :data:`EXECUTOR_BACKENDS`):

    - ``"auto"`` (default): ``SequentialExecutor`` for ``workers`` of
      ``None``/``1``, ``ThreadExecutor`` otherwise;
    - ``"sequential"``: always inline, whatever ``workers`` says;
    - ``"thread"``: always a thread pool (of at least one worker).
    """
    count = 1 if workers is None else int(workers)
    if count < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend not in EXECUTOR_BACKENDS:
        known = ", ".join(repr(b) for b in EXECUTOR_BACKENDS)
        raise ValueError(f"unknown executor backend {backend!r}; use one of {known}")
    if backend == "sequential":
        return SequentialExecutor()
    if backend == "thread":
        return ThreadExecutor(count)
    if count == 1:
        return SequentialExecutor()
    return ThreadExecutor(count)
