"""Bounded worker-pool execution for the on-the-fly pipeline.

MINARET's extraction phase (paper §2, Fig. 2) is embarrassingly
parallel: every expanded keyword queries the interest indexes
independently, and every retrieved candidate's profile is assembled from
the sources independently.  Batch assignment workloads multiply that by
the number of manuscripts.  This package provides the one abstraction
the rest of the codebase parallelizes through:

- :class:`~repro.concurrency.executor.Executor` — the interface
  (ordered ``map`` over a bounded worker pool);
- :class:`~repro.concurrency.executor.SequentialExecutor` — the
  zero-thread executor (the default; identical semantics, no pool);
- :class:`~repro.concurrency.executor.ThreadExecutor` — a bounded
  thread pool that propagates :mod:`contextvars` (so request
  accounting scopes follow work into the pool);
- :func:`~repro.concurrency.executor.create_executor` — the one
  parallelism setting: inline at one worker, threads above.

The determinism contract: given the thread-safe simulated web (whose
latency and fault draws are keyed by request content, not arrival
order), running any pipeline stage at any worker count produces
bit-identical recommendation output (ranked candidate ids *and*
scores).  The executors guarantee their half of that contract
by returning results in input order and raising the lowest-index task
exception, so no caller can observe scheduling order.
"""

from repro.concurrency.executor import (
    Executor,
    SequentialExecutor,
    ThreadExecutor,
    create_executor,
)

__all__ = [
    "Executor",
    "SequentialExecutor",
    "ThreadExecutor",
    "create_executor",
]
