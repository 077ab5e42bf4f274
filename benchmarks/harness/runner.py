"""One measured pass of one workload: set-up, ops, writes, checks.

A workload function drives a :class:`Pass`: it builds its deployment
through :meth:`Pass.setup` (repeated, the median is ``setup_s``), runs
one untimed warm-up op, then issues ops with :meth:`Pass.op` until
:attr:`Pass.done`.  The load is closed-loop from one client: the next
op starts when the previous one has answered, as an editor or a chair
waits for each result.  Only op and write time counts as measured
time; input generation between ops is excluded.  After
:meth:`Pass.stop` the workload verifies its outputs, untimed.

Every interval the pass times is reported in reference seconds (see
:mod:`benchmarks.harness.speed`); the wall-clock values go to the
details file beside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext

from benchmarks.harness.layers import TARGETS
from benchmarks.harness.speed import REFERENCE, WALL, SpeedSampler
from benchmarks.harness.tracing import Tracer

#: Set-ups per pass, ``setup_s`` being their median: at least
#: ``SETUP_MIN_REPS``, and up to ``SETUP_MAX_REPS`` until they have
#: taken ``SETUP_BUDGET_S`` of wall time.  A quarter-second set-up
#: needs the extra repetitions for a steady median.
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 5
SETUP_BUDGET_S = 4.0

#: End-to-end metrics and their units (``BENCHMARK.json`` declares the
#: same names with their bounds).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "ndcg_at_10": "ratio",
}


def timed(parts: dict, name: str, fn, *args, **kwargs):
    """Call ``fn`` and store its ``(start, end)`` under ``parts[name]``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    parts[name] = (start, time.perf_counter())
    return value


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile of two or more values, interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Pass:
    """Timing, counters and verdicts of one workload pass."""

    def __init__(
        self,
        seed: int,
        seconds: float,
        smoke: bool = False,
        tracer: Tracer | None = None,
        verify: bool = True,
    ):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tracer = tracer
        #: Whether the workload checks and grades its outputs after the
        #: measured phase (off for the untraced pass of a traced run).
        self.verify = verify
        #: Ops a pass runs at least, whatever ``seconds`` says; quality
        #: is computed over a fixed prefix of them.
        self.min_ops = 2
        self.clock = SpeedSampler(tracer)
        # (start, end) of every timed interval, converted by stop().
        self._setups: list[tuple[float, float]] = []
        self._setup_parts: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._ops: list[tuple[float, float]] = []
        self._writes: list[tuple[float, float]] = []
        #: ``(wall, reference)`` seconds per interval, filled by stop().
        self.setup_seconds: list[tuple[float, float]] = []
        self.setup_parts: dict[str, list[tuple[float, float]]] = {}
        self.op_seconds: list[tuple[float, float]] = []
        self.write_seconds: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self.checks: list[dict] = []
        self.ndcg: list[float] = []
        self.sizes: dict = {}
        self.extras: dict = {}
        self.inputs_digest = ""
        self.peak_rss_mb = 0.0
        self.counter_deltas: dict[str, float] = {}
        self._read_counters = None
        self._counters_at_start: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Set-up and inputs
    # ------------------------------------------------------------------

    def setup(self, build, on_discard=None):
        """Run ``build(parts)`` repeatedly (see ``SETUP_MIN_REPS``); keep the last.

        Starts the host-speed sampler.  Each repetition starts from a
        collected heap, so the deployments never coexist.
        ``on_discard(state)`` sees the first repetition before it is
        dropped: an identically seeded deployment a workload may use as
        a reference.
        """
        self.clock.start()
        state = None
        for rep in range(SETUP_MAX_REPS):
            spent = sum(end - start for start, end in self._setups)
            if rep >= SETUP_MIN_REPS and spent >= SETUP_BUDGET_S:
                break
            state = None
            gc.collect()
            parts: dict[str, tuple[float, float]] = {}
            start = time.perf_counter()
            state = build(parts)
            self._setups.append((start, time.perf_counter()))
            for name, interval in parts.items():
                self._setup_parts[name].append(interval)
            if rep == 0 and on_discard is not None:
                on_discard(state)
        return state

    def record_inputs(self, inputs) -> None:
        """Fingerprint the generated inputs (seed provenance)."""
        text = json.dumps(inputs, sort_keys=True, default=str)
        self.inputs_digest = hashlib.sha256(text.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------

    def _in_op(self, op_id, name="op"):
        return self.tracer.op(op_id, name) if self.tracer else nullcontext()

    def warmup(self, fn, *args) -> None:
        """One untimed op on an input outside the measured set.

        Installs the traced pass's wrappers first, so the warm-up also
        pays the tracer's own first-call costs.
        """
        if self.tracer is not None:
            self.tracer.install(TARGETS)
        with self._in_op("warmup"):
            try:
                fn(*args)
            except Exception as exc:  # reported as a failed check, never fatal
                self.check("warm-up op succeeds", False, f"{type(exc).__name__}: {exc}")

    def start(self, read_counters) -> None:
        """Begin the measured phase; ``read_counters()`` gives layer counters."""
        self._read_counters = read_counters
        self._counters_at_start = read_counters()

    def op(self, fn, *args):
        """Time one op; any exception counts it as failed.

        Returns ``(ok, value)``.
        """
        index = len(self._ops)
        value = None
        with self._in_op(index):
            start = time.perf_counter()
            try:
                value = fn(*args)
                ok = True
            except Exception as exc:  # a failed op is data, not a crash
                ok = False
                self.failed += 1
                self.errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            end = time.perf_counter()
        self._ops.append((start, end))
        return ok, value

    def write(self, fn, *args) -> None:
        """Time one write; its time counts as measured, it is not an op."""
        with self._in_op("write", "write"):
            start = time.perf_counter()
            fn(*args)
            self._writes.append((start, time.perf_counter()))

    @property
    def measured_seconds(self) -> float:
        """Wall seconds of ops and writes so far (the ``--seconds`` budget)."""
        return sum(end - start for start, end in self._ops + self._writes)

    @property
    def done(self) -> bool:
        return self.measured_seconds >= self.seconds and len(self._ops) >= self.min_ops

    def stop(self) -> None:
        """End the measured phase: read peak RSS and counters, unpatch, convert."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end = self._read_counters()
        self.counter_deltas = {
            name: end[name] - self._counters_at_start.get(name, 0.0) for name in end
        }
        self.close()
        convert = self.clock.reference_seconds
        self.setup_seconds = [convert(*interval) for interval in self._setups]
        self.setup_parts = {
            name: [convert(*interval) for interval in intervals]
            for name, intervals in self._setup_parts.items()
        }
        self.op_seconds = [convert(*interval) for interval in self._ops]
        self.write_seconds = [convert(*interval) for interval in self._writes]

    def close(self) -> None:
        """Stop sampling and unpatch (idempotent; also run on failure)."""
        if self.tracer is not None:
            self.tracer.uninstall()
        self.clock.stop()

    # ------------------------------------------------------------------
    # Verdicts and results
    # ------------------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self._ops)

    @property
    def correct(self) -> bool:
        return (
            self.failed == 0
            and (bool(self.checks) or not self.verify)
            and all(check["ok"] for check in self.checks)
        )

    def timings(self, kind: int = REFERENCE) -> dict[str, float]:
        """The timed end-to-end metrics, in ``kind`` (``WALL`` or ``REFERENCE``) seconds."""
        latencies_ms = [1000 * pair[kind] for pair in self.op_seconds]
        measured = sum(pair[kind] for pair in self.op_seconds + self.write_seconds)
        return {
            "setup_s": statistics.median(pair[kind] for pair in self.setup_seconds),
            "latency_p50_ms": percentile(latencies_ms, 50),
            "latency_p90_ms": percentile(latencies_ms, 90),
            "throughput_ops_s": self.attempted / measured,
        }

    @property
    def reference_ratio(self) -> float:
        """Reference over wall seconds of the measured ops and writes."""
        pairs = self.op_seconds + self.write_seconds
        return sum(pair[REFERENCE] for pair in pairs) / sum(pair[WALL] for pair in pairs)

    def end_to_end(self) -> dict[str, float]:
        return {
            **self.timings(),
            "peak_rss_mb": self.peak_rss_mb,
            "ndcg_at_10": statistics.fmean(self.ndcg),
        }

    def report(self) -> dict:
        """Everything but the metrics, for the JSON details file."""
        return {
            "sizes": self.sizes,
            "inputs_digest": self.inputs_digest,
            "ops": {
                "attempted": self.attempted,
                "succeeded": self.attempted - self.failed,
                "failed": self.failed,
            },
            "writes": len(self._writes),
            "measured_wall_seconds": self.measured_seconds,
            "wall_timings": self.timings(WALL),
            "host_speed": self.clock.summary(),
            "latencies_ms": [1000 * pair[REFERENCE] for pair in self.op_seconds],
            "wall_latencies_ms": [1000 * pair[WALL] for pair in self.op_seconds],
            "write_ms": [1000 * pair[REFERENCE] for pair in self.write_seconds],
            "ndcg_samples": len(self.ndcg),
            "setup_seconds": [pair[REFERENCE] for pair in self.setup_seconds],
            "checks": self.checks,
            "errors": self.errors[:20],
            "extras": self.extras,
        }
