"""Parallel batch recommendation: the one fan-out across manuscripts.

Batch mode runs one full pipeline per manuscript — embarrassingly
parallel work that the CLI and API used to do in a sequential loop.
:func:`recommend_batch` fans those runs out over a
:class:`~repro.concurrency.Executor`; because every simulated-web
decision is keyed by request content rather than arrival order (see
:mod:`repro.concurrency`), the per-paper results are bit-identical to a
sequential walk, whatever the worker count.  With ``on_error="skip"``
a paper whose run raises a typed
:class:`~repro.core.errors.MinaretError` comes back as a
:class:`PaperFailure` in its own position instead of sinking the batch;
which papers fail is then deterministic across worker counts too.

Assignment over a batch — recommend, build the cross-paper problem,
solve, assess — is :func:`~repro.assignment.conference.assign_conference`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.assignment.solvers import (
    greedy_assignment,
    greedy_swap_assignment,
    min_cost_flow_assignment,
    random_assignment,
)
from repro.concurrency import Executor, create_executor
from repro.core.errors import MinaretError
from repro.core.models import Manuscript, RecommendationResult
from repro.obs import RequestLedger, get_obs

#: Solver registry shared by the CLI and the API.  Every entry takes
#: ``(problem, objective=None)``; solvers that cannot honour an
#: objective term simply ignore it (documented per solver).  ``random``
#: is seeded so batch runs stay reproducible; ``optimal`` is the
#: historical name for the flow path.
SOLVERS = {
    "optimal": lambda problem, objective=None: min_cost_flow_assignment(
        problem, objective
    ),
    "flow": lambda problem, objective=None: min_cost_flow_assignment(
        problem, objective
    ),
    "greedy": lambda problem, objective=None: greedy_assignment(problem),
    "greedy-swap": lambda problem, objective=None: greedy_swap_assignment(
        problem, objective
    ),
    "random": lambda problem, objective=None: random_assignment(problem, seed=0),
}


def solver_by_name(name: str):
    """Look up a solver; raises ``ValueError`` with the known names."""
    try:
        return SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver {name!r}; use one of {sorted(SOLVERS)}"
        ) from None


def require_on_error(on_error: str) -> None:
    """Raise ``ValueError`` unless ``on_error`` names a mode of :func:`recommend_batch`."""
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")


@dataclass(frozen=True)
class PaperFailure:
    """One submission whose pipeline run failed with a typed error."""

    paper_id: str
    error: str
    message: str


def recommend_batch(
    minaret,
    entries: Sequence[tuple[str, Manuscript]],
    executor: Executor | None = None,
    workers: int = 1,
    on_error: str = "raise",
) -> list[tuple[str, RecommendationResult | PaperFailure]]:
    """Run ``minaret.recommend`` for every ``(paper_id, manuscript)``.

    Results come back in input order regardless of completion order.
    ``on_error`` says what a run that raises a typed
    :class:`~repro.core.errors.MinaretError` (identity failures,
    exhausted retries) becomes:

    ``"raise"``
        Every run still completes and the exception of the earliest
        entry propagates (the executor contract), as a sequential loop
        would surface it.
    ``"skip"``
        The paper's slot holds a :class:`PaperFailure` instead of a
        result, and the batch goes on.  Anything that is not a
        ``MinaretError`` is a bug and propagates in either mode.

    Either way each failure is reported as a ``conference.paper_failed``
    event and a ``conference_papers_failed_total`` count, and with
    observability on each paper that completes is billed in a
    ``request_cost`` event.

    Pass either a prebuilt ``executor`` or a ``workers`` count; the
    pipeline itself may *additionally* parallelize extraction via its
    own ``config.workers`` — the two pools nest safely because each
    ``map`` call runs on its own pool.
    """
    require_on_error(on_error)
    executor = executor or create_executor(workers)
    obs = get_obs()
    clock = getattr(getattr(minaret, "sources", None), "clock", None)
    plane = getattr(minaret, "plane", None)
    features = getattr(minaret, "features", None)

    def run_one(entry: tuple[str, Manuscript]):
        paper_id, manuscript = entry
        # The span opens inside the fan-out task, so per-manuscript work
        # parents under the batch span through the propagated context.
        # The ledger rides the same context: each paper gets its own
        # itemized bill, emitted as a ``request_cost`` event so a batch
        # log answers "which paper was expensive, and on what?".
        with obs.span(
            "manuscript.recommend", clock=clock, paper_id=paper_id
        ) as span:
            try:
                if not obs.enabled:
                    return minaret.recommend(manuscript)
                with RequestLedger(paper_id) as ledger:
                    result = minaret.recommend(manuscript)
            except MinaretError as exc:
                error = type(exc).__name__
                span.set_label("failed", error)
                obs.emit(
                    "conference.paper_failed",
                    clock=clock,
                    paper_id=paper_id,
                    error=error,
                    message=str(exc),
                )
                obs.inc("conference_papers_failed_total", error=error)
                if on_error == "raise":
                    raise
                return PaperFailure(paper_id=paper_id, error=error, message=str(exc))
            obs.emit("request_cost", clock=clock, **ledger.to_dict())
            return result

    with obs.span(
        "batch.recommend",
        clock=clock,
        papers=len(entries),
        workers=executor.workers,
        warm=plane is not None,
    ) as span:
        outcomes = executor.map(run_one, list(entries))
        span.set_label(
            "failures", sum(isinstance(o, PaperFailure) for o in outcomes)
        )
        if plane is not None:
            # Cross-manuscript sharing is the whole point of the warm
            # path; surface how much of the batch it absorbed.
            span.set_label("plane_hit_rate", round(plane.hit_rate(), 4))
        if features is not None:
            # The scoring analogue: how much candidate compilation the
            # batch amortized instead of redoing per manuscript.
            stats = features.stats()
            span.set_label("features_built", stats["features_built"])
            span.set_label("features_reused", stats["features_reused"])
            span.set_label("feature_reuse_rate", stats["reuse_rate"])
    return [(paper_id, outcome) for (paper_id, _), outcome in zip(entries, outcomes)]
