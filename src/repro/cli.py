"""Command-line demo of the MINARET workflow (paper §3).

Subcommands
-----------
``minaret demo``
    The scripted demo scenario: generate a world, submit a sample
    manuscript, walk through verification, expansion, filtering and
    ranking, and print the Fig. 5-style result table.
``minaret expand --keyword RDF``
    Show the semantic expansion of one or more keywords.
``minaret stats``
    Print the DBLP records-per-year table (the Fig. 1 data).
``minaret generate --out world.json``
    Generate a synthetic world and save it as a dataset file.
``minaret recommend --world world.json --manuscript ms.json``
    Run the pipeline for a manuscript described in a JSON file against
    a saved world; ``--json`` emits machine-readable output.
``minaret assign --world world.json --batch batch.json``
    Batch mode (§3): recommend for every manuscript in the batch file
    and solve the cross-paper reviewer assignment.
``minaret assign --world world.json --conference 24 --capacity 2``
    Conference mode: plant a ground-truth scenario in the world, assign
    the whole program under per-reviewer capacity, and report
    planted-recall / precision@set / load-spread against the truth.
    Both modes run :func:`~repro.assignment.assign_conference`, and
    ``--on-error skip`` reports a paper whose pipeline fails as a
    ``FAILED`` line instead of aborting the run.
``minaret slo report --world world.json [--degrade HOST]``
    Deploy the world, run a stream of recommendations against it —
    optionally degrading one source host with injected faults mid-run —
    and print every SLO's verdict, good-ratio and burn-rate alerts
    (the same report ``GET /api/v1/slo`` serves).
``minaret profile --log events.jsonl``
    Post-hoc deterministic profiler: roll a ``--log-json`` telemetry
    log's span ends up into a per-phase self-time flame table.
``minaret serve-bench [--rate 8 --burst 20:10:4 ...]``
    Drive a seeded open-loop traffic mix through the admission-controlled
    serving front-end and print the load report: offered/served QPS,
    shed rate by reason, degraded serves, p50/p95/p99 served latency
    and the serving SLO verdict.  Deterministic on the virtual clock —
    the same seed reproduces the identical report.

``demo``, ``recommend`` and ``assign`` additionally accept
``--log-json PATH`` (stream structured telemetry events to a JSONL
file), ``--metrics`` (print the run's metrics summary to stderr —
including the same per-host HTTP, cache, retrieval-plane and
feature-store stats ``GET /api/v1/metrics`` exposes), and
``--warm-cache`` / ``--cold`` (route retrieval through the shared
warm-path plane of :mod:`repro.retrieval`, or stay with the paper's
pure on-the-fly mode — the default; rankings are identical either way).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.core.config import PipelineConfig
from repro.core.models import Manuscript, ManuscriptAuthor
from repro.core.pipeline import Minaret
from repro.ontology.data import build_seed_ontology
from repro.ontology.expansion import ExpansionConfig, KeywordExpander
from repro.scholarly.registry import ScholarlyHub
from repro.world.config import WorldConfig
from repro.world.generator import generate_world


_AT_LEAST_0 = (lambda value: value >= 0, ">= 0")
_AT_LEAST_1 = (lambda value: value >= 1, ">= 1")

#: The numeric flags that feed no object with a check of its own, and the
#: range each must fall in (``None`` passes).  Every other flag is checked
#: by the object it feeds, built before any world (``_fed``); ``run_load``
#: needs a live front-end to reach its ``serve-bench --workers`` check.
_FLAG_RANGES = {
    "demo": {"--top": _AT_LEAST_1},
    "recommend": {"--top": _AT_LEAST_1},
    "slo": {"--papers": _AT_LEAST_1},
    "profile": {"--top": _AT_LEAST_1},
    "serve-bench": {"--requests": _AT_LEAST_1, "--workers": _AT_LEAST_1},
    "scale-bench": {
        "--pool-size": _AT_LEAST_1,
        "--queries": _AT_LEAST_1,
        "--top": _AT_LEAST_1,
        "--pool-limit": _AT_LEAST_0,
    },
}


class _FlagError(Exception):
    """A flag refused before any world is built, printed as one ``error:`` line."""


def _check_ranges(args) -> None:
    """Refuse the first flag of ``_FLAG_RANGES`` out of its range."""
    for flag, (allowed, wording) in _FLAG_RANGES.get(args.command, {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        for item in value if isinstance(value, list) else (value,):
            if item is not None and not allowed(item):
                raise _FlagError(f"{flag} must be {wording}, got {item}")


def _fed(flag: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ValueError`` reported under ``flag``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _FlagError(f"{flag}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = {
        "demo": _run_demo,
        "expand": _run_expand,
        "stats": _run_stats,
        "generate": _run_generate,
        "recommend": _run_recommend,
        "assign": _run_assign,
        "slo": _run_slo,
        "profile": _run_profile,
        "serve-bench": _run_serve_bench,
        "scale-bench": _run_scale_bench,
    }.get(args.command)
    if run is None:
        parser.print_help()
        return 2
    try:
        _check_ranges(args)
        if args.command in ("demo", "recommend", "assign"):
            return _observed_run(args, run)
        return run(args)
    except _FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _observed_run(args, run) -> int:
    """Run a pipeline subcommand under its own observability instance.

    ``--log-json PATH`` streams every structured event (span ends, HTTP
    retries, fault injections, rate-limit hits ...) to ``PATH`` as one JSON
    object per line; ``--metrics`` prints the run's metrics summary to
    stderr on exit.  Both default off, in which case telemetry still
    accumulates in the per-run instance and simply vanishes with it.

    The summary carries the deployment roll-up the run stashed via
    :func:`_stash_deployment` — per-host HTTP, cache, retrieval-plane
    and feature-store stats, identical in shape to what
    ``GET /api/v1/metrics`` serves for an API deployment.
    """
    from repro.obs import Observability, deployment_metrics, use

    obs = Observability()
    sink = obs.add_jsonl_sink(args.log_json) if args.log_json else None
    try:
        with use(obs):
            return run(args)
    finally:
        if sink is not None:
            obs.events.remove_sink(sink)
            sink.close()
        if args.metrics:
            summary = obs.summary()
            deployment = getattr(args, "_deployment", None)
            if deployment is not None:
                payload = deployment_metrics(obs, **deployment)
                # The summary already carries the registry snapshot.
                payload.pop("metrics", None)
                summary.update(payload)
            print(json.dumps(summary, indent=2), file=sys.stderr)


def _stash_deployment(args, hub, minaret) -> None:
    """Remember the run's deployment pieces for the ``--metrics`` report."""
    args._deployment = {
        "http": getattr(hub, "http", None),
        "cache": getattr(getattr(hub, "crawler", None), "cache", None),
        "plane": getattr(minaret, "plane", None),
        "features": getattr(minaret, "features", None),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minaret",
        description="MINARET: reviewer recommendation (EDBT 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")
    demo = subparsers.add_parser("demo", help="run the scripted demo scenario")
    demo.add_argument("--authors", type=int, default=300, help="world size")
    demo.add_argument("--seed", type=int, default=42, help="world seed")
    demo.add_argument("--top", type=int, default=10, help="reviewers to show")
    expand = subparsers.add_parser("expand", help="expand keywords semantically")
    expand.add_argument("--keyword", action="append", required=True)
    expand.add_argument("--max-depth", type=int, default=2)
    expand.add_argument("--min-score", type=float, default=0.5)
    stats = subparsers.add_parser("stats", help="DBLP records-per-year (Fig. 1)")
    stats.add_argument("--authors", type=int, default=300)
    stats.add_argument("--seed", type=int, default=42)
    gen = subparsers.add_parser("generate", help="generate and save a world dataset")
    gen.add_argument("--authors", type=int, default=300)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output JSON path")
    rec = subparsers.add_parser("recommend", help="recommend reviewers for a manuscript")
    rec.add_argument("--world", required=True, help="world dataset JSON (from generate)")
    rec.add_argument("--manuscript", required=True, help="manuscript JSON file")
    rec.add_argument("--top", type=int, default=10)
    rec.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    rec.add_argument(
        "--workers",
        type=int,
        default=1,
        help="extraction fan-out threads (output identical at any value)",
    )
    rec.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="rank only the exact best K candidates (lets the scoring "
        "plane prune; default ranks everyone)",
    )
    assign = subparsers.add_parser("assign", help="batch paper-reviewer assignment")
    assign.add_argument("--world", required=True, help="world dataset JSON")
    assign.add_argument(
        "--batch",
        default=None,
        help="batch JSON: [{paper_id, manuscript}] (omit in --conference mode)",
    )
    assign.add_argument(
        "--conference",
        type=int,
        default=None,
        metavar="N",
        help="conference mode: plant an N-paper scenario in the world, "
        "assign the whole program, and report planted-truth quality",
    )
    assign.add_argument("--reviewers-per-paper", type=int, default=3)
    assign.add_argument(
        "--max-load",
        "--capacity",
        dest="max_load",
        type=int,
        default=2,
        help="per-reviewer paper cap (--capacity is an alias)",
    )
    assign.add_argument(
        "--solver",
        choices=("optimal", "flow", "greedy", "greedy-swap", "random"),
        default="optimal",
    )
    assign.add_argument(
        "--balance",
        type=float,
        default=0.0,
        help="load-balance objective weight (penalizes squared loads)",
    )
    assign.add_argument(
        "--coverage",
        type=float,
        default=0.0,
        help="set-coverage objective weight (greedy-swap only)",
    )
    assign.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help="'skip' degrades gracefully: failed papers are reported "
        "and excluded from the solve instead of aborting the run",
    )
    assign.add_argument(
        "--scenario-seed",
        type=int,
        default=7,
        help="seed for the planted conference scenario (--conference)",
    )
    assign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel per-paper pipeline runs (output identical at any value)",
    )
    assign.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="rank only the exact best K candidates per paper (lets the "
        "scoring plane prune; default ranks everyone)",
    )
    slo = subparsers.add_parser(
        "slo", help="evaluate SLOs over a simulated recommendation stream"
    )
    slo.add_argument(
        "action", nargs="?", choices=("report",), default="report",
        help="what to do (only 'report' for now)",
    )
    slo.add_argument("--world", required=True, help="world dataset JSON")
    slo.add_argument(
        "--papers", type=int, default=6,
        help="recommendation requests to drive through the deployment",
    )
    slo.add_argument(
        "--objective", type=float, default=0.95, help="target good-event ratio"
    )
    slo.add_argument(
        "--threshold", type=float, default=0.5,
        help="per-request latency threshold (virtual seconds)",
    )
    slo.add_argument(
        "--window", type=float, default=3600.0,
        help="compliance window (virtual seconds)",
    )
    slo.add_argument(
        "--degrade", metavar="HOST", default=None,
        help="inject faults into HOST for the second half of the run",
    )
    slo.add_argument(
        "--failure-rate", type=float, default=0.5,
        help="fault probability for the degraded host",
    )
    slo.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    prof = subparsers.add_parser(
        "profile", help="phase flame table from a --log-json telemetry log"
    )
    prof.add_argument(
        "--log", required=True, help="JSONL telemetry log (from --log-json)"
    )
    prof.add_argument(
        "--top", type=int, default=None, help="show only the top N rows"
    )
    prof.add_argument(
        "--json", action="store_true", help="emit profiles as JSON"
    )
    bench = subparsers.add_parser(
        "serve-bench",
        help="benchmark the admission-controlled serving front-end",
    )
    bench.add_argument("--authors", type=int, default=120, help="world size")
    bench.add_argument("--seed", type=int, default=5, help="world seed")
    bench.add_argument(
        "--requests", type=int, default=200, help="offered requests to schedule"
    )
    bench.add_argument(
        "--rate", type=float, default=8.0, help="baseline arrival rate (req/s)"
    )
    bench.add_argument(
        "--load-seed", type=int, default=13, help="arrival-schedule seed"
    )
    bench.add_argument(
        "--burst",
        action="append",
        default=None,
        metavar="START:DURATION:MULTIPLIER",
        help="rate-multiplier window, repeatable (e.g. 20:10:4)",
    )
    bench.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME:WEIGHT",
        help="traffic-mix tenant, repeatable (default: chairs:3, editors:1)",
    )
    bench.add_argument("--workers", type=int, default=2, help="logical servers")
    bench.add_argument("--queue-capacity", type=int, default=16)
    bench.add_argument(
        "--bucket-capacity", type=float, default=10.0, help="per-tenant burst tokens"
    )
    bench.add_argument(
        "--refill-rate", type=float, default=4.0, help="per-tenant tokens/s"
    )
    bench.add_argument(
        "--slo-threshold",
        type=float,
        default=60.0,
        help="served-latency SLO threshold (virtual seconds)",
    )
    bench.add_argument(
        "--no-degrade",
        action="store_true",
        help="shed instead of serving warm degraded responses",
    )
    bench.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON report to PATH"
    )
    scale = subparsers.add_parser(
        "scale-bench",
        help="EXP-SCALE: streamed worlds + the scale plane's query path",
    )
    scale.add_argument(
        "--pool-size",
        action="append",
        type=int,
        default=None,
        metavar="N",
        help="world size (scholars), repeatable (default: 1000 10000 100000)",
    )
    scale.add_argument("--queries", type=int, default=5, help="queries per size")
    scale.add_argument("--top", type=int, default=10, help="reviewers per query")
    scale.add_argument(
        "--pool-limit",
        type=int,
        default=200,
        help="retrieved-pool cap per query (0 disables the cap)",
    )
    scale.add_argument("--seed", type=int, default=42, help="world seed")
    scale.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    scale.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON report to PATH"
    )
    for sub in (demo, rec, assign):
        sub.add_argument(
            "--log-json",
            metavar="PATH",
            default=None,
            help="append telemetry events to PATH, one JSON object per line",
        )
        sub.add_argument(
            "--metrics",
            action="store_true",
            help="print a metrics summary (JSON) to stderr on exit",
        )
        warm = sub.add_mutually_exclusive_group()
        warm.add_argument(
            "--warm-cache",
            dest="warm_cache",
            action="store_true",
            help="route retrieval through the shared warm-path plane "
            "(fewer requests, identical rankings)",
        )
        warm.add_argument(
            "--cold",
            dest="warm_cache",
            action="store_false",
            help="pure on-the-fly retrieval, the paper's mode (default)",
        )
        sub.set_defaults(warm_cache=False)
    return parser


def _run_demo(args) -> int:
    config = _fed("--authors", WorldConfig, author_count=args.authors, seed=args.seed)
    print("=" * 72)
    print("MINARET demo scenario")
    print("=" * 72)
    print(f"Generating a synthetic scholarly world ({args.authors} scholars) ...")
    world = generate_world(config)
    hub = ScholarlyHub.deploy(world)
    print(
        f"  {len(world.authors)} scholars, {len(world.publications)} publications, "
        f"{len(world.reviews)} reviews, {len(world.venues)} venues"
    )
    manuscript = _demo_manuscript(world)
    print("\nManuscript details (the Fig. 3 form):")
    print(f"  title:        {manuscript.title}")
    print(f"  keywords:     {', '.join(manuscript.keywords)}")
    for author in manuscript.authors:
        print(f"  author:       {author.name} ({author.affiliation})")
    print(f"  target venue: {manuscript.target_venue}")

    minaret = Minaret(hub, config=PipelineConfig(warm_cache=args.warm_cache))
    _stash_deployment(args, hub, minaret)
    result = minaret.recommend(manuscript)

    print("\nAuthor identity verification (Fig. 4):")
    for verified in result.verified_authors:
        status = "ambiguous, auto-resolved" if verified.ambiguous else "unique"
        print(
            f"  {verified.submitted.name}: "
            f"{len(verified.candidates_considered)} profile(s) found — {status}"
        )

    print("\nSemantic keyword expansion (top 10):")
    for expansion in result.expanded_keywords[:10]:
        print(
            f"  {expansion.keyword:35s} sc={expansion.score:.2f} "
            f"(from {expansion.seed!r})"
        )

    print("\nWorkflow phases (Fig. 2):")
    for report in result.phase_reports:
        print(
            f"  {report.phase:20s} {report.items_in:4d} -> {report.items_out:4d}   "
            f"requests={report.requests:4d}  "
            f"simulated latency={report.virtual_seconds:7.2f}s"
        )

    rejected = result.rejected()
    print(f"\nFiltered out {len(rejected)} candidate(s); sample reasons:")
    for decision in rejected[:3]:
        for reason in decision.reasons[:2]:
            print(f"  - {reason}")

    print(f"\nRecommended reviewers (Fig. 5), top {args.top}:")
    header = (
        f"  {'name':28s} {'total':>6s} {'topic':>6s} {'impact':>6s} "
        f"{'recent':>6s} {'reviews':>7s} {'outlet':>6s}"
    )
    print(header)
    for scored in result.top(args.top):
        b = scored.breakdown
        print(
            f"  {scored.name:28s} {scored.total_score:6.3f} "
            f"{b.topic_coverage:6.2f} {b.scientific_impact:6.2f} "
            f"{b.recency:6.2f} {b.review_experience:7.2f} "
            f"{b.outlet_familiarity:6.2f}"
        )

    if result.ranked:
        from repro.core.explain import explain_candidate

        top_choice = result.ranked[0]
        print(f"\nScore details for {top_choice.name} (click-through in the demo UI):")
        for line in explain_candidate(
            top_choice, result.manuscript, result.expanded_keywords, minaret.config
        ):
            print(f"  - {line}")
    return 0


def _demo_manuscript(world) -> Manuscript:
    """Build the demo submission from a real world author.

    Picks a semantic-web-flavoured author when one exists so the demo
    mirrors the paper's RDF example, and targets a journal that actually
    exists in the world so outlet familiarity has signal.
    """
    preferred_topics = ("rdf", "semantic-web", "query-processing", "databases")
    chosen = None
    for author in world.authors.values():
        if any(t in author.topic_expertise for t in preferred_topics):
            chosen = author
            break
    if chosen is None:
        chosen = next(iter(world.authors.values()))
    topics = sorted(chosen.topic_expertise)[:3]
    keywords = tuple(world.ontology.topic(t).label for t in topics)
    affiliation = chosen.affiliations[-1]
    journals = world.journal_venues()
    return Manuscript(
        title=f"Efficient {keywords[0]} at Scale",
        keywords=keywords,
        authors=(
            ManuscriptAuthor(
                name=chosen.name,
                affiliation=affiliation.institution,
                country=affiliation.country,
            ),
        ),
        target_venue=journals[0].name if journals else "",
    )


def _run_expand(args) -> int:
    config = _fed("--max-depth", ExpansionConfig, max_depth=args.max_depth)
    config = _fed("--min-score", replace, config, min_score=args.min_score)
    expander = KeywordExpander(build_seed_ontology(), config)
    for expansion in expander.expand(args.keyword):
        print(
            f"{expansion.keyword:40s} sc={expansion.score:.3f} "
            f"depth={expansion.depth} (from {expansion.seed!r})"
        )
    return 0


def _run_stats(args) -> int:
    config = _fed("--authors", WorldConfig, author_count=args.authors, seed=args.seed)
    world = generate_world(config)
    print(f"{'year':>6s} {'journal':>9s} {'conference':>11s} {'total':>7s}")
    for year, by_type in world.dblp_records_per_year().items():
        journal = by_type.get("journal", 0)
        conference = by_type.get("conference", 0)
        print(f"{year:>6d} {journal:>9d} {conference:>11d} {journal + conference:>7d}")
    return 0


def _run_generate(args) -> int:
    from repro.world.io import save_world

    config = _fed("--authors", WorldConfig, author_count=args.authors, seed=args.seed)
    world = generate_world(config)
    save_world(world, args.out)
    print(
        f"Wrote {args.out}: {len(world.authors)} scholars, "
        f"{len(world.publications)} publications, {len(world.reviews)} reviews"
    )
    return 0


def _run_recommend(args) -> int:
    from repro.api.router import ApiError
    from repro.api.serialization import manuscript_from_payload, result_to_payload
    from repro.core.errors import MinaretError
    from repro.world.io import load_world

    config = _fed("--workers", PipelineConfig, workers=args.workers, warm_cache=args.warm_cache)
    config = _fed("--top-k", replace, config, top_k=args.top_k)
    try:
        world = load_world(args.world)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load world {args.world!r}: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.manuscript, encoding="utf-8") as handle:
            payload = json.load(handle)
        manuscript = manuscript_from_payload(payload)
    except (OSError, ValueError, ApiError) as exc:
        print(
            f"error: cannot load manuscript {args.manuscript!r}: {exc}",
            file=sys.stderr,
        )
        return 1
    hub = ScholarlyHub.deploy(world)
    minaret = Minaret(hub, config=config)
    _stash_deployment(args, hub, minaret)
    try:
        result = minaret.recommend(manuscript)
    except MinaretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result_to_payload(result, top_k=args.top), indent=2))
        return 0
    print(f"Recommended reviewers for {manuscript.title!r}:")
    for rank, scored in enumerate(result.top(args.top), start=1):
        print(
            f"  {rank:2d}. {scored.name:30s} total={scored.total_score:.3f} "
            f"h={scored.candidate.profile.metrics.h_index} "
            f"reviews={scored.candidate.review_count}"
        )
    return 0


def _run_assign(args) -> int:
    from repro.api.router import ApiError
    from repro.api.serialization import batch_from_payload
    from repro.assignment import (
        AssignmentObjective,
        assign_conference,
        check_assignment_inputs,
        require_set_sizes,
        scenario_metrics,
    )
    from repro.concurrency import create_executor
    from repro.core.errors import MinaretError
    from repro.world.conference import ConferenceConfig, generate_conference
    from repro.world.io import load_world

    if (args.batch is None) == (args.conference is None):
        raise _FlagError("pass exactly one of --batch or --conference")
    objective = _fed("--balance", AssignmentObjective, balance_weight=args.balance)
    objective = _fed("--coverage", replace, objective, coverage_weight=args.coverage)
    config = _fed("--top-k", PipelineConfig, warm_cache=args.warm_cache, top_k=args.top_k)
    executor = _fed("--workers", create_executor, args.workers)
    _fed("--reviewers-per-paper", require_set_sizes, reviewers_per_paper=args.reviewers_per_paper)
    _fed("--max-load", require_set_sizes, capacity=args.max_load)
    if args.conference is not None:
        scenario_config = _fed(
            "--conference",
            ConferenceConfig,
            paper_count=args.conference,
            reviewers_per_paper=args.reviewers_per_paper,
            max_load=args.max_load,
            seed=args.scenario_seed,
        )
    try:
        world = load_world(args.world)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load world {args.world!r}: {exc}", file=sys.stderr)
        return 1
    scenario = None
    if args.conference is not None:
        try:
            scenario = generate_conference(world, scenario_config)
        except ValueError as exc:
            print(f"error: cannot plant scenario: {exc}", file=sys.stderr)
            return 1
        entries = scenario.entries()
    else:
        try:
            with open(args.batch, encoding="utf-8") as handle:
                entries = batch_from_payload(json.load(handle))
        except (OSError, ValueError, ApiError) as exc:
            print(f"error: cannot load inputs: {exc}", file=sys.stderr)
            return 1
    try:
        # The sizes were checked before the world was loaded.
        check_assignment_inputs(entries, args.solver, args.on_error)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    hub = ScholarlyHub.deploy(world)
    minaret = Minaret(hub, config=config)
    _stash_deployment(args, hub, minaret)
    candidate_filter = None
    if scenario is not None:
        from repro.baselines.evaluation import CandidateResolver

        resolver = CandidateResolver(hub)

        # The scenario's program committee is the assignable pool: a
        # reviewer outside the PC cannot take a paper, however well the
        # pipeline scores them.
        def candidate_filter(cid):
            return resolver.world_id(cid) in scenario.pool

    try:
        conference = assign_conference(
            minaret,
            entries,
            reviewers_per_paper=args.reviewers_per_paper,
            capacity=args.max_load,
            top_k=args.top_k,
            solver=args.solver,
            objective=objective,
            executor=executor,
            on_error=args.on_error,
            candidate_filter=candidate_filter,
        )
    except MinaretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    quality = conference.quality
    if scenario is None:
        print(
            f"Assignment ({args.solver}): total={quality.total_score:.3f} "
            f"min-paper={quality.min_paper_score:.3f} "
            f"unfilled={quality.unfilled_slots} max-load={quality.max_load}"
        )
    else:
        print(
            f"Conference assignment ({args.solver}): "
            f"{len(conference.results)} papers, "
            f"{len(conference.problem.reviewers())} reviewers, "
            f"capacity={args.max_load}"
        )
        print(
            f"  total={quality.total_score:.3f} "
            f"min-paper={quality.min_paper_score:.3f} "
            f"unfilled={quality.unfilled_slots} max-load={quality.max_load} "
            f"objective={conference.objective_value:.3f}"
        )
        metrics = scenario_metrics(
            scenario, conference.assignment, resolve=resolver.world_id
        )
        print(
            f"  planted-recall={metrics['planted_recall']:.3f} "
            f"precision@set={metrics['precision_at_set']:.3f} "
            f"load-spread={metrics['load_spread']}"
        )
    for failure in conference.failures:
        print(f"  FAILED {failure.paper_id}: {failure.error}: {failure.message}")
    for paper_id in conference.problem.papers():
        reviewers = conference.assignment.reviewers_of(paper_id)
        rendered = (
            ", ".join(conference.reviewer_names.get(r, r) for r in reviewers)
            or "(none)"
        )
        print(f"  {paper_id}: {rendered}")
    return 0


def _run_slo(args) -> int:
    """Drive a recommendation stream and report every SLO's verdict.

    Deploys the world, registers one availability+latency SLO per
    simulated host, and runs ``--papers`` recommendations under the
    engine's eye, ticking it between papers.  ``--degrade HOST`` swaps
    the host's fault policy to ``--failure-rate`` for the second half
    of the stream — the synthetic incident that walks the verdict from
    ``ok`` towards ``burning``.  Failed papers are reported, not fatal:
    a degraded source is exactly what the report is for.
    """
    from repro.api.serialization import slo_report_to_payload
    from repro.obs import Observability, SloSpec, default_http_slos, use
    from repro.web.faults import FaultPolicy
    from repro.world.io import load_world

    # The specs need the deployment's hosts: one built from each flag
    # alone checks it before the world is loaded.
    _fed("--objective", SloSpec, "slo", "metric", objective=args.objective)
    _fed("--window", SloSpec, "slo", "metric", window=args.window)
    papers = args.papers
    degrade_at = papers // 2
    faults = _fed(
        "--failure-rate", FaultPolicy, failure_probability=args.failure_rate, seed=degrade_at
    )
    try:
        world = load_world(args.world)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load world {args.world!r}: {exc}", file=sys.stderr)
        return 1
    obs = Observability()
    with use(obs):
        hub = ScholarlyHub.deploy(world)
        engine = obs.slo
        engine.bind_clock(hub.clock)
        for spec in default_http_slos(
            hub.http.hosts(),
            objective=args.objective,
            threshold=args.threshold,
            window=args.window,
        ):
            engine.add(spec)
        if args.degrade is not None and args.degrade not in hub.http.hosts():
            print(
                f"error: unknown host {args.degrade!r}; "
                f"hosts: {', '.join(sorted(hub.http.hosts()))}",
                file=sys.stderr,
            )
            return 1
        minaret = Minaret(hub)
        manuscript = _demo_manuscript(world)
        failed = 0
        for index in range(papers):
            if args.degrade is not None and index == degrade_at:
                hub.http.set_fault_policy(args.degrade, faults)
            try:
                minaret.recommend(manuscript)
            except Exception as exc:  # degraded sources sink whole runs
                failed += 1
                print(
                    f"  paper {index + 1}/{papers} failed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
            engine.tick()
        report = slo_report_to_payload(engine)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(
        f"SLO report after {papers} paper(s) "
        f"({failed} failed) — overall: {report['verdict']}"
    )
    header = (
        f"  {'slo':28s} {'verdict':>8s} {'good':>8s} {'objective':>9s} "
        f"{'events':>7s} {'budget':>7s} {'alerts':s}"
    )
    print(header)
    for status in report["slos"]:
        firing = [
            f"{alert['severity']}@{alert['factor']:g}x"
            for alert in status["alerts"]
            if alert["firing"]
        ]
        print(
            f"  {status['name'][:28]:28s} {status['verdict']:>8s} "
            f"{status['good_ratio']:8.4f} {status['objective']:9.4f} "
            f"{status['events']:7.0f} {status['budget_consumed']:7.2f} "
            f"{', '.join(firing) or '-'}"
        )
    return 0


def _run_serve_bench(args) -> int:
    """Benchmark the serving front-end under a seeded traffic mix.

    Generates a world, deploys it behind the API, wraps the API in an
    admission-controlled :class:`~repro.serving.frontend.ServingFrontend`,
    and replays a deterministic open-loop arrival schedule through the
    discrete-event harness.  Everything runs on the virtual clock, so
    the report — every admit, shed, degrade and latency quantile — is
    bit-reproducible for a given seed.
    """
    from repro.api.handlers import MinaretApi
    from repro.serving import (
        Burst,
        LoadGenerator,
        RequestTemplate,
        ServingConfig,
        ServingFrontend,
        TenantLoad,
        TenantPolicy,
        manuscript_templates,
        run_load,
    )

    def burst(spec: str) -> Burst:
        start, duration, multiplier = map(float, spec.split(":"))
        return Burst(start, duration, multiplier)

    def tenant(spec: str) -> TenantLoad:
        name, _, weight = spec.partition(":")
        return TenantLoad(name, float(weight))

    config = _fed("--authors", WorldConfig, author_count=args.authors, seed=args.seed)
    bursts = tuple(_fed("--burst", burst, spec) for spec in args.burst or ())
    tenants = tuple(_fed("--tenant", tenant, spec) for spec in args.tenant or ())
    tenants = tenants or (TenantLoad("chairs", 3.0), TenantLoad("editors", 1.0))
    policy = _fed("--bucket-capacity", TenantPolicy, capacity=args.bucket_capacity)
    policy = _fed("--refill-rate", replace, policy, refill_rate=args.refill_rate)
    serving = _fed(
        "--queue-capacity",
        ServingConfig,
        queue_capacity=args.queue_capacity,
        default_policy=policy,
        degraded_serving=not args.no_degrade,
        slo_threshold=args.slo_threshold,
    )
    # The generator's other templates come from the world: one built
    # from the health template alone checks --rate before the world.
    health = RequestTemplate("GET", "/api/v1/health", weight=0.5)
    _fed("--rate", LoadGenerator, [health], rate=args.rate)
    world = generate_world(config)
    hub = ScholarlyHub.deploy(world)
    api = MinaretApi(hub)
    generator = LoadGenerator(
        [*manuscript_templates(world, count=3), health],
        tenants=tenants,
        rate=args.rate,
        seed=args.load_seed,
        bursts=bursts,
    )
    frontend = ServingFrontend(api, serving)
    report = run_load(
        frontend, generator.arrivals(count=args.requests), workers=args.workers
    )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"serve-bench: {report.offered} offered @ {payload['offered_qps']:g} "
        f"req/s over {payload['duration']:g}s (virtual), {args.workers} worker(s)"
    )
    shed_rendered = (
        ", ".join(f"{reason}={count}" for reason, count in sorted(report.shed.items()))
        or "-"
    )
    print(
        f"  served={report.served} degraded={report.degraded} "
        f"shed={sum(report.shed.values())} ({shed_rendered}) "
        f"shed-rate={payload['shed_rate']:.3f}"
    )
    latency = payload["latency"]
    print(
        f"  served latency (virtual s): p50={latency['p50']:g} "
        f"p95={latency['p95']:g} p99={latency['p99']:g} max={latency['max']:g}"
    )
    for name, tenant in sorted(report.per_tenant.items()):
        print(
            f"  tenant {name:10s} submitted={tenant.get('submitted', 0):4d} "
            f"served={tenant.get('served', 0):4d} shed={tenant.get('shed', 0):4d} "
            f"degraded={tenant.get('degraded', 0):4d}"
        )
    if report.slo is not None:
        print(
            f"  serving SLO: {report.slo['verdict']} "
            f"(good={report.slo['good_ratio']:.4f}, "
            f"objective={report.slo['objective']:g})"
        )
    return 0


def _run_scale_bench(args) -> int:
    """EXP-SCALE from the command line (same runner as the CI benchmark)."""
    from repro.scale.bench import run_scale_bench

    sizes = tuple(args.pool_size) if args.pool_size else (1_000, 10_000, 100_000)
    report = run_scale_bench(
        sizes=sizes,
        queries_per_size=args.queries,
        k=args.top,
        pool_limit=args.pool_limit or None,
        seed=args.seed,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"scale-bench: k={report['k']}")
    print(
        f"  {'authors':>9s} {'ingest_s':>9s} {'postings':>9s} {'wall_ms':>8s} "
        f"{'retrieve':>8s} {'coi':>8s} {'score':>8s} {'rest':>8s} {'brute=':>7s}"
    )
    for entry in report["sizes"]:
        verified = entry["topk_matches_brute_force"]
        phases = entry["mean_phase_wall_seconds"]
        print(
            f"  {entry['authors']:>9d} {entry['ingest_seconds']:>9.2f} "
            f"{entry['index']['postings']:>9d} "
            f"{entry['mean_wall_seconds'] * 1000:>8.2f} "
            f"{phases['scale.retrieve'] * 1000:>8.2f} "
            f"{phases['scale.coi'] * 1000:>8.2f} "
            f"{phases['scale.score'] * 1000:>8.2f} "
            f"{phases['rest'] * 1000:>8.2f} "
            f"{'yes' if verified else ('-' if verified is None else 'NO'):>7s}"
        )
    interning = report["interning"]
    print(
        f"  interning ({interning['authors']} authors): "
        f"{interning['plain_bytes']} -> {interning['interned_bytes']} bytes "
        f"({interning['saved_pct']}% saved)"
    )
    if "scaling" in report:
        scaling = report["scaling"]
        print(
            f"  scaling: size x{scaling['size_ratio']:g} -> query wall "
            f"x{scaling['query_wall_ratio']:g} "
            f"({'sub-linear' if scaling['sublinear'] else 'NOT sub-linear'})"
        )
    return 0


def _log_record_problem(record) -> str | None:
    """Why one parsed ``--log-json`` line cannot feed the profiler, or ``None``."""
    if not isinstance(record, dict):
        return f"expected a JSON object, got {json.dumps(record)}"
    if record.get("event") != "span_end":
        return None
    for field, kinds, expected in (
        ("wall_seconds", (int, float), "a number"),
        ("virtual_seconds", (int, float), "a number"),
        ("trace_id", int, "an integer"),
        ("span_id", int, "an integer"),
        ("parent_id", int, "an integer"),
    ):
        value = record.get(field)
        if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
            return f"{field} must be {expected} or null, got {json.dumps(value)}"
    return None


def _run_profile(args) -> int:
    """Roll a ``--log-json`` telemetry log into a phase flame table."""
    from repro.obs import phase_profile, render_flame_table, spans_from_events

    records = []
    try:
        with open(args.log, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    problem = f"not JSON: {exc.msg} (column {exc.colno})"
                else:
                    problem = _log_record_problem(record)
                if problem is not None:
                    print(f"error: {args.log}:{number}: {problem}", file=sys.stderr)
                    return 1
                records.append(record)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read log {args.log!r}: {exc}", file=sys.stderr)
        return 1
    spans = spans_from_events(records)
    if not spans:
        print(f"error: no span_end events in {args.log!r}", file=sys.stderr)
        return 1
    profiles = phase_profile(spans)
    if args.top is not None:
        profiles = profiles[: args.top]
    if args.json:
        print(json.dumps([profile.to_dict() for profile in profiles], indent=2))
        return 0
    print(render_flame_table(profiles))
    return 0


if __name__ == "__main__":
    sys.exit(main())
