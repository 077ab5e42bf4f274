"""Command line of the benchmark harness.

One workload runs in this process; several run one after another, each
in a fresh subprocess.  The last line of standard output is one JSON
object, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics of a
traced pass that follows an untraced one.  A JSON details file with
provenance, sizes, sample counts and every check goes to ``--out``
(default ``.bench_out/`` at the checkout root), and a traced pass
dumps its spans as JSONL beside it.  The exit code is non-zero when any
check fails or any op fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.harness.layers import PER_LAYER, layer_metrics, shares
from benchmarks.harness.runner import END_TO_END, Pass
from benchmarks.harness.tracing import Tracer, rollup
from benchmarks.harness.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN_SCRIPT = Path(__file__).resolve().with_name("run.py")
OUT_DIR = ROOT / ".bench_out"
#: Measured seconds per pass (``run_seconds`` in ``BENCHMARK.json``).
DEFAULT_SECONDS = 5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.harness run",
        description="Run the repo benchmark's workloads and print their metrics.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1, help="drives every input")
    parser.add_argument(
        "--seconds",
        type=float,
        default=DEFAULT_SECONDS,
        help="measured seconds per pass (ops and timed writes only)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1 (or bare --trace): untraced then traced pass, per-layer metrics",
    )
    parser.add_argument("--out", type=Path, help="JSON details file")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the harness tests"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["run"]:
        argv = argv[1:]
    args = parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if len(names) == 1:
        return run_workload(names[0], args)
    return run_all(names, args)


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "commit": commit or None,
    }


def _measure(name: str, args, tracer: Tracer | None = None, verify: bool = True) -> Pass:
    run = Pass(args.seed, args.seconds, smoke=args.smoke, tracer=tracer, verify=verify)
    try:
        WORKLOADS[name][0](run)
    finally:
        run.close()
    return run


def _default_out(name: str, args) -> Path:
    suffix = "-trace" if args.trace else ""
    return OUT_DIR / f"{name}-seed{args.seed}{suffix}.json"


def run_workload(name: str, args) -> int:
    """Run one workload in this process and print its result line."""
    out = args.out or _default_out(name, args)
    out.parent.mkdir(parents=True, exist_ok=True)
    extra: dict = {}
    if args.trace:
        # The untraced baseline only times: it is there for the overhead.
        baseline = _measure(name, args, verify=False)
        gc.collect()
        tracer = Tracer()
        run = _measure(name, args, tracer)
        ops = rollup(tracer, lambda op: isinstance(op, int))
        writes = rollup(tracer, lambda op: op == "write")
        throughput = "throughput_ops_s"
        overhead = 100 * (baseline.timings()[throughput] / run.timings()[throughput] - 1)
        metrics = layer_metrics(run, ops, writes, overhead)
        units = PER_LAYER
        spans = out.with_suffix(".spans.jsonl")
        tracer.dump(spans)
        extra = {
            "layer_shares": shares(ops),
            "spans": str(spans),
            "untraced_pass": baseline.report(),
        }
        passes = [baseline, run]
    else:
        run = _measure(name, args)
        metrics = run.end_to_end()
        units = END_TO_END
        passes = [run]
    correct = all(each.correct for each in passes)
    details = {
        "workload": name,
        "why": WORKLOADS[name][1],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **provenance(),
        **run.report(),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
        **extra,
        "correct": correct,
    }
    out.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    _print_details(name, args, run, metrics, units, extra, correct)
    print(f"details: {out}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": details["metrics"],
            }
        )
    )
    return 0 if correct else 1


def _print_details(name, args, run: Pass, metrics, units, extra, correct) -> None:
    mode = "traced" if args.trace else "untraced"
    speed = run.clock.summary()
    print(
        f"{name} seed={args.seed} ({mode}): {run.attempted} ops attempted, "
        f"{run.attempted - run.failed} succeeded, {run.failed} failed; "
        f"{len(run.write_seconds)} timed writes; "
        f"{run.measured_seconds:.2f} s measured (wall); "
        f"{run.attempted} latency samples, {len(run.ndcg)} nDCG samples; "
        f"host slowdown median {speed['slowdown_median']:.2f} over {speed['samples']} samples"
    )
    for metric, value in metrics.items():
        print(f"  {metric:<45} {value:>14.4f} {units[metric]}")
    for layer, share in list(extra.get("layer_shares", {}).items())[:8]:
        print(f"  share of op wall  {layer:<38} {100 * share:6.1f} %")
    for check in run.checks:
        verdict = "ok  " if check["ok"] else "FAIL"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"  check {verdict} {check['name']}{detail}")
    for error in run.errors[:5]:
        print(f"  error {error}")
    print(f"  correct: {correct}")


def run_all(names: list[str], args) -> int:
    """Run each workload in a fresh subprocess, one after another."""
    results = {}
    correct = True
    for name in names:
        command = [
            sys.executable,
            str(RUN_SCRIPT),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out",
            str(_default_out(name, args)),
        ]
        if args.smoke:
            command.append("--smoke")
        process = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(process.stdout)
        sys.stderr.write(process.stderr)
        lines = process.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if process.returncode != 0 or not result or not result["correct"]:
            correct = False
        results[name] = result
    summary = {"correct": correct, "seed": args.seed, **provenance(), "workloads": results}
    out = args.out or OUT_DIR / f"all-seed{args.seed}{'-trace' if args.trace else ''}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"summary: {out}")
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1
