#!/usr/bin/env python3
"""Benchmark of the subsage command line, one workload per process.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from ``src/``.
Set-up builds every input from ``--seed``. A pass then runs the workload's
commands through ``subsage.cli.main`` in this process, with one thread of
control (``--threads`` is never passed; numpy's BLAS keeps its default
thread count, which the provenance records). Passes repeat while the next
one still fits in ``--seconds``; at least one runs, however long it takes.

``--seconds`` bounds only the repeated passes. The set-ups before them and
the output checks after them come on top, so a run lasts longer than
``--seconds``: with ``--seconds 25`` on a 2-vCPU Xeon at 2.0 GHz, about
60 s for ``acceptance`` (one pass of about 40 s), 40 s for ``large_n``
(two passes of about 10 s) and 35 s for ``deep_logistic`` (three or four
passes of 6 to 7 s).

``--trace 0`` reports the end-to-end metrics: set-up time, median per-pass
command times, and peak RSS. Set-up time is the median of
``INTERPRETER_STARTS`` fresh-interpreter starts that import the CLI plus
the median of ``SETUP_REPEATS`` builds of the inputs (generation, split,
CSV and dump writes). ``--trace 1`` runs one untraced pass and one traced
pass and reports per-layer metrics from the traced one. Its overhead
metric, ``trace.span_cost_s``, is the number of spans times the measured
cost of one wrapped call; the traced-minus-untraced pass time is printed
as ``trace.overhead_s`` for information only, since one pass against
another is noisier than the tracing cost. Spans go to ``spans.jsonl`` in
the work directory (``perfbench/_work/<workload>-seed<n>-trace<t>/``), next
to ``result.json``. The CSV inputs are deleted when the run ends.

Every metric is printed as ``metric <name> <value> <unit>``; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 3
INTERPRETER_STARTS = 5
SPAN_COST_CALLS = 20000

if not (SRC / "subsage" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'subsage'} not found; run from a subsage source tree")
sys.path.insert(0, str(SRC))

import subsage.cli as cli  # noqa: E402
from subsage.tree_model import load_model  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import provenance  # noqa: E402
from tracing import Tracer, patched  # noqa: E402
from workloads import SETUPS, TOP  # noqa: E402


@dataclass
class CommandRun:
    name: str
    seconds: float
    code: int | None
    stdout: str


def run_command(name: str, argv: list[str], tracer: Tracer | None = None) -> CommandRun:
    buf = io.StringIO()
    span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
    code = None
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
    seconds = time.perf_counter() - t0
    return CommandRun(name, seconds, code, buf.getvalue())


def run_passes(plan, seconds: float, tracer: Tracer | None = None) -> list[list[CommandRun]]:
    """Passes of the plan's commands while the next pass still fits."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append([run_command(n, argv, tracer) for n, argv in plan.commands])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def interpreter_start() -> float:
    """Seconds a fresh interpreter takes to import the CLI, as a user's
    command pays."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import subsage.cli"],
                   env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    return time.perf_counter() - t0


def timed_build(workload: str, work: Path, seed: int):
    if work.exists():
        shutil.rmtree(work)
    t0 = time.perf_counter()
    work.mkdir(parents=True)
    plan = SETUPS[workload](work, seed)
    return time.perf_counter() - t0, plan


def setup_seconds(workload: str, work: Path, seed: int):
    """Median interpreter start plus median input build, and the plan of
    the last build."""
    starts = [interpreter_start() for _ in range(INTERPRETER_STARTS)]
    builds = [timed_build(workload, work, seed) for _ in range(SETUP_REPEATS)]
    seconds = statistics.median(starts) + statistics.median(t for t, _ in builds)
    return seconds, builds[-1][1]


def command_metrics(passes) -> dict:
    """Median over passes of each command's time, the pipeline and
    ``subsage``; every workload runs ``subsage``."""
    names = dict.fromkeys(r.name for r in passes[0])
    out = {}
    for name in names:
        out[f"{name}_s"] = (statistics.median(
            sum(r.seconds for r in p if r.name == name) for p in passes), "s")
    out["pipeline_s"] = (statistics.median(sum(r.seconds for r in p) for p in passes), "s")
    return out


def output_checks(plan, last_pass) -> list[checks.Check]:
    """Every check of the plan's outputs; a check that raises fails."""
    found: list[checks.Check] = []

    def guarded(name, fn):
        try:
            result = fn()
        except Exception as exc:
            found.append(checks.Check(name, False, f"{type(exc).__name__}: {exc}"))
            return
        found.extend(result if isinstance(result, list) else [result])

    try:
        model = load_model(plan.model)
        reports = json.loads(plan.report.read_text())
    except Exception as exc:
        return [checks.Check("outputs_readable", False, f"{type(exc).__name__}: {exc}")]
    guarded("psi_naive", lambda: checks.check_psi_naive(model, plan.test, reports, plan.loss))
    guarded("draw_rebuild", lambda: checks.check_draw_rebuild(
        model, plan.test, reports, plan.loss, plan.seed))
    rank = next((r for r in last_pass if r.name == "rank"), None)
    if rank is not None:
        guarded("rank", lambda: checks.check_rank(
            model, plan.rank_data, checks.parse_ranking(rank.stdout), TOP))
    for rep in reports:
        if rep["feature"] in plan.bca_features:
            guarded("bca", lambda rep=rep: checks.check_bca(rep))
    return found


def model_and_feature_facts(plan):
    model = load_model(plan.model)
    facts = metrics.model_facts(model)
    per_feature = {
        plan.test.feature_index(f): metrics.feature_facts(
            model, plan.test.feature_index(f), plan.test.n_rows)
        for f in plan.features
    }
    return facts, per_feature


def traced_run(workload: str, work: Path, seed: int):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tracer = Tracer()
    with patched(tracer), tracer.span("setup"):
        plan = SETUPS[workload](work, seed)
    untraced = run_passes(plan, 0.0)
    with patched(tracer):
        traced = run_passes(plan, 0.0, tracer)
    tracer.write_jsonl(work / "spans.jsonl")
    return plan, untraced + traced, tracer


def span_cost() -> float:
    """Seconds one wrapped call adds, from a wrapped no-op on a throwaway
    tracer; the median of five batches of ``SPAN_COST_CALLS`` calls."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop()
        wrapped = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            noop.__wrapped__()
        per_call.append((wrapped - (time.perf_counter() - t0)) / SPAN_COST_CALLS)
        tracer.spans.clear()
    return statistics.median(per_call)


def round_times(spans) -> list[float]:
    """Seconds between consecutive boosting rounds (validation-loss calls)."""
    ends = [s.end for s in spans if s.name == "trainer.eval_loss"]
    return [b - a for a, b in zip(ends, ends[1:])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    extra: dict = {}
    if args.trace == 0:
        setup_s, plan = setup_seconds(args.workload, work, args.seed)
        passes = run_passes(plan, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        found = command_metrics(passes)
        found["setup_s"] = (setup_s, "s")
        found["peak_rss_mb"] = (peak_rss_mb, "MB")
        facts, per_feature = model_and_feature_facts(plan)
    else:
        plan, passes, tracer = traced_run(args.workload, work, args.seed)
        facts, per_feature = model_and_feature_facts(plan)
        found = metrics.per_layer_metrics(tracer.spans, facts, per_feature)
        plain = sum(r.seconds for r in passes[0])
        overhead = sum(r.seconds for r in passes[1]) - plain
        found["trace.overhead_s"] = (overhead, "s")
        found["trace.overhead_frac"] = (overhead / plain, "1")
        found["trace.spans"] = (len(tracer.spans), "count")
        found["trace.span_cost_s"] = (len(tracer.spans) * span_cost(), "s")
        found["trace.span_cost_frac"] = (found["trace.span_cost_s"][0] / plain, "1")
        if args.workload == "acceptance":
            names = {plan.test.feature_index(f): f for f in plan.features}
            draw_ms = metrics.bootstrap_phases(tracer.spans)["draw_ms"]
            extra["crosscheck"] = provenance.crosscheck(
                {names[k]: v for k, v in draw_ms.items()}, round_times(tracer.spans))

    ops = [r for p in passes for r in p]
    found_checks = output_checks(plan, passes[-1])
    attempted = len(ops) + len(found_checks)
    failed = sum(r.code != 0 for r in ops) + sum(not c.ok for c in found_checks)
    found["failed_ops_frac"] = (failed / attempted, "1")

    working_set = {
        "test_data_mb": plan.test.n_rows * (plan.test.n_cols + 1) * 8 / 1e6,
        "mask_mb": max(f["mask_mb"] for f in per_feature.values()),
        "indicator_mb": max(f["indicator_mb"] for f in per_feature.values()),
    }
    prov = provenance.provenance(ROOT, args.seed, working_set)
    prov["pass_seconds"] = [{r.name: r.seconds for r in p} for p in passes]
    prov["sha256"] = {p.name: checks.sha256(p) for p in (plan.model, plan.report, *plan.hashed)}
    prov["model"] = facts
    prov["features"] = {plan.test.feature_names[k]: v for k, v in per_feature.items()}

    for name, (value, unit) in sorted(found.items()):
        print(f"metric {name} {value!r} {unit}")
    for c in found_checks:
        print(f"check {c.name} {'PASS' if c.ok else 'FAIL'} {c.detail}")
    for row in extra.get("crosscheck", []):
        print("crosscheck " + json.dumps(row))
    print("provenance " + json.dumps(prov))

    declared = metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER
    missing = [n for n in declared if n not in found]
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": found[n][0], "unit": found[n][1]}
                    for n in declared if n in found},
    }
    for csv in work.rglob("*.csv"):
        csv.unlink()
    (work / "result.json").write_text(json.dumps({
        **result, "all_metrics": {n: v for n, (v, _) in found.items()},
        "checks": [c.__dict__ for c in found_checks], "provenance": prov, **extra,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
