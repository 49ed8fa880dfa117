#!/usr/bin/env python3
"""mstdkit benchmark: one workload, closed loop, one client, in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 45 --trace 0

Jobs run one after another through ``mstdkit.cli.main`` (or a library
entry point), so each job starts only when the previous one has returned.
A run measures cold start, runs one warm-up pass of the job list, then
repeats full passes until ``--seconds`` have gone by.  Every output is
checked (see ``workloads``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the ``end_to_end`` ones declared in
``BENCHMARK.json``: items_per_s, setup_s and peak_rss_mb (medians over
passes or cold starts); the latency of the workload's largest job,
max_job_s, is printed beside them.  With ``--trace 1``, untraced and
traced passes alternate and the metrics are the ``per_layer`` ones, from
spans around mstdkit's public functions; the spans are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
COLD_STARTS = 7
MIN_ROUNDS = 3


def cold_start_seconds(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``; the first start is discarded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    times = []
    for _ in range(COLD_STARTS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def execute(job) -> tuple[int, str, float]:
    """Run one job; return (exit code, output text, seconds inside the program)."""
    from mstdkit import cli

    buf = io.StringIO()
    report = None
    t0 = perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(job.argv)
        else:
            report, rc = job.call(), 0
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crashing job is a failed job; the run goes on
        traceback.print_exc()
        rc = 1
    seconds = perf_counter() - t0
    text = buf.getvalue() if report is None else json.dumps(report.to_dict())
    return rc, text, seconds


class Runner:
    """Runs passes over a job list and keeps the correctness tally."""

    def __init__(self, jobs, expected: dict):
        self.jobs = jobs
        self.expected = expected
        self.outputs: dict = {}  # job name -> output text of its first run
        self.items: dict = {}
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0

    def fail(self, job, why: str):
        self.failed += 1
        print(f"FAILED {job.name}: {why}", file=sys.stderr)

    def run_pass(self, tracer=None) -> dict:
        """One pass over every job; returns job name -> seconds."""
        gc.collect()
        times = {}
        for job in self.jobs:
            if tracer is None:
                rc, text, times[job.name] = execute(job)
            else:
                with tracer.span(f"job:{job.name}"):
                    rc, text, times[job.name] = execute(job)
            self.attempted += 1
            first = job.name not in self.outputs
            if first:
                self.outputs[job.name] = text
                self.out_bytes += len(text.encode()) if job.argv is not None else 0
            ref = digest(self.outputs[job.name]) if job.seeded else self.expected.get(job.name)
            if rc != 0:
                self.fail(job, f"exit code {rc}")
            elif digest(text) != ref:
                self.fail(job, "output digest differs from the reference")
            elif first:
                try:
                    self.items[job.name] = job.items(text)
                except (ValueError, KeyError, TypeError) as e:
                    self.fail(job, f"unreadable output: {e!r}")
        return times

    def check_known_answers(self):
        """Independent checks of each job's first output; run after timing ends."""
        from workloads import CheckFailed

        for job in self.jobs:
            try:
                job.check(self.outputs[job.name])
            except CheckFailed as e:
                self.fail(job, f"known answer: {e}")
            except (ValueError, KeyError, TypeError, IndexError) as e:
                self.fail(job, f"unreadable output: {e!r}")

    def pass_items(self) -> int:
        return sum(self.items.values())

    def outputs_digest(self) -> str:
        return digest("".join(digest(self.outputs[j.name]) for j in self.jobs))


def measure(runner: Runner, seconds: float, tracer=None):
    """Alternate untraced (and, with a tracer, traced) passes for about ``seconds``.

    A further round starts only if it should end within ``seconds``, judged
    by the mean round so far, but at least MIN_ROUNDS rounds run.
    """
    untraced, traced, spans_at = [], [], []
    start = perf_counter()
    while True:
        untraced.append(runner.run_pass())
        if tracer is not None:
            tracer.counts.clear()
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            spans_at.append((lo, len(tracer.spans), dict(tracer.counts)))
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, spans_at


def end_to_end(runner: Runner, passes: list, setup_s: float, rss_mb: float) -> dict:
    items = runner.pass_items()
    return {
        "items_per_s": statistics.median(items / sum(p.values()) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(names, runner: Runner, tracer, untraced: list, traced: list, spans_at: list) -> tuple[dict, list]:
    """Medians over traced passes of the per-layer metrics, plus the per-pass rows."""
    from tracing import layer_times

    rows = []
    for (lo, hi, counts), times in zip(spans_at, traced):
        row = {**layer_times(tracer.spans, lo, hi), **counts, "trace.pass_s": sum(times.values())}
        row["search.band_yield"] = ratio(row.get("search.masks_in_band", 0), row.get("search.masks_scanned", 0))
        row["counting.cover_yield"] = ratio(row.get("counting.covering_found", 0), row.get("counting.graphs_enumerated", 0))
        rows.append(row)
    metrics = {name: statistics.median(row.get(name, 0) for row in rows) for name in names}
    items = runner.pass_items()
    metrics["cli.out_bytes"] = runner.out_bytes
    metrics["trace.overhead_items_per_s"] = statistics.median(
        items / sum(p.values()) for p in untraced
    ) - statistics.median(items / sum(p.values()) for p in traced)
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mstdkit" / "__init__.py").is_file():
        print(f"error: no mstdkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    build, main_layers = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    expected = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

    env = environment()
    print(json.dumps({"env": env}))
    if args.trace:
        numpy_s = cold_start_seconds("import numpy")
    else:
        setup_s = cold_start_seconds("import mstdkit.cli")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        jobs = build(args.seed, Path(workdir))
        (largest,) = [j.name for j in jobs if j.largest]
        runner = Runner(jobs, expected)
        runner.run_pass()  # warm-up: caches, lazy imports, first outputs
        tracer = tracing.Tracer() if args.trace else None
        untraced, traced, spans_at = measure(runner, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runner.check_known_answers()

    if args.trace:
        metrics, rows = per_layer(units, runner, tracer, untraced, traced, spans_at)
        metrics["setup.numpy_s"] = numpy_s
        for row in rows:
            module_self = {m: row.get(f"{m}.self_s", 0) for m in tracing.MODULES}
            top = max(module_self, key=module_self.get)
            print(
                f"traced pass: modules' self time {sum(module_self.values()):.4f} s of {row['trace.pass_s']:.4f} s;"
                f" largest in {top} (expected {' or '.join(main_layers)})"
            )
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "passes": rows, "spans": tracer.spans})
        )
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(runner, untraced, setup_s, rss_mb)

    metrics = {name: metrics[name] for name in units}  # declared order; a missing one raises
    print(f"items per pass: {runner.pass_items()}")
    for label, passes in (("untraced", untraced), ("traced", traced)):
        if passes:
            print(f"{label} pass seconds: {' '.join(f'{sum(p.values()):.4f}' for p in passes)}")
    # reported, not gated: one job's latency drifts with the host more than the bounds allow
    print(f"max_job_s {statistics.median(p[largest] for p in untraced):.6g} s ({largest})")
    print(f"outputs_digest {runner.outputs_digest()}")
    print(f"failed_frac {runner.failed / runner.attempted:.6f} ({runner.failed} of {runner.attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
