"""Runs one workload in this process and prints its raw measurements as JSON.

Started by run.py, one process per workload, so that peak memory belongs to
that workload.  Order: one warm-up operation, untimed; timed passes over
the workload's operations until --seconds have gone (at least one); with
--trace 1, one more pass with the layer spans installed.  Only the
`cli.main` calls are timed; the output checks run between them.

The host is shared and its speed drifts, so each operation is timed by
`hostspeed.Timing`, which probes the host's speed before, during and after it.
Each operation's wall and CPU time is reported both as measured and rescaled
to the reference host's speed.  The traced pass probes only between
operations, so that no probe falls inside a span, and its layer times stay
as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from hostspeed import Timing, probe
from pcbs import cli
from tracing import Tracer
from workloads import BUILDERS, REFUSAL_EXITS, Op, Outcome, Verdict


def invoke(argv, out_dir: str) -> Outcome:
    """One in-process `pcbs` call with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:       # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return Outcome(code, out.getvalue(), err.getvalue(), out_dir)


def judge(op: Op, outcome: Outcome) -> tuple[str, Verdict]:
    """("served" | "refused" | "failed", verdict) for one finished operation."""
    if outcome.exit_code in REFUSAL_EXITS and outcome.stderr.startswith("error: "):
        return "refused", Verdict()
    if outcome.exit_code != 0:
        return "failed", Verdict((f"exit {outcome.exit_code}: {outcome.stderr.strip()}",))
    try:
        verdict = op.check(outcome)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return "failed", Verdict((f"output unreadable: {exc!r}",))
    return ("failed" if verdict.problems else "served"), verdict


class Pass:
    """Timings and outcomes of one pass over the operations."""

    def __init__(self, sample: bool = True):
        self.sample = sample                        # probe the host inside operations
        self.wall_s = self.cpu_s = 0.0              # rescaled to the reference host
        self.raw_wall_s = self.raw_cpu_s = 0.0      # as measured on this host
        self.probes: list[float] = []
        self.counts = {"served": 0, "refused": 0, "failed": 0}
        self.failures: list[str] = []
        self.observed: dict[str, float] = {}

    def run(self, ops, out_dir: str) -> "Pass":
        before = probe()
        for op in ops:
            for name in os.listdir(out_dir):    # a check must never read a stale file
                if name.endswith(".csv"):
                    os.remove(os.path.join(out_dir, name))
            timing = Timing(before)
            try:
                with timing.measure(self.sample):
                    outcome = invoke(op.argv, out_dir)
                crash = None
            except Exception:           # a crash fails this operation, not the run
                outcome, crash = None, traceback.format_exc(limit=3)
            before = timing.probes[-1]
            self.probes += timing.probes[1:]
            self.raw_wall_s += timing.wall_s
            self.raw_cpu_s += timing.cpu_s
            self.wall_s += timing.wall_s * timing.scale
            self.cpu_s += timing.cpu_s * timing.scale
            status, verdict = judge(op, outcome) if crash is None else ("failed", Verdict((crash,)))
            self.counts[status] += 1
            self.failures += [f"{op.name}: {problem}" for problem in verdict.problems]
            for key, value in verdict.observed:
                self.observed[key] = max(value, self.observed.get(key, value))
        return self

    def summary(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "raw_wall_s": self.raw_wall_s,
                "raw_cpu_s": self.raw_cpu_s, "probe_s": statistics.median(self.probes),
                **self.counts}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    os.makedirs(args.work_dir, exist_ok=True)
    workload = BUILDERS[args.workload](args.size, args.seed, args.work_dir)
    invoke(workload.warmup, args.work_dir)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(Pass().run(workload.ops, args.work_dir))
    result = {
        "environment": environment(),
        "operations_per_pass": len(workload.ops),
        "passes": [p.summary() for p in passes],
        "failures": sorted({f for p in passes for f in p.failures}),
    }
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = Pass(sample=False).run(workload.ops, args.work_dir)
        tracer.dump(os.path.join(args.work_dir, "spans.json"))
        layers = tracer.metrics()
        layers.update(traced.observed)
        # as measured, like the spans: the traced pass has no probes inside operations
        layers["trace.wall_s"] = traced.raw_wall_s
        layers["trace.overhead_s"] = traced.raw_wall_s - statistics.median(
            p.raw_wall_s for p in passes)
        result["traced_pass"] = traced.summary()
        result["failures"] = sorted(set(result["failures"]) | set(traced.failures))
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
