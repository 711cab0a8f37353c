"""pcbs benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dist-grid --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the repository root
(README.md beside this file explains them).  The workload runs in a fresh
worker process (worker.py) that imports `pcbs` from `src/`.  With --trace 0
the last line of stdout is a JSON object holding every end-to-end metric:
median pass wall and CPU time, the worker's peak memory, the served share of
operations, and setup_s, the median wall time of `import pcbs.cli` over
several fresh interpreters.  Times are rescaled to a reference host's speed
by the probe in hostspeed.py; the times as measured are printed above the
result line.  With --trace 1 it holds every per-layer metric of one extra
traced pass.  The exit code is nonzero, with no result line,
when the run itself cannot complete (no `src/pcbs`, a crashed or overdue
worker); failed output checks only turn `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
SETUP_PROBES = {"full": 3, "smoke": 1}
# The host-speed probes run after the import, so numpy's import stays in
# setup_s; the first one only warms up.
SETUP_PROBE = ("import time; t = time.perf_counter(); import pcbs.cli; "
               "import_s = time.perf_counter() - t; import statistics, hostspeed; "
               "hostspeed.probe(); "
               "print(import_s, statistics.fmean(hostspeed.probe() for _ in range(3)))")


class BenchError(Exception):
    """The run could not produce a result."""


def _child_env() -> dict:
    paths = [os.path.join(ROOT, "src"), HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _run(cmd: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[:3]))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[:3])} overran the {DEADLINE_S:g} s deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def setup_seconds(probes: int, deadline: float) -> tuple[float, float]:
    """Median wall time of `import pcbs.cli`, each in a fresh interpreter:
    (rescaled to the reference host, as measured)."""
    samples = [[float(x) for x in
                _run([sys.executable, "-c", SETUP_PROBE], deadline).strip().split()[-2:]]
               for _ in range(probes)]
    return (statistics.median(import_s * REFERENCE_S / speed for import_s, speed in samples),
            statistics.median(import_s for import_s, _ in samples))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "pcbs", "cli.py")):
        raise BenchError(f"no pcbs sources under {os.path.join(ROOT, 'src')}")
    work_dir = os.path.join(ROOT, ".perfbench_work", args.workload)
    setup_s, raw_setup_s = (None, None) if args.trace else \
        setup_seconds(SETUP_PROBES[args.size], deadline)
    raw = json.loads(_run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--work-dir", work_dir], deadline).strip().splitlines()[-1])

    passes = raw["passes"] + ([raw["traced_pass"]] if args.trace else [])
    attempted = sum(p["served"] + p["refused"] + p["failed"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, declared = raw["layers"], spec["per_layer"]
    else:
        timed = raw["passes"]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "cpu_s": statistics.median(p["cpu_s"] for p in timed),
            "peak_rss_mb": raw["peak_rss_mb"],
            "served_ratio": sum(p["served"] for p in timed) / attempted,
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print("environment " + json.dumps(raw["environment"], sort_keys=True))
    refused = sum(p["refused"] for p in passes)
    print(f"{args.workload}: {len(raw['passes'])} timed pass(es) of {raw['operations_per_pass']} "
          f"operations{' + 1 traced pass' if args.trace else ''}; attempted {attempted}, "
          f"failed {failed}, refused {refused}")
    if not args.trace:
        timed = raw["passes"]
        print("as measured: wall_s {:.6g} s, cpu_s {:.6g} s, setup_s {:.6g} s; host-speed probe "
              "{:.6g} s against the reference host's {:g} s".format(
                  statistics.median(p["raw_wall_s"] for p in timed),
                  statistics.median(p["raw_cpu_s"] for p in timed), raw_setup_s,
                  statistics.median(p["probe_s"] for p in timed), REFERENCE_S))
    for failure in raw["failures"]:
        print(f"FAILED {args.workload}/{failure}")
    rows = sorted(metrics.items(), key=lambda kv: -kv[1]["value"] if kv[0].endswith(".self_s") else 0)
    for name, metric in rows:
        if not args.trace or metric["value"]:
            print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
