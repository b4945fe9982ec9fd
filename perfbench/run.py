"""fecount benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, both runs

``--trace 0`` reports the end-to-end metrics, measured in a fresh worker
process with tracing off.  Their times are scaled to the reference speed by
probes of the host's speed (see hostspeed.py); the lines above the last give
the measured values beside them.  ``--trace 1`` runs one pass over the
workload's query set traced, between two untraced passes, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it give every metric by name with its unit.  The exit status is 1 if
any answer was wrong and 2 if the run could not be made.  See README.md in
this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = [
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 8  # extra set-ups per run; setup_s is the median with the run's own
TIME_LIMIT_S = 170.0


class RunError(RuntimeError):
    """A worker could not produce a result."""


def run_worker(options: list[str], deadline: float) -> dict:
    """Start worker.py in a fresh process and return the JSON it prints."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FEC_ORACLE_BUDGET_MS", None)
    command = [sys.executable, str(HERE / "worker.py"), *options, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(options)} ran past the time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(options)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run: its metrics and the counts of attempted and failed queries."""
    deadline = time.monotonic() + TIME_LIMIT_S
    options = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if trace:
        main = run_worker(options, deadline)
        metrics = {name: (main["layers"][name], unit) for name, unit in LAYER_METRICS}
        measured = {}
    else:
        setups = [run_worker(options + ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
        main = run_worker(options, deadline)
        setups.append(main)
        deciles = deciles_of(main["latencies_ms"])
        scaled = deciles_of(main["scaled_latencies_ms"])
        measured = {
            "queries_per_s": main["completed"] / main["wall_s"],
            "query_p50_ms": deciles[4],
            "query_p90_ms": deciles[8],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        values = {
            "queries_per_s": measured["queries_per_s"] * main["host_scale"],
            "query_p50_ms": scaled[4],
            "query_p90_ms": scaled[8],
            "setup_s": statistics.median(s["setup_s"] / s["host_scale"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return {"attempted": main["attempted"], "failed": main["failed"],
            "failures": main["failures"], "metrics": metrics, "measured": measured,
            "detail": {k: main[k] for k in ("passes", "host_scale", "untraced_wall_s")
                       if k in main}}


def deciles_of(latencies: list[float]) -> list[float]:
    return statistics.quantiles(latencies, n=10) if len(latencies) > 1 else [0.0] * 9


def report(workload: str, run: dict) -> None:
    """Print every metric of one run by name, with its unit and, for a time
    put on the reference scale, the value as measured."""
    for name, (value, unit) in run["metrics"].items():
        line = f"{workload:<10} {name:<45} {value:>16.6f} {unit}"
        if name in run["measured"]:
            line += f" (measured {run['measured'][name]:.6f})"
        print(line)
    failed_frac = run["failed"] / max(run["attempted"], 1)
    print(f"{workload:<10} {'failed_frac':<45} {failed_frac:>16.6f} frac "
          f"({run['failed']} of {run['attempted']} queries; {run['detail']})")
    for reason in run["failures"]:
        print(f"{workload:<10} FAILED {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fecount" / "__init__.py").is_file():
        print(f"perfbench: no fecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for workload, trace in plan:
        try:
            run = measure(workload, args.seed, args.seconds, trace)
        except RunError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(workload, run)
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: {"value": value, "unit": unit}
                        for name, (value, unit) in run["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
