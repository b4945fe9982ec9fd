"""One benchmark run of one workload, in a fresh single-threaded process.

``run.py`` starts this file and reads the one JSON object it prints.  The
worker imports fecount from the checkout's ``src/``, makes the run's query
set, and then either stops (``--setup-only``, to time set-up again), runs
whole passes over the set until ``--seconds`` are nearly used and at least
:data:`MIN_PASSES` are done (``--trace 0``), or runs one pass traced between
two untraced passes (``--trace 1``).  Untraced, it also probes the host's
speed (:mod:`hostspeed`): around every query in a run, and for a quarter
second after set-up with ``--setup-only``.

A query's latency is its mean over the passes, both as measured and scaled
to the reference speed by the probes around each of its runs.

Each query's answer is checked against :mod:`reference`; a wrong value, an
exception, a non-zero exit or ``agree/holds/matches: false`` is a failure.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-runs"
ORACLE_BUDGET_MS = 60_000.0  # the default budget of `fec oracle`
MAX_REPORTED_FAILURES = 5
MIN_PASSES = 3
SETUP_SAMPLING_S = 0.25


class Executor:
    """Runs queries against fecount's public API and checks the answers."""

    def __init__(self, workload: str) -> None:
        src = (ROOT / "src").resolve()
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import fecount
        if src not in Path(fecount.__file__).resolve().parents:
            raise RuntimeError(f"imported fecount from {fecount.__file__}, not from {src}")
        if workload == "session":
            import fecount.cli  # noqa: F401
        self.fecount = fecount
        self.workload = workload
        self.cache_dir: str | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def new_pass(self) -> None:
        """Give a session pass a fresh, empty directory for its cache file."""
        self.close()
        if self.workload != "session":
            return
        WORK_DIR.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="session-", dir=WORK_DIR)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def execute(self, kind: str, arg):
        fc = self.fecount
        if kind == "oracle":
            rs = fc.weyl.build_root_system(fc.DynkinType.parse(arg))
            return fc.weyl.count_reflection_factorizations(rs, ORACLE_BUDGET_MS)
        if kind == "affine":
            return fc.counting.e_affine(fc.OrbifoldTriple.of(*arg), fc.counting.CountCache())
        if kind == "dynkin":
            return fc.counting.e_dynkin_recursive(fc.DynkinType.parse(arg))
        argv = [str(Path(self.cache_dir) / "counts.txt") if a == "{cache}" else a for a in arg]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = fc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def run_query(self, kind: str, arg) -> float | None:
        """Run, time and check one query: its latency in ms, or None if it failed."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            outcome = self.execute(kind, arg)
        except Exception as exc:  # any exception is a failed query
            self.fail(f"{kind} {arg}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        try:
            problem = reference.check(kind, arg, outcome)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        if problem is not None:
            self.fail(f"{kind} {arg}: {problem}")
            return None
        return 1000 * elapsed

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(reason)

    def run_pass(self, queries: list, tracer=None, host=None) -> tuple[float, list, list]:
        """One pass over the queries: its wall time less the time spent
        probing the host's speed, each query's latency in ms (None if it
        failed), and with a host each query's scale, the mean of the probes
        before and after it.  With a tracer, each query is one root span."""
        run_query = self.run_query if tracer is None else tracer.wrap("bench.query", self.run_query)
        latencies, scales = [], []
        probing = host.spent_s if host is not None else 0.0
        started = time.perf_counter()
        self.new_pass()
        before = host.sample() if host is not None else None
        for index, (kind, arg) in enumerate(queries):
            if tracer is not None:
                tracer.query = index
            latencies.append(run_query(kind, arg))
            if host is not None:
                after = host.sample()
                scales.append((before + after) / 2)
                before = after
        self.close()
        if host is not None:
            probing = host.spent_s - probing
        return time.perf_counter() - started - probing, latencies, scales


def _visited_failures(queries: list, visited: list[tuple[int, int]]) -> list[str]:
    """The oracle must visit exactly the elements of NC(W) for each query."""
    seen = dict(visited)
    return [
        f"oracle {arg}: visited {seen.get(i)} elements, expected {reference.nc_size(arg)}"
        for i, (kind, arg) in enumerate(queries)
        if kind == "oracle" and seen.get(i) != reference.nc_size(arg)
    ]


def traced_run(executor: Executor, queries: list) -> dict:
    """Per-layer metrics of one pass, and the tracer that recorded them."""
    # An untraced pass runs before and after the traced one; the faster
    # of the two leaves out the first pass's warm-up.
    untraced = executor.run_pass(queries)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = executor.run_pass(queries, tracer)[0]
    finally:
        tracer.remove()
    untraced = min(untraced, executor.run_pass(queries)[0])
    for reason in _visited_failures(queries, tracer.visited):
        executor.fail(reason)
    return {"layers": spans.layer_metrics(tracer, traced, untraced),
            "untraced_wall_s": untraced, "tracer": tracer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    queries = workloads.queries(args.workload, args.seed)
    executor = Executor(args.workload)
    result: dict = {"setup_s": time.monotonic() - args.t0}
    host = hostspeed.HostSpeed()
    if args.setup_only:
        host.sample_for(SETUP_SAMPLING_S)
        print(json.dumps(dict(result, host_scale=host.scale())))
        return 0

    try:
        if args.trace:
            result.update(traced_run(executor, queries))
            WORK_DIR.mkdir(exist_ok=True)
            # One file per workload, so repeated traced runs do not pile up.
            result.pop("tracer").write(str(WORK_DIR / f"{args.workload}.spans"))
        else:
            wall, passes = 0.0, 0
            measured = [[] for _ in queries]
            scaled = [[] for _ in queries]
            while True:
                pass_wall, latencies, scales = executor.run_pass(queries, host=host)
                wall += pass_wall
                passes += 1
                for i, (latency, scale) in enumerate(zip(latencies, scales)):
                    if latency is not None:
                        measured[i].append(latency)
                        scaled[i].append(latency / scale)
                # Stop at the pass end nearest to the time asked for.
                if passes >= MIN_PASSES and wall + wall / passes / 2 >= args.seconds:
                    break
            # The time-weighted scale of the run: measured over scaled query time.
            scaled_s = sum(map(sum, scaled))
            result.update(
                wall_s=wall, passes=passes, completed=sum(map(len, measured)),
                host_scale=sum(map(sum, measured)) / scaled_s if scaled_s else host.scale(),
                latencies_ms=[statistics.fmean(t) for t in measured if t],
                scaled_latencies_ms=[statistics.fmean(t) for t in scaled if t])
    finally:
        executor.close()

    result.update(
        attempted=executor.attempted,
        failed=executor.failed,
        failures=executor.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
