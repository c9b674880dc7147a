"""pfakit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the benchmark imports pfakit from
``src/`` and its reference oracles from ``tests/oracles.py``, and exits with
code 2 when either is missing. It builds the workload's inputs from the seed
(set-up), then runs rounds of the workload's fixed job list until the next
round would end after ``--seconds``. See ``harness.py`` for what a round is and
``workloads.py`` for the workloads.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time (the
median of five set-ups, each in a fresh interpreter from its start to its
exit: imports and input generation), jobs per second, median and 90th-percentile
job latency (over each job's median latency in the rounds after the first,
which is the warm-up), peak resident memory, and the share of
jobs that passed their check. With ``--trace 1`` untraced and traced rounds
alternate; the metrics are the per-layer ones, from the traced rounds' spans
(median over those rounds), and the traced rounds' slowdown. The spans are
written to ``.bench_out/`` at the end.

The line before the result is an environment block. A run is correct when
every job passed its check and, where ``digests.json`` pins the seed, every
round's digest of all outputs matches the pinned one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # timed set-ups per run; setup_s reports their median
MIN_ROUNDS = 3  # of each kind (untraced, traced) per run


def _environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _pinned(workload: str, seed: int) -> str | None:
    path = BENCH / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("identities", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/pfakit/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a pfakit checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness  # imports pfakit
    import workloads

    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times = [_setup_once(args, workdir.with_name(f"{workdir.name}-setup")) for _ in range(SETUPS)]
        result, env = _measure(args, jobs, harness, statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(setup_runs_s=setup_times)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def _setup_once(args, workdir: Path) -> float:
    """Wall time of one set-up in a fresh interpreter, start to exit."""
    cmd = [sys.executable, str(BENCH / "setup_once.py"), args.workload, str(args.seed), str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd)
    # wait() with a timeout polls, at up to 50 ms intervals, which would show
    # in the time; without one it sees the exit at once. The timer is the limit.
    timer = threading.Timer(120, proc.kill)
    timer.start()
    try:
        code = proc.wait()
        elapsed = time.perf_counter() - start
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def _measure(args, jobs, harness, setup_s):
    pinned = _pinned(args.workload, args.seed)
    tracer = harness.Tracer() if args.trace else None
    plain, traced = harness.make_api(None), harness.make_api(tracer) if tracer else None
    untraced_rounds, traced_rounds, per_round = [], [], []
    expected = None
    attempted = failed = 0
    failures: list[str] = []
    # The inputs live for the whole run: keep the collector from scanning
    # them, and start every round from an empty young generation.
    gc.collect()
    gc.freeze()
    start = round_start = time.perf_counter()
    while True:
        gc.collect()
        use_tracer = tracer is not None and len(traced_rounds) < len(untraced_rounds)
        first_span = len(tracer.spans) if use_tracer else 0
        r = harness.run_round(jobs, traced if use_tracer else plain,
                              tracer if use_tracer else None, expected)
        if expected is None:
            expected = r.fingerprints
        if pinned is not None and r.digest != pinned:
            # A digest cannot say which output moved: the whole round fails.
            r.failures = [f"round digest {r.digest} != pinned {pinned}"] + r.failures
            failed += len(jobs)
        else:
            failed += len(r.failures)
        attempted += len(jobs)
        failures += r.failures
        if use_tracer:
            traced_rounds.append(r)
            per_round.append(harness.layer_metrics(tracer.spans[first_span:], first_span))
        else:
            untraced_rounds.append(r)
        now = time.perf_counter()
        last_round, round_start = now - round_start, now
        enough = len(untraced_rounds) >= MIN_ROUNDS and (tracer is None or len(traced_rounds) >= MIN_ROUNDS)
        if enough and now - start + last_round > args.seconds:
            break
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # The first round also runs every check between its jobs; it is the
        # warm-up and is not timed.
        values = harness.end_to_end(setup_s, untraced_rounds[1:], rss_mb, attempted, failed)
        units = dict(harness.END_TO_END)
    else:
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        # The first round also runs every check between its jobs, which slows
        # them; it is left out of the comparison.
        busy = [statistics.median(sum(r.latencies) for r in rs) for rs in (untraced_rounds[1:], traced_rounds)]
        values["trace.overhead_frac"] = busy[1] / busy[0] - 1
        units = dict(harness.PER_LAYER)
        _write_trace(args, tracer.spans, jobs)
    env = _environment(args.workload, args.seed)
    env.update(
        seconds=args.seconds,
        trace=args.trace,
        jobs_per_round=len(jobs),
        rounds=len(untraced_rounds),
        traced_rounds=len(traced_rounds),
        digest=untraced_rounds[0].digest,
        digest_pinned=pinned is not None,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, env


def _write_trace(args, spans, jobs) -> None:
    out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    records = [
        {"name": name, "start": start, "end": end, "parent": parent, "job": job,
         "kind": None if job is None else jobs[job].kind, "work": work}
        for name, start, end, parent, job, work in spans
    ]
    out.write_text(json.dumps(records) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
