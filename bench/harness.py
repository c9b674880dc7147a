"""Rounds, spans and metrics for the pfakit benchmark.

A workload is a fixed list of jobs built from a seed. A round runs every job
once, in order, in this process: a closed loop with one client, so the next
job starts only when the previous one has returned. Each job's output is
checked outside the timed region, against the workload's own reference in the
first round and for being bit-identical to that first output in every later
round.

Jobs reach pfakit only through an api namespace (:func:`make_api`). Without a
tracer it holds the plain pfakit functions; with one, every function is wrapped
in a span, so the traced and untraced rounds run the same job code.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable

import pfakit
import pfakit.cli

# Every pfakit function a job may call, by layer. The span of a call is named
# "<layer>.<function>"; CLI runs are named "cli.<command>".
LAYERS = {
    "core": ("accept_prob", "reach_prob", "monte_carlo_accept"),
    "constructions": ("build_simulation", "instantiate_simulation", "hat"),
    "verification": (
        "check_fair_coin",
        "check_lower",
        "check_theta",
        "check_cheat_once",
        "extract_witness",
        "scrambled_block",
    ),
    "documents": ("parse_document", "document_to_automaton", "serialize_document"),
}


def _violated(report) -> int:
    return int(report.verdict == "violated")


# Units of work of one call, for the per-unit metrics. Jobs pass the arguments
# these read positionally.
WORK: dict[str, Callable[[tuple, Any], int]] = {
    "core.accept_prob": lambda args, out: len(args[1]),  # letters read
    "core.monte_carlo_accept": lambda args, out: args[2] * len(args[1]),  # sampled steps
    "constructions.build_simulation": lambda args, out: len(out.npa.states) * len(out.npa.alphabet),
    "constructions.instantiate_simulation": lambda args, out: len(out.states) * len(out.alphabet),
    "verification.check_fair_coin": lambda args, out: _violated(out),
    "verification.check_lower": lambda args, out: _violated(out),
    "verification.check_theta": lambda args, out: _violated(out),
    "verification.check_cheat_once": lambda args, out: _violated(out),
    "verification.extract_witness": lambda args, out: _violated(out[1]),
    # Documents are ASCII (the serializer escapes everything else), so
    # characters are bytes.
    "documents.parse_document": lambda args, out: len(args[0]),
    "documents.serialize_document": lambda args, out: len(out),
}

# Spans whose work unit is 1 when the returned report says "violated".
VERDICT_SPANS = tuple(
    f"verification.{name}"
    for name in ("check_fair_coin", "check_lower", "check_theta", "check_cheat_once", "extract_witness")
)

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

PER_LAYER = (
    ("core.accept_prob.calls", "count"),
    ("core.accept_prob.self_s", "s"),
    ("core.accept_prob.us_per_letter", "us"),
    ("core.reach_prob.self_s", "s"),
    ("core.monte_carlo_accept.self_s", "s"),
    ("core.monte_carlo_accept.ns_per_step", "ns"),
    ("constructions.build_simulation.self_s", "s"),
    ("constructions.build_simulation.out_pairs", "count"),
    ("constructions.instantiate_simulation.calls", "count"),
    ("constructions.instantiate_simulation.us_per_pair", "us"),
    ("verification.check_fair_coin.self_s", "s"),
    ("verification.check_lower.self_s", "s"),
    ("verification.check_theta.self_s", "s"),
    ("verification.check_cheat_once.self_s", "s"),
    ("verification.extract_witness.self_s", "s"),
    ("verification.violated", "count"),
    ("documents.parse_document.mb_per_s", "MB/s"),
    ("documents.serialize_document.mb_per_s", "MB/s"),
    ("documents.document_to_automaton.self_s", "s"),
    ("documents.bytes", "count"),
    ("cli.simulate-build.self_s", "s"),
    ("cli.simulate-instantiate.self_s", "s"),
    ("cli.export-dot.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.lasso.self_s", "s"),
    ("cli.search.self_s", "s"),
    ("cli.sweep.self_s", "s"),
    ("cli.case-study.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# Self time per unit of work: metric suffix -> (scale of the time, or None for
# a throughput in MB/s).
_PER_UNIT = {
    "us_per_letter": 1e6,
    "us_per_pair": 1e6,
    "ns_per_step": 1e9,
    "mb_per_s": None,
}


@dataclass(frozen=True)
class Job:
    """One user-level task.

    ``run`` is timed; it gets the api namespace and the round's shared context
    (where a job leaves what later jobs of the same round reuse) and returns
    the job's exact output. ``check`` is not timed; it gets the output and the
    context and returns None when the output is right, else what is wrong.
    """

    kind: str
    run: Callable[[SimpleNamespace, dict], Any]
    check: Callable[[Any, dict], str | None]


class Tracer:
    """Spans kept in memory, one list per span:
    [name, start, end, parent span index or None, job index, work units]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.job, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        work = WORK.get(name)
        if work is not None:
            span[5] = work(args, out)
        return out


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


def _traced_cli(tracer: Tracer) -> Callable:
    def traced(argv):
        return tracer.call(f"cli.{argv[0]}", pfakit.cli.main, argv)

    return traced


def make_api(tracer: Tracer | None) -> SimpleNamespace:
    """The pfakit functions jobs call, plus ``cli`` for ``pfakit.cli.main``."""
    fns: dict[str, Callable] = {}
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(pfakit, name)
            fns[name] = fn if tracer is None else _wrap(tracer, f"{layer}.{name}", fn)
    fns["cli"] = pfakit.cli.main if tracer is None else _traced_cli(tracer)
    return SimpleNamespace(**fns)


def _feed(h, obj: Any) -> None:
    # Integers go in as bytes: exact values can be far past the digit limit
    # of int-to-str conversion.
    if isinstance(obj, Fraction):
        h.update(b"F")
        _feed(h, obj.numerator)
        _feed(h, obj.denominator)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        h.update(b"I" + obj.to_bytes(obj.bit_length() // 8 + 1, "big", signed=True))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d" % len(obj))
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def fingerprint(out: Any) -> str:
    """Hash of a job's output, which is built from exact values."""
    h = hashlib.sha256()
    _feed(h, out)
    return h.hexdigest()


@dataclass
class Round:
    latencies: list[float]
    fingerprints: list[str]
    failures: list[str]
    digest: str


def _check(job: Job, out: Any, ctx: dict) -> str | None:
    try:
        return job.check(out, ctx)
    except Exception as exc:  # a check that cannot read the output fails the job
        return f"check raised {type(exc).__name__}: {exc}"


def run_round(
    jobs: list[Job],
    api: SimpleNamespace,
    tracer: Tracer | None = None,
    expected: list[str] | None = None,
) -> Round:
    """Run every job once. Without ``expected`` each output goes through its
    job's check; with it, each output must match the fingerprint there."""
    ctx: dict = {}
    latencies: list[float] = []
    fingerprints: list[str] = []
    failures: list[str] = []
    for i, job in enumerate(jobs):
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = job.run(api, ctx)
            else:
                tracer.job = i
                out = tracer.call(f"job.{job.kind}", job.run, api, ctx)
        except Exception as exc:  # a job that raises is a failed job; the round goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        fp = fingerprint(out)
        fingerprints.append(fp)
        if error is None:
            if expected is None:
                error = _check(job, out, ctx)
            elif fp != expected[i]:
                error = "output differs from the first round's"
        if error is not None:
            failures.append(f"job {i} ({job.kind}): {error}")
    digest = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
    return Round(latencies, fingerprints, failures, digest)


def job_latencies(rounds: list[Round]) -> list[float]:
    """Each job's median latency over the rounds. A job's own median drops
    the rounds that a slow or fast spell of the machine hit, which a quantile
    of one round's latencies cannot."""
    return [statistics.median(r.latencies[i] for r in rounds) for i in range(len(rounds[0].latencies))]


def end_to_end(setup_s: float, rounds: list[Round], peak_rss_mb: float,
               attempted: int, failed: int) -> dict[str, float]:
    """End-to-end metrics; the timings are over each job's median latency."""
    jobs = job_latencies(rounds)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(jobs) / sum(jobs),
        "job_p50_ms": 1e3 * statistics.median(jobs),
        "job_p90_ms": 1e3 * statistics.quantiles(jobs, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1 - failed / attempted,
    }


def _span_totals(spans: list[list], first: int = 0):
    """Calls, self time and work per span name; ``spans`` is the tracer's
    list from index ``first`` on, as parents are tracer indices."""
    child = defaultdict(float)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _parent, _job, units) in enumerate(spans, start=first):
        calls[name] += 1
        self_s[name] += end - start - child[i]
        work[name] += units
    return calls, self_s, work


def layer_metrics(spans: list[list], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced round, which start at
    tracer index ``first`` (all but trace.overhead_frac, which compares
    rounds)."""
    calls, self_s, work = _span_totals(spans, first)
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, suffix = name.rpartition(".")
        if suffix == "calls":
            out[name] = calls[span]
        elif suffix == "self_s":
            out[name] = self_s[span]
        elif suffix == "out_pairs":
            out[name] = work[span]
        elif suffix in _PER_UNIT:
            scale = _PER_UNIT[suffix]
            if not work[span] or not self_s[span]:
                out[name] = 0.0
            elif scale is None:
                out[name] = work[span] / 1e6 / self_s[span]
            else:
                out[name] = scale * self_s[span] / work[span]
    out["verification.violated"] = sum(work[span] for span in VERDICT_SPANS)
    out["documents.bytes"] = work["documents.parse_document"] + work["documents.serialize_document"]
    return out
