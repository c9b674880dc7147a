"""Tests of the benchmark itself, at a tiny scale.

A tiny run must report every metric BENCHMARK.json names, with its unit; a
wrong reference value or digest must turn into failed jobs, never a pass.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNPINNED_SEED = 10**6

TINY = {
    "identities": {
        "ID_POOL": (((2, 1), dict(lower=1, theta=1, cheat=1, witness=1, instantiate=1, mc=1,
                                  probe=1, reach=1)),),
        "ID_THETA_LETTERS": 5,
        "ID_MC_SAMPLES": 50,
        "ID_FAIR_COIN": 1,
    },
    "cli": {
        "CLI_TINY": 1,
        "CLI_BIG_SIZE": (1, 1),
        "CLI_COMPILES": 1,
        "CLI_PBA": 1,
        "CLI_EVALS": 1,
        "CLI_REACHES": 1,
        "CLI_ENCODES": 1,
        "CLI_LASSOS": 2,
        "CLI_DOTS": 1,
        "CLI_SEARCHES": 1,
        "CLI_SEARCH_LENGTH": 3,
        "CLI_SWEEPS": 1,
        "CLI_CASE_STUDY": (1, 4),
        "CLI_CHAIN": 5,
    },
}


def tiny_run(monkeypatch, workload: str, trace: int = 0, timed_setup: bool = False) -> dict:
    for name, value in TINY[workload].items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUPS", 1)
    if not timed_setup:  # a fresh interpreter would build the full-size workload
        monkeypatch.setattr(run, "_setup_once", lambda args, workdir: 1.0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(UNPINNED_SEED),
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = out.getvalue().splitlines()
    assert "env" in json.loads(lines[-2])
    return json.loads(lines[-1])


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(monkeypatch, workload, trace):
    result = tiny_run(monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_setup_is_timed_in_a_fresh_interpreter(monkeypatch):
    result = tiny_run(monkeypatch, "identities", timed_setup=True)
    assert 0 < result["metrics"]["setup_s"]["value"] < 60
    assert not list((ROOT / ".bench_out").glob("work-*"))


def test_traced_run_measures_its_layers(monkeypatch):
    metrics = tiny_run(monkeypatch, "cli", trace=1)["metrics"]
    for command in ("lasso", "search", "sweep", "case-study", "simulate-build"):
        assert metrics[f"cli.{command}.self_s"]["value"] > 0
    assert metrics["documents.bytes"]["value"] > 0
    assert metrics["core.accept_prob.calls"]["value"] == 0


def test_traced_identities_count_exactly(monkeypatch):
    metrics = tiny_run(monkeypatch, "identities", trace=1)["metrics"]
    assert metrics["constructions.build_simulation.out_pairs"]["value"] == 80 * 39
    assert metrics["constructions.instantiate_simulation.calls"]["value"] == 1
    assert metrics["core.accept_prob.calls"]["value"] == 1
    assert metrics["core.accept_prob.us_per_letter"]["value"] > 0
    assert metrics["verification.violated"]["value"] == 0


def test_wrong_reference_value_fails_the_job(monkeypatch):
    right = workloads._gamblers_ruin
    monkeypatch.setattr(workloads, "_gamblers_ruin", lambda *args: right(*args) + Fraction(1, 7))
    result = tiny_run(monkeypatch, "cli")
    assert not result["correct"]
    assert result["failed"] == 1  # the chain's job, in the first round
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_digest_mismatch_fails_every_round(monkeypatch):
    monkeypatch.setattr(run, "_pinned", lambda workload, seed: "0" * 64)
    result = tiny_run(monkeypatch, "cli")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_span_self_time_excludes_children():
    # The second round's spans, at tracer indices 2 and 3.
    spans = [["job.x", 0.0, 10.0, None, 0, 0], ["core.accept_prob", 2.0, 5.0, 2, 0, 6]]
    calls, self_s, work = harness._span_totals(spans, first=2)
    assert self_s["job.x"] == 7.0 and self_s["core.accept_prob"] == 3.0
    assert harness.layer_metrics(spans, first=2)["core.accept_prob.us_per_letter"] == 0.5e6


def test_fingerprint_takes_huge_exact_values():
    huge = Fraction(3**20000, 2**20000)
    assert harness.fingerprint((huge, "x")) != harness.fingerprint((huge + 1, "x"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
