"""Self-test of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_benchmark.py

Runs every workload once per trace mode for one pass (``--seconds 1``),
about four minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def results():
    """Last stdout line and result.json of each (workload, trace) run at seed 0."""
    out = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench(name, 0, trace)
            assert proc.returncode == 0, proc.stderr
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            full = json.loads((run.OUT / f"{name}-seed0-trace{trace}" / "result.json").read_text())
            out[name, trace] = (line, full)
    return out


def test_command_matches_spec():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(results, trace, section):
    for name in WORKLOADS:
        line, _ = results[name, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, name
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_seed_commit_outputs_pass(results):
    for (name, trace), (line, _) in results.items():
        assert line["correct"] and line["failed"] == 0, (name, trace)
        assert line["attempted"] >= 1


def test_traced_and_untraced_outputs_identical(results):
    for name in WORKLOADS:
        _, plain = results[name, 0]
        _, traced = results[name, 1]
        assert traced["per_layer"]["trace.mismatched_passes"] == 0
        assert traced["traced_pass_digests"][0] == plain["pass_digests"][0], name


def test_work_counts_repeat_from_run_to_run(results):
    _, first = results["fit_ks_g60", 1]
    proc = _bench("fit_ks_g60", 0, 1)
    assert proc.returncode == 0, proc.stderr
    second = json.loads((run.OUT / "fit_ks_g60-seed0-trace1" / "result.json").read_text())
    for key in ("linalg.svd.calls", "matops.combined_prox.cycles", "estimator.fit.iterations"):
        assert first["per_layer"][key] > 0
        assert second["per_layer"][key] == first["per_layer"][key], key


def test_no_fit_on_concentration(results):
    _, full = results["concentration_pois100", 1]
    assert full["per_layer"]["estimator.fit.calls"] == 0
    assert full["per_layer"]["matops.combined_prox.calls"] == 0


def test_second_seed_runs_end_to_end():
    proc = _bench("fit_ks_g60", 7, 0)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    full = json.loads((run.OUT / "fit_ks_g60-seed7-trace0" / "result.json").read_text())
    assert full["cli_seeds"] != WORKLOADS["fit_ks_g60"].pass_seeds(0)


def test_stubbed_bad_fit_counts_as_failed():
    sys.path.insert(0, str(run.SRC))
    import expmc.cli

    solve = expmc.cli.solve
    calls = []

    def bad_solve(problem, config=None):
        result = solve(problem, config)
        calls.append(1)
        if len(calls) == 1:
            result.converged = False
        return result

    expmc.cli.solve = bad_solve
    try:
        res = run.run_workload("fit_ks_g60", 3, 0.0, False)
    finally:
        expmc.cli.solve = solve
    assert res["failed"] == 1 and not res["correct"]
    assert res["quality"]["failed_frac"] == 1 / res["attempted"]
    assert "converged=False" in res["ops"][0]["reasons"]


def test_fails_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("fit_ks_g60", 0, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
