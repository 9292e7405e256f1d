"""The names and shapes of expmc that the benchmark harness in perfbench/ relies on.

perfbench/tracer.py wraps functions where the package looks them up, and
perfbench/run.py wraps ``expmc.bench.gen_truth`` to keep each truth's
``x_bar``. A rename there surfaces only when the benchmark runs; these
checks catch it with the unit tests.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import expmc.bench
import expmc.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_every_traced_name_resolves(perfbench):
    tracer, _ = perfbench
    for module, path, name in tracer.PATCHES:
        owner, attr = tracer._resolve(module, path)
        assert callable(getattr(owner, attr)), (module, path, name)


def test_workload_configs_parse_and_truths_keep_x_bar(perfbench, monkeypatch):
    _, workloads = perfbench
    kept = []
    gen_truth = expmc.bench.gen_truth

    def kept_truth(*args, **kwargs):
        truth = gen_truth(*args, **kwargs)
        kept.append(truth.x_bar)
        return truth

    monkeypatch.setattr(expmc.bench, "gen_truth", kept_truth)
    for w in workloads.WORKLOADS.values():
        cfg = expmc.bench.ExperimentConfig.from_dict(dict(w.config))
        cfg.truth(np.random.default_rng(0))
        assert isinstance(kept[-1], np.ndarray)
        assert kept[-1].shape == (cfg.m1, cfg.m2)
    assert len(kept) == len(workloads.WORKLOADS)


def test_write_manifest_returns_its_path(tmp_path):
    path = expmc.cli.write_manifest(tmp_path, "gen", {"m1": 2}, 0)
    assert path == tmp_path / "manifest.json" and path.is_file()


def test_traced_cli_run_is_counted(perfbench, tmp_path):
    """A signature change that breaks a tracer meta function fails here, not only in the benchmark."""
    tracer, _ = perfbench
    cfg = {
        "family": {"family": "gaussian", "sigma": 1.0}, "m1": 8, "m2": 8, "rank": 2,
        "n_grid": [200, 400], "replicates": 2, "n": 200, "truth": "flat", "lambda_mode": 0.1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    t = tracer.Tracer()
    t.install()
    try:
        for command in ("rate-sweep", "fit"):
            args = [command, "--config", str(cfg_path), "--seed", "0", "--out", str(tmp_path / command)]
            expmc.cli.main.main(args, prog_name="expmc", standalone_mode=False)
    finally:
        t.uninstall()
    metrics = tracer.summarize(t.spans)
    rows = len(cfg["n_grid"]) * cfg["replicates"]
    assert metrics["metrics.bound_value.calls"] == rows
    assert metrics["io.write_rows_csv.calls"] == 2
    assert metrics["io.bytes_written"] > 0
    assert metrics["estimator.fit.calls"] == rows + 1
    assert metrics["estimator.fit.iterations"] > 0
