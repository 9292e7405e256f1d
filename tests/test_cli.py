import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import assert_no_child_left, beside_another_thread

import expmc
import expmc.bench
from expmc import ExponentialFamily, ObservationSet
from expmc.cli import main
from expmc import matops
from expmc.io import fmt_value, load_matrix_csv, load_observations_csv, save_matrix_csv, save_observations_csv


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "family": {"family": "gaussian", "sigma": 1.0},
        "m1": 8,
        "m2": 8,
        "rank": 2,
        "gamma": 1.0,
        "n_grid": [200, 400],
        "replicates": 2,
        "truth": "flat",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# Passes the config checks; the fit's start step m1 m2 / sigma^2 overflows after the draw.
START_STEP_OVERFLOW = {"family": {"family": "gaussian", "sigma": 1e-154}, "lambda_mode": 0.1}


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestGenSimulateFit:
    def test_gen_writes_truth_and_manifest(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        invoke(runner, ["gen", "--config", str(cfg), "--seed", "7", "--out", str(out)])
        truth = load_matrix_csv(out / "truth.csv")
        assert truth.shape == (8, 8)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "gen"
        assert sorted(manifest["versions"]) == ["expmc", "numpy", "python"]

    def test_manifest_records_the_blas_and_its_thread_settings(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        out = tmp_path / "out"
        invoke(runner, ["gen", "--config", str(write_cfg(tmp_path)), "--seed", "7", "--out", str(out)])
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert json.loads((out / "manifest.json").read_text())["blas"] == {
            "name": blas["name"], "version": blas["version"], "svt_eigensolver": matops.gram_eigensolver(),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2",
        }

    def test_manifest_records_the_svt_eigensolver(self, runner, tmp_path, monkeypatch):
        # Outputs may differ in their last bits between the two, so the manifest names the one that ran.
        monkeypatch.setattr(matops, "_lapack_dsyevr", lambda: None)
        out = tmp_path / "out"
        invoke(runner, ["gen", "--config", str(write_cfg(tmp_path)), "--seed", "7", "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["blas"]["svt_eigensolver"] == "eigh"

    def test_simulate_then_fit_from_files(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, n=300)
        sim_out = tmp_path / "sim"
        invoke(runner, ["simulate", "--config", str(cfg), "--seed", "3", "--out", str(sim_out)])
        obs = load_observations_csv(sim_out / "observations.csv", 8, 8)
        assert obs.n == 300

        fit_cfg = write_cfg(
            tmp_path,
            name="fit.json.cfg",
            n=300,
            lambda_mode=0.02,
            observations_path=str(sim_out / "observations.csv"),
        )
        fit_out = tmp_path / "fit"
        invoke(runner, ["fit", "--config", str(fit_cfg), "--seed", "3", "--out", str(fit_out)])
        est = load_matrix_csv(fit_out / "estimate.csv")
        assert est.shape == (8, 8)
        report = json.loads((fit_out / "fit.json").read_text())
        assert report["lambda"] == 0.02
        assert report["objective_last"] <= report["objective_first"]

    def test_fit_oracle_mode_needs_truth(self, runner, tmp_path):
        # Simulating in-process generates the truth, so an oracle penalty works.
        cfg = write_cfg(tmp_path, n=100, lambda_mode="oracle")
        sim_out = tmp_path / "sim"
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(sim_out)])
        assert (sim_out / "truth.csv").exists()

        # Observations from a file without a truth_path cannot give one.
        obs_cfg = write_cfg(tmp_path, name="obs.json", n=100, lambda_mode="oracle",
                            observations_path=str(sim_out / "observations.csv"))
        result = runner.invoke(
            main, ["fit", "--config", str(obs_cfg), "--seed", "1", "--out", str(tmp_path / "ofit")]
        )
        assert result.exit_code == 2
        assert "needs a truth_path" in result.output

    def test_fit_from_files_matches_in_process_fit(self, runner, tmp_path):
        spec = dict(family={"family": "poisson"}, m1=10, m2=10, n=600, lambda_mode="oracle")
        cfg = write_cfg(tmp_path, **spec)
        sim_out, direct_out, files_out = tmp_path / "sim", tmp_path / "direct", tmp_path / "files"
        invoke(runner, ["simulate", "--config", str(cfg), "--seed", "4", "--out", str(sim_out)])
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "4", "--out", str(direct_out)])
        files_cfg = write_cfg(
            tmp_path, name="files.json", **spec,
            observations_path=str(sim_out / "observations.csv"),
            truth_path=str(sim_out / "truth.csv"),
        )
        invoke(runner, ["fit", "--config", str(files_cfg), "--seed", "4", "--out", str(files_out)])
        for name in ("truth.csv", "observations.csv"):
            assert (direct_out / name).read_bytes() == (sim_out / name).read_bytes()
        for name in ("estimate.csv", "fit.json"):
            assert (direct_out / name).read_bytes() == (files_out / name).read_bytes()

    @pytest.mark.parametrize("family, box", [
        ({"family": "gaussian", "sigma": 1.0}, {"lo": -1.0, "hi": 1.0}),
        ({"family": "binomial", "trials": 3}, {"lo": -1.0, "hi": 1.0}),
        ({"family": "poisson"}, {"lo": -1.0, "hi": 1.0}),
        ({"family": "exponential"}, {"lo": -2.0, "hi": -0.5}),
    ], ids=["gaussian", "binomial", "poisson", "exponential"])
    def test_fit_writes_the_replicate_that_simulate_writes(self, runner, tmp_path, family, box):
        # fit's forked child stages its truth and observation CSVs while the
        # parent fits; both commands draw the replicate from the same stream.
        cfg = write_cfg(tmp_path, family=family, box=box, gamma=-box["lo"], truth="factor", n=300, lambda_mode=0.1)
        sim_out, fit_out = tmp_path / "sim", tmp_path / "fit"
        invoke(runner, ["simulate", "--config", str(cfg), "--seed", "5", "--out", str(sim_out)])
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "5", "--out", str(fit_out)])
        for name in ("truth.csv", "observations.csv"):
            assert (fit_out / name).read_bytes() == (sim_out / name).read_bytes()

    def test_fit_that_raises_leaves_no_out_and_no_staging(self, runner, tmp_path, monkeypatch, forks):
        staging_root = tmp_path / "tmp"
        staging_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
        record, save_replicate, solve = tmp_path / "staged.txt", expmc.cli._save_replicate, expmc.cli.solve

        def recording(cfg, out, truth, probe):
            # Recorded in a file, renamed into place whole: the writer runs in a forked child.
            (tmp_path / "staged.part").write_text(f"{os.getpid()} {out}")
            os.replace(tmp_path / "staged.part", record)
            save_replicate(cfg, out, truth, probe)

        def after_the_writer_starts(*args):
            deadline = time.monotonic() + 30.0
            while not record.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return solve(*args)

        monkeypatch.setattr(expmc.cli, "_save_replicate", recording)
        monkeypatch.setattr(expmc.cli, "solve", after_the_writer_starts)
        cfg = write_cfg(tmp_path, n=100, **START_STEP_OVERFLOW)
        out = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert isinstance(result.exception, ValueError) and "start step" in str(result.exception)
        pid, staged = record.read_text().split(" ", 1)
        assert Path(staged).parent == staging_root  # the writer wrote into a staging directory
        assert (int(pid) != os.getpid()) == bool(forks) and len(forks) == (1 if expmc.bench._FORK else 0)
        assert not out.exists() and list(staging_root.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.skipif(not expmc.bench._FORK, reason="the writer runs in-process, before the fit")
    def test_fit_that_raises_kills_the_writer(self, runner, tmp_path, monkeypatch):
        def slow_writer(path, obs):
            time.sleep(60.0)

        staging_root = tmp_path / "tmp"
        staging_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
        monkeypatch.setattr(expmc.cli, "save_observations_csv", slow_writer)
        cfg = write_cfg(tmp_path, n=100, **START_STEP_OVERFLOW)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert isinstance(result.exception, ValueError) and "start step" in str(result.exception)
        assert time.perf_counter() - t0 < 30.0  # the writer was killed, not waited out
        assert not out.exists() and list(staging_root.iterdir()) == []
        assert_no_child_left()

    def test_writer_error_on_the_worker_surfaces_and_leaves_no_out(self, runner, tmp_path, monkeypatch):
        def failing_writer(path, obs):
            raise OSError(f"cannot write {Path(path).name}")

        staging_root = tmp_path / "tmp"
        staging_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(staging_root))
        monkeypatch.setattr(expmc.cli, "save_observations_csv", failing_writer)
        cfg = write_cfg(tmp_path, n=100, lambda_mode=0.1)
        out = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert isinstance(result.exception, OSError) and str(result.exception) == "cannot write observations.csv"
        assert not out.exists() and list(staging_root.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("family, box", [
        ({"family": "gaussian", "sigma": 1.0}, {"lo": -1.0, "hi": 1.0}),
        ({"family": "poisson"}, {"lo": -1.0, "hi": 1.0}),
    ], ids=["gaussian", "poisson"])
    def test_fit_outputs_identical_with_the_fork_off(self, runner, tmp_path, monkeypatch, forks, family, box):
        cfg = write_cfg(tmp_path, family=family, box=box, gamma=1.0, n=300, lambda_mode="oracle")
        one_fork = [1] if expmc.bench._FORK else []
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "6", "--out", str(tmp_path / "forked")])
        assert forks == one_fork
        assert_no_child_left()
        monkeypatch.setattr(expmc.bench, "_FORK", False)
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "6", "--out", str(tmp_path / "in_process")])
        assert forks == one_fork
        names = ("estimate.csv", "fit.json", "observations.csv", "truth.csv")
        for name in names:
            assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / "forked").iterdir()) == sorted(names + ("manifest.json",))

    def test_fit_on_an_observations_file_forks_nothing(self, runner, tmp_path, forks):
        sim_out = tmp_path / "sim"
        invoke(runner, ["simulate", "--config", str(write_cfg(tmp_path, n=300)), "--seed", "3", "--out", str(sim_out)])
        cfg = write_cfg(tmp_path, name="fit.json", n=300, lambda_mode=0.02,
                        observations_path=str(sim_out / "observations.csv"))
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "fit")])
        assert forks == []

    def test_no_fork_while_another_thread_runs(self, runner, tmp_path, forks):
        cfg = write_cfg(tmp_path, n=300, lambda_mode=0.1)
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "alone")])
        with beside_another_thread():
            invoke(runner, ["fit", "--config", str(cfg), "--seed", "8", "--out", str(tmp_path / "beside")])
        assert len(forks) == (1 if expmc.bench._FORK else 0)
        for name in ("estimate.csv", "fit.json", "observations.csv", "truth.csv"):
            assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "beside" / name).read_bytes()

    @pytest.mark.parametrize("bad", [
        {"mode": "known-sampling"},
        {"family": {"family": "exponential"}},
        {"n": 0},
        {"n_grid": [-3, 100]},
        {"lambda_mode": "theorem_likelihood", "solver": {"c_gamma": -1.0}},
        {"solver": {"tol": -1.0}},
        {"solver": {"max_iters": 0}},
        {"family": {"family": "binomial", "trials": 200_001}},
        {"family": {"family": "gaussian", "sigma": 1e200}},
        {"family": {"family": "exponential"}, "box": {"lo": -2.0, "hi": -1e-170}, "gamma": 2.0},
        {"lambda_mode": -0.5},
        # m1 * m2 * (2 * radius)^2 overflows, so the config is rejected.
        {"family": {"family": "exponential"}, "box": {"lo": -1e154, "hi": -5e153}, "gamma": 1e154,
         "truth": "factor", "lambda_mode": 0.1},
        START_STEP_OVERFLOW,
    ])
    def test_bad_config_rejected_before_any_output(self, runner, tmp_path, bad):
        cfg = write_cfg(tmp_path, **{"n": 100, **bad})
        out = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert isinstance(result.exception, ValueError)
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides, error", [
        ("lower-bound", {"alpha": 0.2}, "alpha must lie in (0, 1/8)"),
        ("lower-bound", {"box": {"lo": 0.5, "hi": 1.0}}, "excludes a packing entry"),
        ("oracle-check", {"mode": "likelihood"}, "oracle_check requires mode == known_sampling"),
        ("fit", {"lambda_mode": "oracle", "observations_path": "obs.csv"}, "needs a truth_path"),
        ("lower-bound", {"m1": 1, "rank": 1}, "dimensions must be >= 2"),
    ])
    def test_failure_before_the_first_write_creates_no_out(
        self, runner, tmp_path, monkeypatch, command, overrides, error
    ):
        monkeypatch.chdir(tmp_path)
        save_observations_csv("obs.csv", ObservationSet(m1=8, m2=8, rows=[0, 1], cols=[0, 1], ys=[0.5, -0.5]))
        cfg = write_cfg(tmp_path, n=100, **overrides)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(cfg), "--seed", "1", "--out", str(out)])
        if command == "fit":
            assert result.exit_code == 2 and error in result.output
        else:
            assert isinstance(result.exception, ValueError) and error in str(result.exception)
        assert not out.exists()

    @pytest.mark.parametrize("truth_shape, m", [((5, 5), 8), ((5, 5), 4), ((8, 7), 8)])
    def test_truth_of_another_shape_rejected(self, runner, tmp_path, truth_shape, m):
        save_matrix_csv(tmp_path / "truth.csv", np.full(truth_shape, 0.5))
        cfg = write_cfg(tmp_path, m1=m, m2=m, n=100, lambda_mode=0.1, truth_path=str(tmp_path / "truth.csv"))
        for command in ("simulate", "fit"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(cfg), "--seed", "1", "--out", str(out)])
            assert isinstance(result.exception, ValueError)
            assert f"has shape {truth_shape}, expected ({m}, {m})" in str(result.exception)
            assert not out.exists()

    @pytest.mark.parametrize("family, box, bad, extreme", [
        ({"family": "poisson"}, {"lo": -1.0, "hi": 1.0}, 50.0, "50.0"),
        ({"family": "gaussian", "sigma": 1.0}, {"lo": -1.0, "hi": 1.0}, -5.0, "-5.0"),
        ({"family": "gaussian"}, {"lo": -1.0, "hi": 1.0}, math.nan, "nan"),
        ({"family": "exponential"}, {"lo": -2.0, "hi": -0.5}, 0.5, "0.5"),
    ], ids=["poisson-above", "gaussian-below", "gaussian-nan", "exponential-positive"])
    def test_truth_outside_the_box_rejected_before_any_draw(self, runner, tmp_path, family, box, bad, extreme):
        # A Poisson rate e^50 once failed inside numpy's sampler, and a Gaussian
        # -5 was fitted without complaint. The box lies strictly inside the
        # domain, so its check also refuses a NaN and an entry outside the domain.
        truth = np.full((8, 8), 0.5 * (box["lo"] + box["hi"]))
        truth[3, 5] = bad
        save_matrix_csv(tmp_path / "truth.csv", truth)
        cfg = write_cfg(tmp_path, family=family, box=box, gamma=-box["lo"], n=100, lambda_mode=0.1,
                        truth_path=str(tmp_path / "truth.csv"))
        for command in ("simulate", "fit"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(cfg), "--seed", "1", "--out", str(out)])
            assert isinstance(result.exception, ValueError)
            assert str(result.exception) == (
                f"truth {tmp_path / 'truth.csv'}: entry {extreme} outside the box [{box['lo']}, {box['hi']}]"
            )
            assert not out.exists()

    def test_truth_on_the_box_edges_accepted(self, runner, tmp_path):
        truth = np.full((8, 8), 0.25)
        truth[0, 0], truth[7, 7] = -1.0, 1.0
        save_matrix_csv(tmp_path / "truth.csv", truth)
        cfg = write_cfg(tmp_path, family={"family": "poisson"}, box={"lo": -1.0, "hi": 1.0}, n=100,
                        lambda_mode=0.1, truth_path=str(tmp_path / "truth.csv"))
        invoke(runner, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "out")])
        assert load_matrix_csv(tmp_path / "out" / "estimate.csv").shape == (8, 8)

    @pytest.mark.parametrize("mode", ["likelihood", "known_sampling"])
    def test_sampling_table_of_another_shape_rejected(self, runner, tmp_path, mode):
        save_matrix_csv(tmp_path / "pi.csv", np.full((5, 5), 1 / 25))
        cfg = write_cfg(tmp_path, n=100, mode=mode, lambda_mode=0.1,
                        sampling={"sampling": "table", "path": str(tmp_path / "pi.csv")})
        out = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert isinstance(result.exception, ValueError)
        assert "has shape (5, 5), expected (8, 8)" in str(result.exception)
        assert not out.exists()

    def test_fit_with_truth_path_and_oracle(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        gen_out = tmp_path / "gen"
        invoke(runner, ["gen", "--config", str(cfg), "--seed", "9", "--out", str(gen_out)])
        fit_cfg = write_cfg(
            tmp_path, name="cfg2.json", n=250, lambda_mode="oracle",
            truth_path=str(gen_out / "truth.csv"),
        )
        fit_out = tmp_path / "fit2"
        invoke(runner, ["fit", "--config", str(fit_cfg), "--seed", "9", "--out", str(fit_out)])
        assert (fit_out / "estimate.csv").exists()


class TestHarnessCommands:
    def test_rate_sweep_deterministic_bytes(self, runner, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        res = invoke(runner, ["rate-sweep", "--config", str(cfg), "--seed", "5", "--out", str(out_a)])
        assert "slope=" in res.output
        invoke(runner, ["rate-sweep", "--config", str(cfg), "--seed", "5", "--out", str(out_b)])
        assert (out_a / "rate_sweep.csv").read_bytes() == (out_b / "rate_sweep.csv").read_bytes()
        header = (out_a / "rate_sweep.csv").read_text().splitlines()[0]
        assert header.startswith("config_hash,family,mode,")

    def test_oracle_check_command(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, mode="known_sampling", n_grid=[250], replicates=2)
        out = tmp_path / "oc"
        res = invoke(runner, ["oracle-check", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert "all_passed=True" in res.output

    def test_concentration_command(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, n_grid=[300], reps=20)
        out = tmp_path / "conc"
        invoke(runner, ["concentration", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        lines = (out / "concentration.csv").read_text().splitlines()
        assert lines[0].startswith("config_hash,metric,")
        assert len(lines) == 1 + 1 + 20 + 1  # header + rademacher + reps + exceedance

    def test_concentration_reads_n_before_the_grid(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, n=300, n_grid=[200, 400], reps=5)
        out = tmp_path / "conc"
        invoke(runner, ["concentration", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        lines = (out / "concentration.csv").read_text().splitlines()
        column = lines[0].split(",").index("n")
        assert [line.split(",")[column] for line in lines[1:]] == ["300"] * (1 + 5 + 1)

    def test_lower_bound_command(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, n_grid=[500], replicates=1)
        out = tmp_path / "lb"
        res = invoke(runner, ["lower-bound", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert "conditions_passed=True" in res.output
        assert (out / "lower_bound.csv").exists()

    def test_table_sampling_config(self, runner, tmp_path):
        from expmc.io import save_matrix_csv

        rng = np.random.default_rng(0)
        pi = rng.random((8, 8)) + 0.5
        pi /= pi.sum()
        save_matrix_csv(tmp_path / "pi.csv", pi)
        cfg = write_cfg(tmp_path, sampling={"sampling": "table", "path": str(tmp_path / "pi.csv")})
        out = tmp_path / "tbl"
        invoke(runner, ["rate-sweep", "--config", str(cfg), "--seed", "4", "--out", str(out)])
        assert (out / "rate_sweep.csv").exists()


# Every command with the main output whose path starts its result line.
MAIN_OUTPUT = {
    "gen": "truth.csv",
    "simulate": "observations.csv",
    "fit": "estimate.csv",
    "rate-sweep": "rate_sweep.csv",
    "oracle-check": "oracle_check.csv",
    "concentration": "concentration.csv",
    "lower-bound": "lower_bound_summary.csv",
}


# A config every command runs on.
EVERY_COMMAND = dict(mode="known_sampling", n=250, n_grid=[250], replicates=1, alpha=0.1, reps=5)


def test_every_command_is_registered():
    assert sorted(main.commands) == sorted(MAIN_OUTPUT)


@pytest.mark.parametrize("command", sorted(MAIN_OUTPUT))
def test_command_writes_its_manifest_and_prints_its_main_output(runner, tmp_path, command):
    cfg = write_cfg(tmp_path, **EVERY_COMMAND)
    out = tmp_path / "out"
    result = invoke(runner, [command, "--config", str(cfg), "--seed", "3", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command and manifest["seed"] == 3
    assert (out / MAIN_OUTPUT[command]).is_file()
    line, path = result.output.rstrip("\n"), str(out / MAIN_OUTPUT[command])
    assert line == path or line.startswith(path + " ")


@pytest.mark.parametrize("command", sorted(MAIN_OUTPUT))
def test_box_constants_computed_once_before_any_output(runner, tmp_path, monkeypatch, command):
    # gen and simulate never compute them; every other command computes them
    # once, before its first file creates --out, though its prescribed
    # penalty levels read them again.
    out = tmp_path / "out"
    out_existed, interval_constants = [], ExponentialFamily.interval_constants

    def recording(family, box):
        out_existed.append(out.exists())
        return interval_constants(family, box)

    monkeypatch.setattr(ExponentialFamily, "interval_constants", recording)
    cfg = write_cfg(tmp_path, **EVERY_COMMAND, lambda_mode="theorem_known_sampling")
    invoke(runner, [command, "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert out_existed == ([] if command in ("gen", "simulate") else [False])


# The result tables by file, with the full header line each must have.
RESULT_HEADERS = {
    "rate_sweep.csv": "config_hash,family,mode,m1,m2,rank,gamma,n,replicate,lambda_mode,lambda,"
    "converged,iterations,n_condition_ok,frob_risk,kl_integrated,kl_empirical,rank_bar,predictor,"
    "bound_likelihood_risk,bound_likelihood_risk_main,bound_likelihood_risk_edge,"
    "bound_likelihood_risk_subexp,bound_known_sampling_risk,bound_known_sampling_risk_uniform,"
    "bound_minimax_lower",
    "rate_sweep_slope.csv": "config_hash,slope,intercept,n_points",
    "oracle_check.csv": "config_hash,family,m1,m2,rank,n,replicate,lambda,converged,iterations,"
    "required_lambda,applicable,lhs,margin_flat,margin_rank,passed_flat,passed_rank,n_candidates",
    "concentration.csv": "config_hash,metric,replicate,n,value,reference_value,satisfied,precondition_ok",
    "lower_bound.csv": "config_hash,n,member,lambda,converged,iterations,frob_risk,rank_hat",
    "lower_bound_summary.csv": "config_hash,n,kappa,cardinality,cardinality_target,max_frob_risk,"
    "n_not_converged,lower_bound_value,delta_value,separation_ok,kl_ok,membership_ok,conditions_passed",
}


@pytest.fixture(scope="module")
def result_tables(tmp_path_factory):
    """One small run of each harness command, all writing into one directory."""
    tmp = tmp_path_factory.mktemp("tables")
    out = tmp / "out"
    runs = [
        ("rate-sweep", {}),
        ("oracle-check", {"mode": "known_sampling", "n_grid": [250], "replicates": 1}),
        ("concentration", {"n_grid": [300], "reps": 5}),
        ("lower-bound", {"n_grid": [500], "replicates": 1}),
    ]
    for command, overrides in runs:
        cfg = write_cfg(tmp, name=f"{command}.json", **overrides)
        invoke(CliRunner(), [command, "--config", str(cfg), "--seed", "3", "--out", str(out)])
    return out


@pytest.mark.parametrize("name", sorted(RESULT_HEADERS))
def test_result_table_header(result_tables, name):
    lines = (result_tables / name).read_text().splitlines()
    assert lines[0] == RESULT_HEADERS[name]
    assert len(lines) > 1
    assert all(line.count(",") == lines[0].count(",") for line in lines)


@pytest.mark.parametrize("command, table, overrides", [
    ("rate-sweep", "rate_sweep.csv", {}),
    ("oracle-check", "oracle_check.csv", {"mode": "known_sampling", "n_grid": [250]}),
    ("lower-bound", "lower_bound.csv", {"n_grid": [500]}),
    ("fit", "fit.json", {"n": 300}),
])
def test_each_fit_writes_its_own_fit_columns(tmp_path, monkeypatch, command, table, overrides):
    # Each row of a fitting table, and fit.json, carries fit_columns of the fit made for it.
    owner, name = (expmc.cli, "solve") if command == "fit" else (expmc.bench, "fit")
    solve, fits = getattr(owner, name), []

    def recording(*args, **kwargs):
        fits.append(solve(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(owner, name, recording)
    cfg = write_cfg(tmp_path, **overrides)
    invoke(CliRunner(), [command, "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "out")])
    text = (tmp_path / "out" / table).read_text()
    if command == "fit":
        (result,) = fits
        columns = expmc.bench.fit_columns(result)
        report = json.loads(text)
        assert {key: report[key] for key in columns} == columns
        return
    header, *lines = (line.split(",") for line in text.splitlines())
    assert len(lines) == len(fits) > 1
    start = header.index("lambda")
    for line, result in zip(lines, fits):
        columns = expmc.bench.fit_columns(result)
        assert header[start:start + len(columns)] == list(columns)
        assert line[start:start + len(columns)] == [fmt_value(v) for v in columns.values()]


# A fresh interpreter imports the package and CLI and fits an 8x8 table of each
# family, then prints the scipy modules it loaded. argv: output dir, configs as JSON.
SCIPY_FREE_FIT = """
import json, sys
from pathlib import Path
from click.testing import CliRunner
import expmc, expmc.cli
out = Path(sys.argv[1])
for name, cfg in json.loads(sys.argv[2]).items():
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg))
    result = CliRunner().invoke(expmc.cli.main, ["fit", "--config", str(path), "--seed", "1", "--out", str(out / name)])
    assert result.exit_code == 0, (name, result.output)
    assert (out / name / "fit.json").exists(), name
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_importing_the_cli_loads_no_process_pool():
    # Every fork (the rate sweep, fit and the concentration check) is a bare os.fork:
    # multiprocessing's imports alone add about 1.1 MB of RSS.
    code = "import sys, expmc.cli; print(sorted(m for m in sys.modules if m.startswith(" \
        "('multiprocessing', 'concurrent.futures.process'))))"
    src = str(Path(expmc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fits_of_every_family_import_no_scipy(tmp_path):
    base = {"m1": 8, "m2": 8, "rank": 2, "gamma": 1.0, "n": 200, "truth": "flat"}
    configs = {
        "gaussian": {**base, "family": {"family": "gaussian", "sigma": 1.0}},
        "binomial": {**base, "family": {"family": "binomial", "trials": 1}},
        "poisson": {**base, "family": {"family": "poisson"}},
        "exponential": {
            **base, "family": {"family": "exponential"}, "box": {"lo": -2.0, "hi": -0.5}, "gamma": 2.0,
            "truth": "factor",
        },
    }
    src = str(Path(expmc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_FIT, str(tmp_path), json.dumps(configs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
