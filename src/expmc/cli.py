"""Command-line harness.

One runner serves every command: it reads the JSON experiment config, the
seed and the output directory, and calls the command's body, which writes the
command's CSV artifacts and returns its result line. The runner then writes
the manifest, after those outputs, and prints the line, which starts with the
path of the command's main output. See the README for the config schema. The
first file written creates the output directory, so a command that fails
before it leaves none. ``fit`` writes nothing into the output directory until
its fit has returned: while it fits, a forked child writes a drawn replicate's
truth and observation CSVs into a temporary staging directory, from which they
are copied once the fit has returned (in-process before the fit where no child
can be forked; see ``bench._beside_child``). A fit or a writer that raises
leaves neither the output directory nor the staging directory behind, and no
child process.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import click
import numpy as np

from . import bench
from .estimator import fit as solve
from .io import (
    load_matrix_csv,
    load_observations_csv,
    save_matrix_csv,
    save_observations_csv,
    write_manifest,
)


def _load_truth(cfg: bench.ExperimentConfig) -> bench.GroundTruth | None:
    """The truth at the config's ``truth_path``, or None when it has none; it must be
    ``m1 x m2`` with every entry inside the config's box, the set the estimator
    searches. The config's box lies strictly inside the model's open domain, so
    that check also keeps out NaNs, infinities and entries outside the domain."""
    if cfg.truth_path is None:
        return None
    x_bar = load_matrix_csv(cfg.truth_path)
    if x_bar.shape != (cfg.m1, cfg.m2):
        raise ValueError(f"truth {cfg.truth_path} has shape {x_bar.shape}, expected {(cfg.m1, cfg.m2)}")
    box, lo, hi = cfg.box, float(x_bar.min()), float(x_bar.max())
    if not (box.lo <= lo and hi <= box.hi):  # a NaN entry makes lo NaN, which fails
        raise ValueError(
            f"truth {cfg.truth_path}: entry {hi if box.lo <= lo else lo!r} outside the box [{box.lo}, {box.hi}]"
        )
    return bench.GroundTruth(x_bar=x_bar)


def _replicate(cfg: bench.ExperimentConfig, seed: int):
    """The truth (loaded from ``truth_path``, else drawn) and the problem on
    ``n`` observations drawn at it, at penalty level zero."""
    return cfg.replicate(cfg.n_single, np.random.default_rng([seed, 0]), _load_truth(cfg))


def _save_replicate(cfg: bench.ExperimentConfig, out: Path, truth, probe) -> None:
    """Save a drawn truth as truth.csv (a loaded one is not saved) and the observations as observations.csv."""
    if cfg.truth_path is None:
        save_matrix_csv(out / "truth.csv", truth.x_bar)
    save_observations_csv(out / "observations.csv", probe.obs)


@click.group()
def main():
    """Low-rank matrix completion under exponential-family noise."""


def _command(name: str):
    """Register ``body(cfg, seed, out)`` as the subcommand ``name``, with the
    body's docstring as its help. The runner parses the config, calls the body,
    then writes the manifest and prints the line the body returned."""

    def register(body):
        @main.command(name, help=body.__doc__)
        @click.option("--config", "config_path", required=True, type=click.Path(exists=True))
        @click.option("--seed", required=True, type=int)
        @click.option("--out", required=True, type=click.Path(path_type=Path))
        def run(config_path, seed, out):
            cfg = bench.ExperimentConfig.from_dict(json.loads(Path(config_path).read_text()))
            line = body(cfg, seed, out)
            write_manifest(out, name, cfg.raw, seed)
            click.echo(line)

        return body

    return register


@_command("gen")
def gen(cfg, seed, out):
    """Generate a ground-truth matrix and write it as truth.csv."""
    save_matrix_csv(out / "truth.csv", cfg.truth(np.random.default_rng([seed, 0])).x_bar)
    return str(out / "truth.csv")


@_command("simulate")
def simulate(cfg, seed, out):
    """Draw observations from a truth matrix (generated unless truth_path is set)."""
    _save_replicate(cfg, out, *_replicate(cfg, seed))
    return str(out / "observations.csv")


def _penalized_fit(cfg: bench.ExperimentConfig, truth, probe):
    """The fit of ``probe`` at the config's penalty level."""
    lam = bench.resolve_lambda(cfg, probe, truth.x_bar if truth else None)
    return solve(probe.with_lambda(lam), cfg.solver)


@_command("fit")
def fit_cmd(cfg, seed, out):
    """Fit the penalized estimator on observations (observations_path or simulated).

    A drawn replicate's truth.csv and observations.csv are written by a
    forked child into a temporary staging directory while the fit runs, and
    copied into --out once the fit has returned."""
    cfg.constants  # computed before any draw or output, whatever the penalty mode
    if cfg.observations_path is None:
        truth, probe = _replicate(cfg, seed)
        # The writer's child is reaped before the staging directory is removed.
        with tempfile.TemporaryDirectory() as staging:
            _, result, _ = bench._beside_child(
                lambda: _save_replicate(cfg, Path(staging), truth, probe),
                lambda: _penalized_fit(cfg, truth, probe),
            )
            out.mkdir(parents=True, exist_ok=True)
            for staged in Path(staging).iterdir():
                shutil.copyfile(staged, out / staged.name)
    else:
        truth, obs = _load_truth(cfg), load_observations_csv(cfg.observations_path, cfg.m1, cfg.m2)
        if cfg.lambda_mode == "oracle" and truth is None:
            raise click.UsageError("lambda_mode 'oracle' needs a truth_path")
        result = _penalized_fit(cfg, truth, cfg.problem(obs))
    save_matrix_csv(out / "estimate.csv", result.x_hat)
    report = {
        **bench.fit_columns(result),
        "prox_residual": result.prox_residual,
        "objective_first": result.objective_trace[0],
        "objective_last": result.objective_trace[-1],
    }
    (out / "fit.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return str(out / "estimate.csv")


@_command("rate-sweep")
def rate_sweep_cmd(cfg, seed, out):
    """Run the risk-versus-rate sweep and write rate_sweep.csv."""
    result = bench.rate_sweep(cfg, seed, out_dir=out)
    return f"{out / 'rate_sweep.csv'} slope={result.slope!r}"


@_command("oracle-check")
def oracle_check_cmd(cfg, seed, out):
    """Run oracle-inequality checks and write oracle_check.csv."""
    result = bench.oracle_check(cfg, seed, out_dir=out)
    return f"{out / 'oracle_check.csv'} all_passed={result.all_passed}"


@_command("concentration")
def concentration_cmd(cfg, seed, out):
    """Run concentration diagnostics and write concentration.csv."""
    result = bench.concentration_check(cfg, seed, out_dir=out)
    return (
        f"{out / 'concentration.csv'} rademacher={result.rademacher_estimate!r} "
        f"bound={result.rademacher_bound!r}"
    )


@_command("lower-bound")
def lower_bound_cmd(cfg, seed, out):
    """Build/verify a packing, fit its members, write lower_bound.csv."""
    result = bench.lowerbound_run(cfg, seed, out_dir=out)
    passed = all(row["conditions_passed"] for row in result.summary_rows)
    return f"{out / 'lower_bound_summary.csv'} conditions_passed={passed}"


if __name__ == "__main__":
    main()
