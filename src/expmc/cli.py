"""Command-line harness.

Every command reads a JSON experiment config, a seed and an output
directory, writes CSV artifacts plus a manifest, and prints the paths it
produced. See the README for the config schema. The first file written
creates the output directory, so a command that fails before it leaves none.
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import bench
from .estimator import fit as solve
from .families import DomainError
from .io import (
    load_matrix_csv,
    load_observations_csv,
    save_matrix_csv,
    save_observations_csv,
    write_manifest,
)


def _read_config(config_path) -> bench.ExperimentConfig:
    return bench.ExperimentConfig.from_dict(json.loads(Path(config_path).read_text()))


def _load_truth(cfg: bench.ExperimentConfig) -> bench.GroundTruth | None:
    """The truth at the config's ``truth_path``, or None when it has none; it must be
    ``m1 x m2`` with every entry inside the model's open domain (so finite)."""
    if cfg.truth_path is None:
        return None
    x_bar = load_matrix_csv(cfg.truth_path)
    if x_bar.shape != (cfg.m1, cfg.m2):
        raise ValueError(f"truth {cfg.truth_path} has shape {x_bar.shape}, expected {(cfg.m1, cfg.m2)}")
    try:
        cfg.family.mean(x_bar)  # a DomainError unless every entry is inside the domain
    except DomainError as exc:
        raise ValueError(f"truth {cfg.truth_path}: {exc}") from None
    return bench.GroundTruth(x_bar=x_bar)


def _simulate_and_save(cfg: bench.ExperimentConfig, scheme, rng, out: Path):
    """Draw ``n`` observations at the loaded truth (or at a new one, saved as
    truth.csv) and save them as observations.csv."""
    truth = _load_truth(cfg)
    if truth is None:
        truth = cfg.truth(rng)
        save_matrix_csv(out / "truth.csv", truth.x_bar)
    obs = bench.simulate(truth, cfg.family, scheme, cfg.n_single, rng, noiseless=cfg.noiseless)
    save_observations_csv(out / "observations.csv", obs)
    return truth, obs


_shared = [
    click.option("--config", "config_path", required=True, type=click.Path(exists=True)),
    click.option("--seed", required=True, type=int),
    click.option("--out", required=True, type=click.Path(path_type=Path)),
]


def shared_options(f):
    for opt in reversed(_shared):
        f = opt(f)
    return f


@click.group()
def main():
    """Low-rank matrix completion under exponential-family noise."""


@main.command()
@shared_options
def gen(config_path, seed, out):
    """Generate a ground-truth matrix and write it as truth.csv."""
    cfg = _read_config(config_path)
    save_matrix_csv(out / "truth.csv", cfg.truth(np.random.default_rng([seed, 0])).x_bar)
    write_manifest(out, "gen", cfg.raw, seed)
    click.echo(str(out / "truth.csv"))


@main.command()
@shared_options
def simulate(config_path, seed, out):
    """Draw observations from a truth matrix (generated unless truth_path is set)."""
    cfg = _read_config(config_path)
    _simulate_and_save(cfg, cfg.scheme(), np.random.default_rng([seed, 0]), out)
    write_manifest(out, "simulate", cfg.raw, seed)
    click.echo(str(out / "observations.csv"))


@main.command("fit")
@shared_options
def fit_cmd(config_path, seed, out):
    """Fit the penalized estimator on observations (observations_path or simulated)."""
    cfg = _read_config(config_path)
    rng = np.random.default_rng([seed, 0])
    scheme = cfg.scheme()
    consts = cfg.family.interval_constants(cfg.box)
    if cfg.observations_path is not None:
        truth = _load_truth(cfg)
        obs = load_observations_csv(cfg.observations_path, cfg.m1, cfg.m2)
    else:
        truth, obs = _simulate_and_save(cfg, scheme, rng, out)

    if cfg.lambda_mode == "oracle" and truth is None:
        raise click.UsageError("lambda_mode 'oracle' needs a truth_path")
    probe = cfg.problem(obs, scheme)
    lam = bench.resolve_lambda(cfg, consts, probe, truth.x_bar if truth else None)
    result = solve(probe.with_lambda(lam), cfg.solver)
    save_matrix_csv(out / "estimate.csv", result.x_hat)
    report = {
        "converged": result.converged,
        "iterations": result.iterations,
        "lambda": result.lambda_used,
        "prox_residual": result.prox_residual,
        "objective_first": result.objective_trace[0],
        "objective_last": result.objective_trace[-1],
    }
    (out / "fit.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    write_manifest(out, "fit", cfg.raw, seed)
    click.echo(str(out / "estimate.csv"))


@main.command("rate-sweep")
@shared_options
def rate_sweep_cmd(config_path, seed, out):
    """Run the risk-versus-rate sweep and write rate_sweep.csv."""
    cfg = _read_config(config_path)
    result = bench.rate_sweep(cfg, seed, out_dir=out)
    write_manifest(out, "rate-sweep", cfg.raw, seed)
    click.echo(f"{out / 'rate_sweep.csv'} slope={result.slope!r}")


@main.command("oracle-check")
@shared_options
def oracle_check_cmd(config_path, seed, out):
    """Run oracle-inequality checks and write oracle_check.csv."""
    cfg = _read_config(config_path)
    result = bench.oracle_check(cfg, seed, out_dir=out)
    write_manifest(out, "oracle-check", cfg.raw, seed)
    click.echo(f"{out / 'oracle_check.csv'} all_passed={result.all_passed}")


@main.command("concentration")
@shared_options
def concentration_cmd(config_path, seed, out):
    """Run concentration diagnostics and write concentration.csv."""
    cfg = _read_config(config_path)
    result = bench.concentration_check(cfg, seed, out_dir=out)
    write_manifest(out, "concentration", cfg.raw, seed)
    click.echo(
        f"{out / 'concentration.csv'} rademacher={result.rademacher_estimate!r} "
        f"bound={result.rademacher_bound!r}"
    )


@main.command("lower-bound")
@shared_options
def lower_bound_cmd(config_path, seed, out):
    """Build/verify a packing, fit its members, write lower_bound.csv."""
    cfg = _read_config(config_path)
    result = bench.lowerbound_run(cfg, seed, out_dir=out)
    write_manifest(out, "lower-bound", cfg.raw, seed)
    passed = all(row["conditions_passed"] for row in result.summary_rows)
    click.echo(f"{out / 'lower_bound_summary.csv'} conditions_passed={passed}")


if __name__ == "__main__":
    main()
