"""Output checks. An op that fails any check counts in ``failed``.

The objective is recomputed here from the op's own outputs with plain
numpy, independently of the expmc code that produced them:
``(1/n) sum_i [G(x_i) - y_i x_i]`` over the draws in likelihood mode,
``sum_ij pi_ij G(x_ij) - (1/n) sum_i y_i x_i`` in known-sampling mode
(uniform ``pi``), plus ``lambda`` times the nuclear norm. ``G`` is the
family's log-partition function with the base-measure constant dropped.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# |recomputed - reported| <= OBJ_AGREE_RTOL * max(1, |reported|): the same
# arithmetic in another summation order.
OBJ_AGREE_RTOL = 1e-9
# An op fails if its objective exceeds the seed-commit reference by more
# than OBJ_REF_RTOL * max(1, |reference|). Solvers stop at relative change
# 1e-9, so a correct solver change stays far inside this.
OBJ_REF_RTOL = 1e-6


def log_partition(family: dict, x: np.ndarray) -> np.ndarray:
    name = family["family"]
    if name == "gaussian":
        return 0.5 * float(family.get("sigma", 1.0)) ** 2 * x * x
    if name == "binomial":
        return int(family.get("trials", 1)) * np.logaddexp(0.0, x)
    raise ValueError(f"no log-partition for family {name!r}")


def cell_sums(m1: int, m2: int, rows, cols, ys) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-cell observation counts and value sums, the sufficient statistics of the data term."""
    flat = np.asarray(rows, dtype=np.int64) * m2 + np.asarray(cols, dtype=np.int64)
    counts = np.bincount(flat, minlength=m1 * m2).reshape(m1, m2).astype(float)
    y_sum = np.bincount(flat, weights=ys, minlength=m1 * m2).reshape(m1, m2)
    return counts, y_sum, len(ys)


def objective(cfg: dict, lam: float, x: np.ndarray, counts, y_sum, n: int) -> float:
    g = log_partition(cfg["family"], x)
    if cfg.get("mode", "likelihood") == "likelihood":
        data = float((counts * g - y_sum * x).sum() / n)
    else:
        data = float(g.sum() / x.size) - float((y_sum * x).sum() / n)
    return data + lam * float(np.linalg.svd(x, compute_uv=False).sum())


def check_fit(cfg: dict, x_hat, lam, reported_obj, converged, sums, reference) -> tuple[list[str], float]:
    """Reasons a fit fails (empty when it passes) and its recomputed objective."""
    lo, hi = -float(cfg["gamma"]), float(cfg["gamma"])  # workloads use the symmetric box
    if not np.all(np.isfinite(x_hat)):
        return ["estimate not finite"], math.nan
    reasons = []
    if x_hat.min() < lo or x_hat.max() > hi:
        reasons.append("estimate outside the box")
    if not converged:
        reasons.append("converged=False")
    obj = objective(cfg, lam, x_hat, *sums)
    if not abs(obj - reported_obj) <= OBJ_AGREE_RTOL * max(1.0, abs(reported_obj)):
        reasons.append(f"objective {obj!r} disagrees with reported {reported_obj!r}")
    if reference is None:
        reasons.append("no reference objective")
    elif not obj <= reference + OBJ_REF_RTOL * max(1.0, abs(reference)):
        reasons.append(f"objective {obj!r} above reference {reference!r}")
    return reasons, obj


def frob_risk(x_hat: np.ndarray, x_bar: np.ndarray) -> float:
    d = x_hat - x_bar
    return float((d * d).mean())


def read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_observation_sums(path: Path, m1: int, m2: int):
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return cell_sums(m1, m2, raw[:, 1].astype(np.int64) - 1, raw[:, 2].astype(np.int64) - 1, raw[:, 3])


def check_fit_outputs(cfg: dict, out: Path, reference) -> tuple[list[str], float, float]:
    """Check one ``expmc fit`` op from the files it wrote; returns (reasons, risk, objective)."""
    report = json.loads((out / "fit.json").read_text())
    x_hat = read_matrix(out / "estimate.csv")
    x_bar = read_matrix(out / "truth.csv")
    sums = read_observation_sums(out / "observations.csv", cfg["m1"], cfg["m2"])
    if x_hat.shape != (cfg["m1"], cfg["m2"]) or x_bar.shape != x_hat.shape:
        return ["estimate or truth has the wrong shape"], math.nan, math.nan
    reasons, obj = check_fit(
        cfg, x_hat, float(report["lambda"]), float(report["objective_last"]),
        bool(report["converged"]), sums, reference,
    )
    if not (out / "manifest.json").is_file():
        reasons.append("manifest.json missing")
    return reasons, frob_risk(x_hat, x_bar) if np.all(np.isfinite(x_hat)) else math.nan, obj


def check_sweep_outputs(out: Path, n_fits: int, window) -> list[str]:
    """Rate-sweep CSVs: one finite, converged row per fit and a slope in the window."""
    with open(out / "rate_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    reasons = []
    if len(rows) != n_fits:
        reasons.append(f"rate_sweep.csv has {len(rows)} rows, expected {n_fits}")
    if not all(r["converged"] == "true" and math.isfinite(float(r["frob_risk"])) for r in rows):
        reasons.append("rate_sweep.csv has a non-converged or non-finite row")
    with open(out / "rate_sweep_slope.csv") as fh:
        slope = float(next(csv.DictReader(fh))["slope"])
    if not window[0] <= slope <= window[1]:
        reasons.append(f"slope {slope!r} outside {list(window)}")
    return reasons


def check_concentration_outputs(cfg: dict, out: Path) -> list[str]:
    """concentration.csv: every expected row present with finite values."""
    with open(out / "concentration.csv") as fh:
        rows = list(csv.DictReader(fh))
    reps = int(cfg["reps"])
    grad = [r for r in rows if r["metric"] == "grad_norm"]
    reasons = []
    if [r["metric"] for r in rows if r["metric"] != "grad_norm"] != ["rademacher_norm", "grad_exceedance"]:
        reasons.append("concentration.csv summary rows missing")
    if sorted(int(r["replicate"]) for r in grad) != list(range(reps)):
        reasons.append(f"concentration.csv has {len(grad)} grad_norm rows, expected {reps}")
    for r in rows:
        for key in ("value", "reference_value"):
            if r[key] == "" or not math.isfinite(float(r[key])):
                reasons.append(f"non-finite {key} in row {r['metric']} {r['replicate']}")
                return reasons
    return reasons
