"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id> <name>: PASS/FAIL`` line
(run with ``pytest -s`` to see them live) and appends it to
``acceptance_report.txt`` in the repository root. Criteria are
property/scaling checks at fixed tolerances; abstract bound constants
are taken at one throughout.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FAMILY_CASES

from expmc import (
    Binomial,
    CellSummary,
    CompletionProblem,
    Gaussian,
    ParameterBox,
    SolverConfig,
    build_packing,
    fit,
    gradient,
    neg_loglik,
    nuclear_norm,
    operator_norm,
    oracle_lambda,
    proj_onto,
    proj_perp,
    rademacher_norm_estimate,
    schatten_norm,
    svt,
    uniform_scheme,
    verify_conditions,
)
from expmc.bench import ExperimentConfig, gen_truth, oracle_check, rate_sweep, simulate

REPORT_PATH = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
_LINES: list[str] = []


def _report(ident: str, name: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {ident} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    _LINES.append(line)
    REPORT_PATH.write_text("\n".join(_LINES) + "\n")
    assert passed, line


def test_01_rate_scaling():
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "family": {"family": "gaussian", "sigma": 1.0},
        "sampling": {"sampling": "uniform"},
        "m1": 60, "m2": 60, "rank": 3, "gamma": 1.0,
        "n_grid": [6000, 12000, 24000, 48000],
        "replicates": 10,
        "lambda_mode": "oracle",
        "truth": "flat",
    })
    result = rate_sweep(cfg, seed=2024)
    elapsed = time.time() - t0
    ok = 0.8 <= result.slope <= 1.2 and elapsed <= 900
    _report("1", "rate-scaling", ok, f"slope={result.slope:.3f}, window [0.8, 1.2]")


def test_02_exact_recovery():
    t0 = time.time()
    fam = Gaussian(sigma=1.0)
    box = ParameterBox.symmetric(1.0)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([101, seed])
        truth = gen_truth(30, 30, 3, box, rng)
        obs = CellSummary(np.ones(truth.x_bar.shape), fam.mean(truth.x_bar))
        problem = CompletionProblem(obs=obs, family=fam, box=box, lam=1e-8)
        res = fit(problem)
        rel = float(np.linalg.norm(res.x_hat - truth.x_bar) / np.linalg.norm(truth.x_bar))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed <= 60
    _report("2", "exact-recovery", ok, f"worst rel err={worst:.2e} over 20 seeds")


def test_03_oracle_inequalities():
    t0 = time.time()
    rows = []
    for fam_spec in ({"family": "gaussian", "sigma": 1.0}, {"family": "binomial", "trials": 1}):
        cfg = ExperimentConfig.from_dict({
            "family": fam_spec,
            "m1": 40, "m2": 40, "rank": 2, "gamma": 1.0,
            "n_grid": [12800], "replicates": 25,
            "mode": "known_sampling",
            "truth": "flat",
        })
        rows.extend(oracle_check(cfg, seed=77).rows)
    elapsed = time.time() - t0
    assert len(rows) == 50
    worst_margin = min(min(r["margin_flat"], r["margin_rank"]) for r in rows)
    n_pass = sum(r["passed_flat"] and r["passed_rank"] for r in rows)
    ok = n_pass == 50 and elapsed <= 600
    _report(
        "3", "oracle-inequalities", ok,
        f"{n_pass}/50 runs, worst margin={worst_margin:.3e} >= -1e-8",
    )


def test_04_span_algebra_and_svt_prox():
    t0 = time.time()
    rng = np.random.default_rng(404)
    tol = 1e-9
    failures = 0
    for _ in range(1000):
        r = int(rng.integers(1, 5))
        x = rng.standard_normal((8, r)) @ rng.standard_normal((r, 6))
        a = rng.standard_normal((8, 6))
        perp = proj_perp(x, a)
        if abs(nuclear_norm(x + perp) - nuclear_norm(x) - nuclear_norm(perp)) > tol:
            failures += 1
        if nuclear_norm(proj_onto(x, a)) > math.sqrt(2 * r) * schatten_norm(a, 2) + tol:
            failures += 1
        if nuclear_norm(x) - nuclear_norm(a) > nuclear_norm(proj_onto(x, a - x)) + tol:
            failures += 1
        tau = float(rng.uniform(0.05, 1.5))
        star = svt(a, tau)
        f_star = 0.5 * np.linalg.norm(star - a) ** 2 + tau * nuclear_norm(star)
        z = star + rng.standard_normal((8, 6)) * rng.uniform(0.01, 1.0)
        if f_star > 0.5 * np.linalg.norm(z - a) ** 2 + tau * nuclear_norm(z) + tol:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed <= 60
    _report("4", "span-algebra-svt-prox", ok, f"{failures} failures in 4x1000 checks")


def test_05_cone_conditions():
    fam = Gaussian(sigma=1.0)
    box = ParameterBox.symmetric(1.0)
    scheme = uniform_scheme(20, 20)
    certified = 0
    violations = 0
    for seed in range(35):
        rng = np.random.default_rng([505, seed])
        truth = gen_truth(20, 20, 2, box, rng, style="flat")
        obs = simulate(truth, fam, scheme, 1200, rng)
        probe = CompletionProblem(obs=obs, family=fam, box=box, lam=0.0)
        grad_norm = operator_norm(gradient(probe, truth.x_bar))
        lam = 3.0 * grad_norm
        problem = probe.with_lambda(lam)
        res = fit(problem)
        phi_hat = res.objective_trace[-1]
        phi_bar = neg_loglik(problem, truth.x_bar) + lam * nuclear_norm(truth.x_bar)
        if not (phi_hat <= phi_bar and lam > 2.0 * grad_norm):
            continue
        certified += 1
        diff = res.x_hat - truth.x_bar
        perp = nuclear_norm(proj_perp(truth.x_bar, diff))
        onto = nuclear_norm(proj_onto(truth.x_bar, diff))
        if perp > 3.0 * onto + 1e-6:
            violations += 1
        if nuclear_norm(diff) > 4.0 * math.sqrt(2 * 2) * float(np.linalg.norm(diff)) + 1e-6:
            violations += 1
    ok = certified >= 30 and violations == 0
    _report(
        "5", "cone-conditions", ok,
        f"{certified} certified runs (>=30), {violations} violations",
    )


def test_06_concentration():
    t0 = time.time()
    est = rademacher_norm_estimate(uniform_scheme(50, 50), 2000, 1000, np.random.default_rng(606))
    bound = (1 + math.sqrt(3)) * math.sqrt(2 * math.e * math.log(100) / (50 * 2000))
    elapsed = time.time() - t0
    assert bound == pytest.approx(0.0432, abs=5e-5)
    ok = est <= bound and elapsed <= 120
    _report("6", "concentration", ok, f"mean norm={est:.5f} <= bound={bound:.5f}")


def test_07_gradient_correctness():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(100):
        fam, box = FAMILY_CASES[i % len(FAMILY_CASES)]
        inner = ParameterBox(box.lo * 0.85, box.hi * 0.85)
        m1, m2 = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        scheme = uniform_scheme(m1, m2)
        truth = gen_truth(m1, m2, 2, inner, rng)
        obs = simulate(truth, fam, scheme, int(rng.integers(40, 200)), rng)
        mode = "known_sampling" if i % 2 else "likelihood"
        problem = CompletionProblem(
            obs=obs, family=fam, box=box, lam=0.0, mode=mode,
            scheme=scheme if mode == "known_sampling" else None,
        )
        x = gen_truth(m1, m2, 2, inner, rng).x_bar
        g = gradient(problem, x)
        h = 1e-5
        fd = np.zeros_like(g)
        for k in range(m1):
            for l in range(m2):
                xp, xm = x.copy(), x.copy()
                xp[k, l] += h
                xm[k, l] -= h
                fd[k, l] = (neg_loglik(problem, xp) - neg_loglik(problem, xm)) / (2 * h)
        rel = float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-10))
        worst = max(worst, rel)
    ok = worst <= 1e-6
    _report("7", "gradient-correctness", ok, f"worst rel FD error={worst:.2e} over 100 problems")


def test_08_lower_bound_construction():
    t0 = time.time()
    fam = Gaussian(sigma=1.0)
    scheme = uniform_scheme(16, 16)
    n = 2000
    all_ok = True
    details = []
    for seed in range(10):
        packing = build_packing(
            16, 16, 2, gamma=1.0, alpha=0.1, sigma_hi_sq=1.0, n=n,
            rng=np.random.default_rng([808, seed]),
        )
        report = verify_conditions(packing, fam, scheme, n, ParameterBox.symmetric(1.0))
        if packing.cardinality < 2**4 + 1 or not report.passed:
            all_ok = False
            details.append(f"seed {seed}: {report.failures}")
    elapsed = time.time() - t0
    ok = all_ok and elapsed <= 120
    _report(
        "8", "lower-bound-construction", ok,
        "10 seeds, card>=17, separation/KL/membership all pass"
        + ("; " + "; ".join(details) if details else ""),
    )


def test_09_strong_convexity_sandwich():
    failures = 0
    for fam, box in FAMILY_CASES:
        lo_sq, hi_sq = fam.variance_bounds(box)
        rng = np.random.default_rng(909)
        x = rng.uniform(box.lo, box.hi, 10**4)
        x_ref = rng.uniform(box.lo, box.hi, 10**4)
        two_d = 2.0 * fam.bregman(x, x_ref)
        gap_sq = (x - x_ref) ** 2
        failures += int(np.sum(two_d < lo_sq * gap_sq - 1e-12))
        failures += int(np.sum(two_d > hi_sq * gap_sq + 1e-12))
    ok = failures == 0
    _report(
        "9", "strong-convexity-sandwich", ok,
        f"{failures} failures over {len(FAMILY_CASES)}x10^4 pairs at 1e-12 slack",
    )


def test_10_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "family": {"family": "gaussian", "sigma": 1.0},
        "m1": 15, "m2": 15, "rank": 2, "gamma": 1.0,
        "n_grid": [500, 1000], "replicates": 3,
        "truth": "flat",
    })
    rate_sweep(cfg, seed=99, out_dir=tmp_path / "a")
    rate_sweep(cfg, seed=99, out_dir=tmp_path / "b")
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("rate_sweep.csv", "rate_sweep_slope.csv")
    )
    _report("10", "determinism", same, "byte-identical CSVs on rerun")
