import contextlib
import hashlib
import math
import os
import signal
import threading
import time

import numpy as np
import pytest

from expmc import (
    LIKELIHOOD,
    Binomial,
    CompletionProblem,
    DomainError,
    ExponentialFamily,
    Gaussian,
    ParameterBox,
    Poisson,
    numerical_rank,
    product_scheme,
    uniform_scheme,
)
from expmc.bench import (
    ExperimentConfig,
    concentration_check,
    gen_truth,
    lowerbound_run,
    oracle_check,
    rate_sweep,
    resolve_lambda,
    simulate,
    simulate_cells,
)
import expmc.bench
from expmc.estimator import gradient
from expmc.io import load_matrix_csv, save_matrix_csv
from expmc.matops import operator_norm
from expmc.sampling import rademacher_norm_estimate

BOX1 = ParameterBox.symmetric(1.0)


def make_cfg(**overrides):
    base = {
        "family": {"family": "gaussian", "sigma": 1.0},
        "m1": 12,
        "m2": 12,
        "rank": 2,
        "gamma": 1.0,
        "n_grid": [400, 800],
        "replicates": 2,
        "truth": "flat",
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestGenTruth:
    def test_one_by_one(self):
        truth = gen_truth(1, 1, 1, ParameterBox.symmetric(2.0), np.random.default_rng(0))
        assert abs(abs(truth.x_bar[0, 0]) - 0.95 * 2.0) < 1e-12

    def test_rank_bounded_over_seeds(self):
        for seed in range(100):
            truth = gen_truth(8, 6, 3, BOX1, np.random.default_rng(seed))
            assert numerical_rank(truth.x_bar) <= 3

    def test_sup_norm_within_budget(self):
        for seed in range(20):
            truth = gen_truth(10, 10, 2, ParameterBox.symmetric(1.5), np.random.default_rng(seed))
            assert np.abs(truth.x_bar).max() <= 1.5
            assert np.abs(truth.x_bar).max() == pytest.approx(0.95 * 1.5, rel=1e-12)

    def test_exponential_box_respected(self):
        box = ParameterBox(-3.0, -0.3)
        for seed in range(20):
            truth = gen_truth(7, 9, 2, box, np.random.default_rng(seed))
            assert np.all(truth.x_bar >= box.lo) and np.all(truth.x_bar <= box.hi)
            assert numerical_rank(truth.x_bar) <= 2

    def test_thin_one_sided_box_falls_back_to_constant(self):
        box = ParameterBox(-1.05, -1.0)
        truth = gen_truth(5, 5, 2, box, np.random.default_rng(3))
        assert np.allclose(truth.x_bar, -1.025)
        assert numerical_rank(truth.x_bar) == 1

    def test_flat_style(self):
        truth = gen_truth(9, 8, 3, BOX1, np.random.default_rng(4), style="flat")
        assert numerical_rank(truth.x_bar) == 3
        assert np.all(np.isclose(np.abs(truth.x_bar), 0.95))

    def test_flat_style_needs_two_sided_box(self):
        with pytest.raises(ValueError):
            gen_truth(5, 5, 1, ParameterBox(-2.0, -0.5), np.random.default_rng(0), style="flat")

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            gen_truth(5, 5, 1, BOX1, np.random.default_rng(0), style="exotic")


class TestSimulate:
    def test_noiseless_equals_mean_map(self):
        fam = Binomial(trials=4)
        truth = gen_truth(6, 6, 2, BOX1, np.random.default_rng(5))
        obs = simulate(truth, fam, uniform_scheme(6, 6), 50, np.random.default_rng(6), noiseless=True)
        expected = fam.mean(truth.x_bar[obs.rows, obs.cols])
        assert np.allclose(obs.ys, expected)

    def test_reproducible(self):
        fam = Poisson()
        truth = gen_truth(5, 5, 2, BOX1, np.random.default_rng(7))
        a = simulate(truth, fam, uniform_scheme(5, 5), 40, np.random.default_rng(8))
        b = simulate(truth, fam, uniform_scheme(5, 5), 40, np.random.default_rng(8))
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.ys, b.ys)

    def test_single_cell_monte_carlo_mean(self):
        fam = Gaussian(sigma=1.0)
        truth = gen_truth(3, 3, 1, BOX1, np.random.default_rng(9))
        pi = np.zeros((3, 3))
        pi[1, 1] = 1.0
        from expmc import SamplingScheme

        obs = simulate(truth, fam, SamplingScheme(pi), 20000, np.random.default_rng(10))
        target = fam.mean(truth.x_bar[1, 1])
        assert obs.ys.mean() == pytest.approx(target, abs=5 / math.sqrt(20000))

    # sha256 of the rows, cols and ys bytes of one simulate call and of the
    # counts and y_sum of its problem; a refactor of the draw path must keep them.
    @pytest.mark.parametrize("table, digest", [
        ("uniform", "33c602720f97eb4fb90a857edeb80deb2117618ddc0a7a798a1abdd9d8ecfeca"),
        ("product", "d48e688af48b189079d0a708edcb3badd18052c77a5161237138f0fe3b82be08"),
    ])
    def test_replicate_stream_pinned(self, table, digest):
        scheme = {
            "uniform": uniform_scheme(30, 40),
            "product": product_scheme(np.linspace(1, 3, 30), np.linspace(1, 2, 40)),
        }[table]
        fam = Poisson()
        truth = gen_truth(30, 40, 2, BOX1, np.random.default_rng(17))
        obs = simulate(truth, fam, scheme, 5000, np.random.default_rng(18))
        prob = CompletionProblem(obs=obs, family=fam, box=BOX1, lam=0.0)
        h = hashlib.sha256()
        for arr in (obs.rows, obs.cols, obs.ys, prob.counts, prob.y_sum):
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("noiseless", [False, True], ids=["noisy", "noiseless"])
    def test_simulate_cells_keeps_the_cell_stream(self, family_case, noiseless):
        # The counts are the cells simulate draws from the same seed; the values
        # are one sum per observed cell, k G'(x) when noiseless.
        fam, box = family_case
        scheme = product_scheme(np.linspace(1, 3, 6), np.linspace(1, 2, 7))
        truth = gen_truth(6, 7, 2, box, np.random.default_rng(19))
        obs = simulate(truth, fam, scheme, 60, np.random.default_rng(20), noiseless=noiseless)
        cells = simulate_cells(truth, fam, scheme, 60, np.random.default_rng(20), noiseless=noiseless)
        expected = obs.summary()
        assert cells.n == 60 and np.array_equal(cells.counts, expected.counts)
        seen = cells.counts > 0
        assert np.all(cells.sums[~seen] == 0.0)
        if noiseless:
            assert np.array_equal(cells.sums[seen], cells.counts[seen] * fam.mean(truth.x_bar[seen]))
        CompletionProblem(obs=cells, family=fam, box=box, lam=0.0)

    def test_simulate_cells_draws_one_value_per_observed_cell(self, monkeypatch):
        draws, sample = [], ExponentialFamily.sample

        def counted(self, x, rng, k=1):
            draws.append(k)
            return sample(self, x, rng, k)

        monkeypatch.setattr(ExponentialFamily, "sample", counted)
        truth = gen_truth(10, 10, 2, BOX1, np.random.default_rng(21))
        cells = simulate_cells(truth, Poisson(), uniform_scheme(10, 10), 400, np.random.default_rng(22))
        (k,) = draws
        assert k.size == np.count_nonzero(cells.counts) and k.sum() == 400


class TestConfig:
    def test_defaults(self):
        cfg = make_cfg()
        assert cfg.lambda_mode == "oracle"
        assert cfg.mode == "likelihood"
        assert cfg.solver.tol == 1e-9
        assert cfg.box.radius == 1.0

    def test_n_grid_must_increase(self):
        with pytest.raises(ValueError):
            make_cfg(n_grid=[100, 100])

    def test_replicates_positive(self):
        with pytest.raises(ValueError):
            make_cfg(replicates=0)

    def test_lambda_mode_validated(self):
        with pytest.raises(ValueError):
            make_cfg(lambda_mode="magic")
        assert make_cfg(lambda_mode=0.05).lambda_mode == 0.05

    def test_single_n_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {"family": {"family": "poisson"}, "m1": 4, "m2": 4, "n": 100}
        )
        assert cfg.n_grid == [100]

    def test_hash_stable(self):
        assert make_cfg().hash == make_cfg().hash
        assert make_cfg().hash != make_cfg(rank=3).hash

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode must be"):
            make_cfg(mode="known-sampling")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['max_cardinality', 'replicate'\]"):
            make_cfg(replicate=5, max_cardinality=3)
        paths = make_cfg(truth_path="truth.csv", observations_path="obs.csv", reps=10, alpha=0.2)
        assert paths.raw["truth_path"] == "truth.csv"

    @pytest.mark.parametrize("key, overrides", [
        ("m1", {"m1": 10.7}),
        ("m2", {"m2": True}),
        ("rank", {"rank": 1.5}),
        ("n", {"n": 500.9}),
        ("n", {"n": True}),
        ("n_grid", {"n_grid": [400, 800.5]}),
        ("replicates", {"replicates": 1.5}),
        ("reps", {"reps": 3.2}),
        ("trials", {"family": {"family": "binomial", "trials": 2.5}}),
        ("max_iters", {"solver": {"max_iters": 10.5}}),
    ])
    def test_fractional_integer_values_rejected(self, key, overrides):
        with pytest.raises(ValueError, match=f"'{key}'"):
            make_cfg(**overrides)

    @pytest.mark.parametrize("key, overrides", [
        ("noiseless", {"noiseless": "false"}),
        ("noiseless", {"noiseless": 0}),
        ("lambda_mode", {"lambda_mode": True}),
        ("lambda_mode", {"lambda_mode": math.nan}),
        ("lambda_mode", {"lambda_mode": -math.inf}),
        ("lambda_mode", {"lambda_mode": None}),
        ("sigma", {"family": {"family": "gaussian", "sigma": True}}),
        ("sigma", {"family": {"family": "gaussian", "sigma": "1.0"}}),
        ("gamma", {"gamma": "1.0"}),
        ("gamma", {"gamma": math.inf}),
        ("gamma", {"gamma": True, "box": {"lo": -1.0, "hi": 1.0}}),
        ("lo", {"box": {"lo": "-1", "hi": 1.0}}),
        ("hi", {"box": {"lo": -1.0, "hi": math.nan}}),
        ("alpha", {"alpha": [0.1]}),
        ("alpha", {"alpha": math.nan}),
        ("tol", {"solver": {"tol": "1e-9"}}),
        ("c_gamma", {"solver": {"c_gamma": math.inf}}),
        ("c_star", {"solver": {"c_star": False}}),
    ])
    def test_non_numeric_bool_and_non_finite_values_rejected(self, key, overrides):
        with pytest.raises(ValueError, match=f"'{key}'"):
            make_cfg(**overrides)

    def test_integers_accepted_as_reals(self):
        assert make_cfg(lambda_mode=0).lambda_mode == 0.0
        cfg = make_cfg(gamma=2, lambda_mode=1, alpha=0, family={"family": "gaussian", "sigma": 2},
                       solver={"tol": 0, "c_gamma": 3})
        values = (cfg.gamma, cfg.lambda_mode, cfg.alpha, cfg.family.sigma, cfg.solver.tol, cfg.solver.c_gamma)
        assert values == (2.0, 1.0, 0.0, 2.0, 0.0, 3.0)
        assert all(type(v) is float for v in values)

    def test_integral_floats_accepted(self):
        cfg = make_cfg(m1=12.0, n=400.0, solver={"max_iters": 50.0})
        assert (cfg.m1, cfg.n_single, cfg.solver.max_iters) == (12, 400, 50)

    @pytest.mark.parametrize("key, value", [
        ("tol", -1.0),
        ("tol", -1e-300),
        ("max_iters", 0),
        ("max_iters", -3),
        ("c_gamma", 0.0),
        ("c_gamma", -1.0),
    ])
    def test_solver_values_that_cannot_run_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"solver key '{key}' must be"):
            make_cfg(solver={key: value})

    @pytest.mark.parametrize("key, overrides", [
        ("n", {"n": 0}),
        ("n", {"n": -5}),
        ("n_grid", {"n_grid": [-3, 100]}),
        ("n_grid", {"n_grid": [0, 100]}),
        ("replicates", {"replicates": 0}),
        ("reps", {"reps": 0}),
        ("m1", {"m1": 0}),
        ("m2", {"m2": -3}),
    ])
    def test_sample_sizes_below_one_rejected(self, key, overrides):
        with pytest.raises(ValueError, match=f"config key '{key}' must be >= 1"):
            make_cfg(**overrides)

    @pytest.mark.parametrize("key, overrides", [
        ("trial", {"family": {"family": "binomial", "trial": 5}}),
        ("sigma", {"family": {"family": "poisson", "sigma": 3}}),
        ("radius", {"box": {"lo": -1.0, "hi": 1.0, "radius": 1.0}}),
        ("path", {"sampling": {"sampling": "table"}}),
        ("pi", {"sampling": {"sampling": "uniform", "pi": "pi.csv"}}),
    ])
    def test_bad_nested_keys_rejected(self, key, overrides):
        with pytest.raises(ValueError, match=f"'{key}'"):
            make_cfg(**overrides).scheme

    @pytest.mark.parametrize("pattern, overrides", [
        ("config key 'family' must be an object", {"family": "gaussian"}),
        ("config key 'sampling' must be an object", {"sampling": "uniform"}),
        ("config key 'n_grid' must be a list", {"n_grid": 400}),
        ("config key 'truth_path' must be a string", {"truth_path": 3}),
        ("config key 'observations_path' must be a string", {"observations_path": ["obs.csv"]}),
        ("config key 'path' must be a string", {"sampling": {"sampling": "table", "path": 3}}),
        ("config key 'sampling' must be an object naming", {"sampling": {"sampling": "adaptive"}}),
        (r"missing keys: \['path'\]", {"sampling": {"sampling": "table"}}),
        (r"unknown uniform sampling config keys: \['pi'\]", {"sampling": {"sampling": "uniform", "pi": "pi.csv"}}),
        ("box config must be a JSON object", {"box": 1.0}),
        ("solver config must be a JSON object", {"solver": "fast"}),
        (r"config needs an n_grid \(or a single n\)", {"n_grid": []}),
        (r"rank must satisfy 1 <= rank <= min\(m1, m2\)", {"rank": 0}),
        ("truth must be 'factor' or 'flat'", {"truth": "lowrank"}),
        ("config key 'lambda_mode' must be >= 0", {"lambda_mode": -0.5}),
    ], ids=["family", "sampling", "n_grid", "truth_path", "observations_path", "table_path", "sampling_kind",
            "sampling_missing_key", "sampling_extra_key", "box", "solver", "empty_n_grid", "rank_zero",
            "truth_style", "negative_lambda"])
    def test_malformed_values_rejected_when_read(self, pattern, overrides):
        with pytest.raises(ValueError, match=pattern):
            make_cfg(**overrides)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("run, overrides, pattern", [
        (rate_sweep, {"lambda_mode": 1e300}, "config key 'lambda_mode'"),
        (oracle_check, {"mode": "known_sampling", "solver": {"c_gamma": 1e300}}, "solver key 'c_gamma'"),
        (lowerbound_run, {"gamma": 1e300}, "config key 'gamma'"),
        (rate_sweep, {"gamma": 1e300}, "config key 'gamma'"),
        (rate_sweep, {"lambda_mode": 0.1, "solver": {"c_gamma": 1e300}}, "solver key 'c_gamma'"),
        (rate_sweep, {"gamma": 1e19}, "config key 'gamma'"),
        (rate_sweep, {"gamma": 1e30}, "config key 'gamma'"),
        (rate_sweep, {"gamma": 1e40}, "config key 'gamma'"),
        (rate_sweep, {"gamma": 1e60}, "config key 'gamma'"),
        (rate_sweep, {"gamma": 1e150}, "config key 'gamma'"),
    ], ids=["sweep-lambda_mode", "oracle-c_gamma", "lower-bound-gamma", "gaussian-sweep-gamma",
            "sweep-bound-c_gamma", "gamma-1e19", "gamma-1e30", "gamma-1e40", "gamma-1e60", "gamma-1e150"])
    def test_overflowing_values_rejected_before_any_output(self, tmp_path, run, overrides, pattern):
        # Each escaped as an OverflowError, or as numpy's overflow warning in `dot`,
        # from deep inside the metrics, the packing check or the truth's SVD. The
        # Gaussian radii from 1e19 overflowed the fit's float32 extrapolation
        # history: its inner products up to about 1e38 (LAPACK's "SVD did not
        # converge" in the extrapolation's least squares), the cast past that.
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=pattern):
            run(make_cfg(m1=6, m2=5, rank=1, n_grid=[200, 400], replicates=1, **overrides), 1, out_dir=out)
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_largest_radius_in_the_float32_range_runs(self, tmp_path):
        # m1 * m2 * (2 * radius)^2 is 3.07e38 at radius 1.6e18 on 6x5, inside the
        # float32 range of 3.40e38; 1.7e18 is rejected.
        cfg = make_cfg(m1=6, m2=5, rank=1, n_grid=[200, 400], replicates=1, gamma=1.6e18)
        assert len(rate_sweep(cfg, 1, out_dir=tmp_path / "out").rows) == 2
        with pytest.raises(ValueError, match="config key 'gamma'.*float32 range"):
            make_cfg(m1=6, m2=5, rank=1, gamma=1.7e18)

    @pytest.mark.parametrize("overrides, pattern", [
        ({"family": {"family": "gaussian", "sigma": 1e-150}}, "family key 'sigma' 1e-150"),
        ({"family": {"family": "poisson"}, "box": {"lo": -400.0, "hi": 1.0}, "gamma": 400.0},
         r"config key 'box' \[-400.0, 1.0\]"),
    ], ids=["gaussian-sigma", "poisson-box"])
    def test_curvature_whose_square_underflows_rejected_before_any_fit(self, tmp_path, monkeypatch, overrides,
                                                                       pattern):
        # sigma_lo^2 squared underflowed to 0, and the bounds of the first row divided by it.
        fits = []
        monkeypatch.setattr(expmc.bench, "fit", lambda *args: fits.append(args))
        cfg = make_cfg(m1=6, m2=5, rank=1, n_grid=[200, 400], replicates=1, lambda_mode=0.1, **overrides)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=pattern):
            rate_sweep(cfg, 1, out_dir=out)
        assert not fits and not out.exists()

    def test_scheme_and_constants_built_once_on_first_use(self, tmp_path, monkeypatch):
        boxes, interval_constants = [], ExponentialFamily.interval_constants

        def recording(family, box):
            boxes.append(box)
            return interval_constants(family, box)

        monkeypatch.setattr(ExponentialFamily, "interval_constants", recording)
        pi = tmp_path / "pi.csv"
        cfg = make_cfg(sampling={"sampling": "table", "path": str(pi)})  # parsing opens no file
        assert boxes == []
        save_matrix_csv(pi, np.full((12, 12), 1 / 144))
        assert cfg.scheme is cfg.scheme
        assert cfg.constants is cfg.constants and boxes == [cfg.box]

    def test_paths_parsed(self):
        cfg = make_cfg(truth_path="truth.csv", observations_path="obs.csv")
        assert (cfg.truth_path, cfg.observations_path) == ("truth.csv", "obs.csv")
        assert (make_cfg().truth_path, make_cfg().observations_path) == (None, None)

    def test_missing_required_key_named(self):
        with pytest.raises(ValueError, match="'family'"):
            ExperimentConfig.from_dict({"m1": 4, "m2": 4, "n": 100})

    def test_gamma_must_match_box_radius(self):
        spec = dict(family={"family": "exponential"}, box={"lo": -2.0, "hi": -0.5})
        with pytest.raises(ValueError, match="box radius"):
            make_cfg(gamma=1.0, **spec)
        base = {"m1": 12, "m2": 12, "n_grid": [400], **spec}
        assert ExperimentConfig.from_dict(base).gamma == 2.0

    def test_box_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict(
                {"family": {"family": "exponential"}, "m1": 4, "m2": 4, "n": 100}
            )

    def test_family_label(self):
        assert make_cfg().family_label == "gaussian(sigma=1.0)"
        assert make_cfg(family={"family": "poisson"}).family_label == "poisson"


class TestResolveLambda:
    def test_fixed_value(self):
        cfg = make_cfg(lambda_mode=0.125)
        assert resolve_lambda(cfg, None, None) == 0.125

    def test_theorem_modes(self):
        cfg = make_cfg(lambda_mode="theorem_likelihood")
        _, probe = cfg.replicate(400, np.random.default_rng(3))
        lam = resolve_lambda(cfg, probe, None)
        assert lam == pytest.approx(2 * math.sqrt(2 * math.log(24) / (12 * 400)), rel=1e-12)

    def test_oracle_floor_positive_on_noiseless(self):
        cfg = make_cfg(noiseless=True)
        rng = np.random.default_rng(12)
        truth, probe = cfg.replicate(200, rng, gen_truth(12, 12, 2, cfg.box, rng))
        lam = resolve_lambda(cfg, probe, truth.x_bar)
        assert lam > 0


class TestRateSweep:
    def test_rows_and_summaries(self, tmp_path):
        cfg = make_cfg()
        res = rate_sweep(cfg, seed=21, out_dir=tmp_path)
        assert len(res.rows) == 4
        for row in res.rows:
            assert row["lambda"] > 0
            assert row["frob_risk"] >= 0
            assert row["kl_integrated"] >= 0
            assert row["config_hash"] == cfg.hash
            assert row["rank_bar"] == 2
            for name in (
                "bound_likelihood_risk", "bound_likelihood_risk_main",
                "bound_likelihood_risk_edge", "bound_likelihood_risk_subexp",
                "bound_known_sampling_risk", "bound_known_sampling_risk_uniform",
                "bound_minimax_lower",
            ):
                assert row[name] >= 0
            assert row["bound_likelihood_risk"] == pytest.approx(
                max(row["bound_likelihood_risk_main"], row["bound_likelihood_risk_edge"]),
                rel=1e-12,
            )
            assert isinstance(row["n_condition_ok"], bool)
        assert (tmp_path / "rate_sweep.csv").exists()
        assert (tmp_path / "rate_sweep_slope.csv").exists()
        assert math.isfinite(res.slope)

    def test_likelihood_bound_is_exactly_its_larger_branch(self, tmp_path):
        # On a non-uniform table (mu != 1) the branches must be rounded the
        # same way as the bound, not just agree with it to a tolerance.
        pi = np.random.default_rng(0).random((20, 20)) + 0.5
        save_matrix_csv(tmp_path / "pi.csv", pi / pi.sum())
        cfg = make_cfg(m1=20, m2=20, n_grid=[800, 1600],
                       sampling={"sampling": "table", "path": str(tmp_path / "pi.csv")})
        assert cfg.scheme.mu_constant() != 1.0
        for row in rate_sweep(cfg, seed=6).rows:
            assert row["bound_likelihood_risk"] == max(
                row["bound_likelihood_risk_main"], row["bound_likelihood_risk_edge"]
            )

    def test_predictor_values(self):
        cfg = make_cfg()
        res = rate_sweep(cfg, seed=22)
        for row in res.rows:
            assert row["predictor"] == pytest.approx(12 * 2 * math.log(24) / row["n"], rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = make_cfg()
        rate_sweep(cfg, seed=23, out_dir=tmp_path / "a")
        rate_sweep(cfg, seed=23, out_dir=tmp_path / "b")
        for name in ("rate_sweep.csv", "rate_sweep_slope.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = make_cfg()
        a = rate_sweep(cfg, seed=1)
        b = rate_sweep(cfg, seed=2)
        assert a.rows[0]["frob_risk"] != b.rows[0]["frob_risk"]

    def test_known_sampling_mode(self):
        cfg = make_cfg(mode="known_sampling", lambda_mode="theorem_known_sampling")
        res = rate_sweep(cfg, seed=3)
        assert all(row["mode"] == "known_sampling" for row in res.rows)
        assert all(row["converged"] for row in res.rows)

    def test_noiseless_full_coverage_recovers_exactly(self):
        # Vanishing penalty and every cell seen many times: risk below 1e-6.
        cfg = make_cfg(
            m1=8, m2=8, n_grid=[1500], replicates=1, noiseless=True, lambda_mode=1e-12
        )
        res = rate_sweep(cfg, seed=13)
        assert res.rows[0]["frob_risk"] < 1e-6

    def test_doubling_dimensions_at_matched_rate_keeps_risk_level(self):
        def median_risk(m, n):
            cfg = make_cfg(m1=m, m2=m, n_grid=[n], replicates=6)
            return rate_sweep(cfg, seed=9).medians[n]

        r_small = median_risk(12, 600)
        n_big = round(600 * (24 * math.log(48)) / (12 * math.log(24)))
        r_big = median_risk(24, n_big)
        assert 0.5 <= r_big / r_small <= 2.0

    def test_sample_size_threshold_reported(self):
        from expmc import sample_size_threshold, uniform_scheme

        cfg = make_cfg()
        consts = cfg.family.interval_constants(cfg.box)
        threshold = sample_size_threshold(consts, uniform_scheme(12, 12))
        assert threshold > 0
        res = rate_sweep(cfg, seed=14)
        for row in res.rows:
            assert row["n_condition_ok"] == (row["n"] >= threshold)


class TestOracleCheck:
    def test_all_pass_gaussian(self, tmp_path):
        cfg = make_cfg(mode="known_sampling", m1=10, m2=10, n_grid=[300], replicates=3)
        res = oracle_check(cfg, seed=31, out_dir=tmp_path)
        assert len(res.rows) == 3
        assert res.all_passed
        assert all(row["applicable"] for row in res.rows)
        assert (tmp_path / "oracle_check.csv").exists()

    def test_requires_known_sampling(self):
        with pytest.raises(ValueError):
            oracle_check(make_cfg(), seed=0)

    def test_binomial_passes(self):
        cfg = make_cfg(
            family={"family": "binomial", "trials": 1}, mode="known_sampling",
            m1=10, m2=10, n_grid=[400], replicates=2,
        )
        res = oracle_check(cfg, seed=32)
        assert res.all_passed


class TestConcentration:
    def test_rademacher_below_bound_and_rows(self, tmp_path):
        cfg = make_cfg(m1=20, m2=20, n_grid=[500], reps=60)
        res = concentration_check(cfg, seed=41, out_dir=tmp_path)
        assert res.rademacher_estimate <= res.rademacher_bound
        metrics = {row["metric"] for row in res.rows}
        assert metrics == {"rademacher_norm", "grad_norm", "grad_exceedance"}
        assert (tmp_path / "concentration.csv").exists()

    def test_noiseless_scores_vanish(self):
        cfg = make_cfg(m1=10, m2=10, n_grid=[200], reps=10, noiseless=True)
        res = concentration_check(cfg, seed=42)
        grads = [row["value"] for row in res.rows if row["metric"] == "grad_norm"]
        assert max(grads) <= 1e-12
        assert res.exceedance_frequency == 0.0

    def test_precondition_flag(self):
        cfg = make_cfg(m1=20, m2=20, n_grid=[2], reps=5)
        res = concentration_check(cfg, seed=43)
        assert all(not row["precondition_ok"] for row in res.rows)

    def test_exceedance_monotone_in_c_gamma(self):
        kwargs = dict(m1=10, m2=10, n_grid=[150], reps=40)
        low = concentration_check(make_cfg(solver={"c_gamma": 0.05}, **kwargs), seed=44)
        high = concentration_check(make_cfg(solver={"c_gamma": 3.0}, **kwargs), seed=44)
        assert high.exceedance_frequency <= low.exceedance_frequency
        assert low.exceedance_frequency > 0  # tiny level is exceeded in noise


# Small concentration configs of the four families.
CONCENTRATION_FAMILIES = {
    "gaussian": {},
    "binomial": {"family": {"family": "binomial", "trials": 3}},
    "poisson": {"family": {"family": "poisson"}},
    "exponential": {"family": {"family": "exponential"}, "box": {"lo": -2.0, "hi": -0.5}, "gamma": 2.0,
                    "truth": "factor"},
}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block after ``seconds``, so a deadlock fails
    the test instead of hanging it (a forked child inherits no alarm)."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch):
    """The calls to os.fork made while the test runs."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


class TestConcentrationChild:
    """On Linux a forked child runs the random-sign chain, then shares the score
    replicates with the parent; the rows do not depend on the split."""

    @pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
    def test_random_sign_row_is_the_in_process_estimate_bit_for_bit(self, family, forks):
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=12, **CONCENTRATION_FAMILIES[family])
        rows = concentration_check(cfg, seed=61).rows
        assert len(forks) == (1 if expmc.bench._FORK else 0)
        expected = rademacher_norm_estimate(cfg.scheme, 300, 12, np.random.default_rng([61, 1]))
        assert rows[0]["metric"] == "rademacher_norm" and rows[0]["value"].hex() == expected.hex()
        assert [row["metric"] for row in rows] == ["rademacher_norm"] + ["grad_norm"] * 12 + ["grad_exceedance"]
        assert_no_child_left()

    @pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
    def test_rows_identical_with_the_fork_off(self, family, tmp_path, monkeypatch):
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=12, **CONCENTRATION_FAMILIES[family])
        forked = concentration_check(cfg, seed=62, out_dir=tmp_path / "forked")
        monkeypatch.setattr(expmc.bench, "_FORK", False)
        in_process = concentration_check(cfg, seed=62, out_dir=tmp_path / "in_process")
        assert forked.rows == in_process.rows
        csv = [(tmp_path / d / "concentration.csv").read_bytes() for d in ("forked", "in_process")]
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "in_process"])
    @pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
    def test_score_rows_are_the_per_replicate_recomputation_bit_for_bit(self, family, fork, forks, monkeypatch):
        monkeypatch.setattr(expmc.bench, "_FORK", expmc.bench._FORK and fork)
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=40, **CONCENTRATION_FAMILIES[family])
        rows = [row for row in concentration_check(cfg, seed=66).rows if row["metric"] == "grad_norm"]
        assert len(forks) == (1 if expmc.bench._FORK else 0)
        assert_no_child_left()
        truth = cfg.truth(np.random.default_rng([66, 2]))
        for rep, row in enumerate(rows):
            cells = simulate_cells(truth, cfg.family, cfg.scheme, 300, np.random.default_rng([66, 3, rep]))
            probe = CompletionProblem(obs=cells, family=cfg.family, box=cfg.box, lam=0.0, mode=LIKELIHOOD)
            assert row["replicate"] == rep
            assert row["value"].hex() == operator_norm(gradient(probe, truth.x_bar)).hex()

    @pytest.mark.skipif(not expmc.bench._FORK, reason="the replicates run in-process")
    def test_child_reply_larger_than_a_pipe_holds(self, forks, monkeypatch):
        parent, score, parent_calls = os.getpid(), expmc.bench.gradient, []

        def parent_waits_first(*args):
            if os.getpid() == parent and not parent_calls:
                time.sleep(1.0)  # the child claims most replicates meanwhile
            parent_calls.append(os.getpid() == parent)
            return score(*args)

        monkeypatch.setattr(expmc.bench, "gradient", parent_waits_first)
        cfg = make_cfg(m1=3, m2=3, rank=1, n_grid=[20], reps=6000)
        with within(60):
            rows = concentration_check(cfg, seed=67).rows
        assert [row["replicate"] for row in rows] == [-1, *range(6000), -1]
        assert all(math.isfinite(row["value"]) for row in rows)
        # Each child pair takes at least 20 bytes of the reply ("index:hex").
        assert (6000 - sum(parent_calls)) * 20 > 64 * 1024
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not expmc.bench._FORK, reason="the replicates run in-process")
    def test_child_that_dies_without_replying_is_an_error(self, tmp_path, monkeypatch):
        parent, score = os.getpid(), expmc.bench.gradient

        def dies_in_the_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            time.sleep(0.01)
            return score(*args)

        monkeypatch.setattr(expmc.bench, "gradient", dies_in_the_child)
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=1000)
        t0 = time.perf_counter()
        with within(60), pytest.raises(RuntimeError, match="exit code 3"):
            concentration_check(cfg, seed=68, out_dir=tmp_path)
        assert time.perf_counter() - t0 < 5.0  # not the 10 s of every replicate in the parent
        assert not (tmp_path / "concentration.csv").exists()
        assert_no_child_left()

    def test_no_fork_while_another_thread_runs(self, forks):
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=12)
        alone = concentration_check(cfg, seed=65).rows
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            beside_a_thread = concentration_check(cfg, seed=65).rows
        finally:
            release.set()
            other.join(timeout=10.0)
        assert not other.is_alive()
        assert len(forks) == (1 if expmc.bench._FORK else 0)
        assert beside_a_thread == alone

    def test_child_error_raised_in_the_parent_with_its_text(self, tmp_path, monkeypatch):
        def failing(*args):
            raise ValueError("no signs today")

        monkeypatch.setattr(expmc.bench, "rademacher_norm_estimate", failing)
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=5)
        with pytest.raises(RuntimeError if expmc.bench._FORK else ValueError, match="no signs today"):
            concentration_check(cfg, seed=63, out_dir=tmp_path)
        assert not (tmp_path / "concentration.csv").exists()
        assert_no_child_left()

    @pytest.mark.skipif(not expmc.bench._FORK, reason="the chain runs in-process, before the score loop")
    def test_score_loop_error_kills_the_child_and_propagates(self, tmp_path, monkeypatch):
        def slow(*args):
            time.sleep(60.0)
            return 0.0

        def failing(*args):
            raise ArithmeticError("score loop failed")

        monkeypatch.setattr(expmc.bench, "rademacher_norm_estimate", slow)
        monkeypatch.setattr(expmc.bench, "gradient", failing)
        cfg = make_cfg(m1=10, m2=9, n_grid=[300], reps=5)
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match="score loop failed"):
            concentration_check(cfg, seed=64, out_dir=tmp_path)
        assert time.perf_counter() - t0 < 30.0  # the child was killed, not waited out
        assert not (tmp_path / "concentration.csv").exists()
        assert_no_child_left()


class TestLowerBoundRun:
    def test_small_run(self, tmp_path):
        cfg = make_cfg(m1=8, m2=8, rank=2, n_grid=[600], replicates=1, alpha=0.1)
        res = lowerbound_run(cfg, seed=51, out_dir=tmp_path)
        summary = res.summary_rows[0]
        assert summary["conditions_passed"], res.reports[0].failures
        assert summary["cardinality"] >= 5
        assert summary["max_frob_risk"] >= 0
        assert summary["lower_bound_value"] > 0
        assert (tmp_path / "lower_bound.csv").exists()
        assert (tmp_path / "lower_bound_summary.csv").exists()
        assert (tmp_path / "packing_n600" / "manifest.json").exists()
        assert len(res.member_rows) == summary["cardinality"]

    def test_packing_is_built_along_the_longer_side(self, tmp_path):
        # A wide config gets the transpose of its tall twin's packing, so its
        # kappa and cardinality take max(m1, m2), as its rate values do.
        summaries, members = [], []
        for m1, m2 in ((16, 8), (8, 16)):
            cfg = make_cfg(m1=m1, m2=m2, rank=2, n_grid=[2000], alpha=0.1, lambda_mode=0.05)
            out = tmp_path / f"{m1}x{m2}"
            summaries.append(lowerbound_run(cfg, seed=3, out_dir=out).summary_rows[0])
            members.append([load_matrix_csv(p) for p in sorted((out / "packing_n2000").glob("member_*.csv"))])
        tall, wide = summaries
        assert tall["cardinality"] == 17 and tall["conditions_passed"] and wide["conditions_passed"]
        for key in ("kappa", "cardinality", "lower_bound_value", "delta_value"):
            assert tall[key] == wide[key], key
        assert len(members[0]) == len(members[1])
        for a, b in zip(*members):
            assert np.array_equal(a, b.T)

    @pytest.mark.parametrize("max_iters", [1, 20])
    def test_fits_short_of_tol_counted(self, max_iters):
        # At this small fixed lambda the members' fits need 17-26 iterations to reach tol.
        cfg = make_cfg(
            m1=8, m2=8, rank=2, n_grid=[600], replicates=1, alpha=0.1, lambda_mode=1e-3,
            solver={"max_iters": max_iters},
        )
        res = lowerbound_run(cfg, seed=51)
        rows, summary = res.member_rows, res.summary_rows[0]
        assert summary["n_not_converged"] == sum(not row["converged"] for row in rows)
        assert summary["max_frob_risk"] == max([row["frob_risk"] for row in rows if row["converged"]], default=0.0)
        if max_iters == 1:  # the one iterate is the zero start point
            assert summary["n_not_converged"] == len(rows)
            assert all(row["rank_hat"] == 0 for row in rows)
        else:
            assert 0 < summary["n_not_converged"] < len(rows)
            assert all(1 <= row["rank_hat"] <= 8 for row in rows)

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.5), (-1.0, 0.01)])
    def test_box_without_zero_or_the_amplitude_rejected(self, lo, hi):
        # [0.5, 1.5] excludes the zero member, [-1, 0.01] the amplitude kappa * gamma = 0.026.
        box = {"lo": lo, "hi": hi}
        cfg = make_cfg(m1=8, m2=8, rank=2, n_grid=[600], replicates=1, alpha=0.1, box=box, gamma=max(-lo, hi))
        with pytest.raises(ValueError, match="excludes a packing entry"):
            lowerbound_run(cfg, seed=1)

    def test_exponential_family_rejected(self):
        cfg = make_cfg(
            family={"family": "exponential"}, box={"lo": -2.0, "hi": -0.5}, gamma=2.0, truth="factor"
        )
        with pytest.raises(ValueError):
            lowerbound_run(cfg, seed=0)
