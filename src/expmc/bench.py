"""Experiment harness: the config-file format, synthetic problems, rate
sweeps, oracle-inequality runs, concentration checks and lower-bound runs,
with CSV persistence.

A parsed config owns its sampling scheme and the box constants, each built
once, on first use, and every replicate is drawn through
:meth:`ExperimentConfig.replicate`: the truth, the observations and the
problem at penalty level zero. Replicates use derived seeds ``(seed,
n_index, replicate)``, and the concentration check's score replicates
``(seed, 3, replicate)``, so a run is reproducible from its config and seed
alone, whichever process computes a replicate: identical inputs produce
byte-identical CSV output. Every emitted row carries the config hash.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimator import (
    C_STAR,
    KNOWN_SAMPLING,
    LIKELIHOOD,
    CompletionProblem,
    FitResult,
    SolverConfig,
    fit,
    gradient,
    oracle_lambda,
    theorem_lambda,
)
from .families import Binomial, Exponential, ExponentialFamily, Gaussian, IntervalConstants, ParameterBox, Poisson
from .io import config_hash, load_matrix_csv, write_rows_csv
from .lowerbound import build_packing, kappa, save_packing, verify_conditions
# nuclear_norm is not called here; perfbench/tracer.py counts its calls here.
from .matops import nuclear_norm, numerical_rank, operator_norm  # noqa: F401
from .metrics import bound_value, frobenius_risk, oracle_inequality_check, risk_report
from .sampling import CellSummary, ObservationSet, SamplingScheme, rademacher_norm_estimate, uniform_scheme

__all__ = [
    "ExperimentConfig",
    "family_from_config",
    "family_to_config",
    "box_from_config",
    "scheme_from_config",
    "solver_from_config",
    "GroundTruth",
    "gen_truth",
    "simulate",
    "simulate_cells",
    "resolve_lambda",
    "fit_columns",
    "rate_sweep",
    "RateSweepResult",
    "oracle_check",
    "OracleCheckResult",
    "concentration_check",
    "ConcentrationResult",
    "lowerbound_run",
    "LowerBoundResult",
]

LAMBDA_MODES = ("oracle", "theorem_likelihood", "theorem_known_sampling")
_LAMBDA_FLOOR = 1e-12  # keeps emitted penalty levels positive on noiseless data
_RADEMACHER_REPS = 25  # random-sign draws behind each sweep row's norm estimate
# The fit's extrapolation history is float32, and so are its inner products: the
# Gram matrix of its move differences and their products with the move.
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# A forked child runs beside its parent only on Linux: Windows has no fork, and
# macOS's Accelerate BLAS is not fork-safe.
_FORK = sys.platform == "linux"
# Every top-level key some command reads; any other key is a mistake.
_CONFIG_KEYS = frozenset({
    "family", "sampling", "m1", "m2", "rank", "gamma", "box", "n_grid", "n",
    "replicates", "lambda_mode", "mode", "noiseless", "truth", "solver",
    "alpha", "reps", "truth_path", "observations_path",
})


def int_from_config(value, key: str, minimum: int | None = None) -> int:
    """An integer config value, at least ``minimum`` when one is given; a bool,
    a non-integral number or a smaller value is a ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"config key {key!r} must be >= {minimum}, got {value!r}")
    return int(value)


def float_from_config(value, key: str) -> float:
    """A real config value; a bool, a non-number or a non-finite number is a ValueError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _typed_from_config(value, key: str, kind: type, text: str):
    """``value`` if it is a ``kind``, else a ValueError naming ``key`` that says it must be ``text``."""
    if not isinstance(value, kind):
        raise ValueError(f"config key {key!r} must be {text}, got {value!r}")
    return value


def check_config_keys(spec: dict, what: str, required=(), optional=()) -> None:
    """Reject a ``what`` that is not a JSON object, lacks a ``required`` key or
    has a key that is neither required nor ``optional``, naming the key."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a JSON object, got {spec!r}")
    missing = set(required) - set(spec)
    if missing:
        raise ValueError(f"{what} is missing keys: {sorted(missing)}")
    unknown = set(spec) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


# Config-file form of each model: its class and the fields it reads, with their parsers.
_FAMILY_CONFIG = {
    "gaussian": (Gaussian, {"sigma": float_from_config}),
    "binomial": (Binomial, {"trials": int_from_config}),
    "poisson": (Poisson, {}),
    "exponential": (Exponential, {}),
}


def family_from_config(spec: dict) -> ExponentialFamily:
    """Build a model from its config-file form, e.g. ``{"family": "gaussian", "sigma": 1.0}``."""
    names = sorted(_FAMILY_CONFIG)
    name = spec.get("family") if isinstance(spec, dict) else None
    if name not in names:
        raise ValueError(f"config key 'family' must be an object naming one of {names}, got {spec!r}")
    cls, fields = _FAMILY_CONFIG[name]
    check_config_keys(spec, f"{name} config", {"family"}, fields)
    return cls(**{key: parse(spec[key], key) for key, parse in fields.items() if key in spec})


def family_to_config(family: ExponentialFamily) -> dict:
    fields = _FAMILY_CONFIG[family.name][1]
    return {"family": family.name, **{key: getattr(family, key) for key in fields}}


def box_from_config(spec: dict) -> ParameterBox:
    """Build a box from its config-file form ``{"lo": -1.0, "hi": 1.0}``."""
    check_config_keys(spec, "box config", {"lo", "hi"})
    return ParameterBox(float_from_config(spec["lo"], "lo"), float_from_config(spec["hi"], "hi"))


def _sampling_kind(spec: dict) -> str:
    """``"uniform"`` or ``"table"``, once the sampling spec's keys and path check out; opens no file."""
    kind = spec.get("sampling", "uniform") if isinstance(spec, dict) else None
    if kind not in ("uniform", "table"):
        raise ValueError(f"config key 'sampling' must be an object naming 'uniform' or 'table', got {spec!r}")
    check_config_keys(spec, f"{kind} sampling config", {"path"} if kind == "table" else (), {"sampling"})
    if kind == "table":
        _typed_from_config(spec["path"], "path", str, "a string")
    return kind


def scheme_from_config(spec: dict, m1: int, m2: int) -> SamplingScheme:
    """Build the ``m1 x m2`` scheme of a config file.

    ``{"sampling": "uniform"}`` is the uniform table; ``{"sampling":
    "table", "path": "pi.csv"}`` loads a headerless CSV table, which must
    have shape ``(m1, m2)``; every error names the file.
    """
    if _sampling_kind(spec) == "uniform":
        return uniform_scheme(m1, m2)
    pi = load_matrix_csv(spec["path"])
    if pi.shape != (m1, m2):
        raise ValueError(f"sampling table {spec['path']} has shape {pi.shape}, expected {(m1, m2)}")
    try:
        return SamplingScheme(pi)
    except ValueError as exc:
        raise ValueError(f"sampling table {spec['path']}: {exc}") from None


def solver_from_config(spec: dict) -> SolverConfig:
    """Build the solver settings from the config's ``solver`` block, e.g. ``{"tol": 1e-9}``."""
    check_config_keys(spec, "solver config", optional=SolverConfig.__dataclass_fields__)
    parse = {"max_iters": int_from_config}
    return SolverConfig(**{key: parse.get(key, float_from_config)(value, key) for key, value in spec.items()})


@dataclass(eq=False)
class ExperimentConfig:
    """Parsed experiment description; ``raw`` keeps the config as loaded for the hash and the manifest."""

    family: ExponentialFamily
    box: ParameterBox
    sampling_spec: dict
    m1: int
    m2: int
    rank: int
    n_grid: list[int]
    n_single: int
    replicates: int
    lambda_mode: str | float
    mode: str
    noiseless: bool
    truth_style: str
    solver: SolverConfig
    alpha: float
    reps: int
    raw: dict
    truth_path: str | None = None
    observations_path: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_config_keys(d, "config", {"family", "m1", "m2"}, _CONFIG_KEYS)
        family = family_from_config(d["family"])
        if "box" in d:
            box = box_from_config(d["box"])
            if "gamma" in d and float_from_config(d["gamma"], "gamma") != box.radius:
                raise ValueError(f"gamma {d['gamma']} differs from the box radius {box.radius}")
        else:
            box = ParameterBox.symmetric(float_from_config(d.get("gamma", 1.0), "gamma"))
        family.variance_bounds(box)
        m1, m2 = int_from_config(d["m1"], "m1", 1), int_from_config(d["m2"], "m2", 1)
        # The risks square the distance between two matrices in the box, and the fit's
        # extrapolation takes float32 inner products of differences of its iterates
        # with each other and with its move.
        diameter = 2.0 * box.radius
        if not m1 * m2 * diameter * diameter <= _FLOAT32_MAX:
            raise ValueError(
                f"config key {'box' if 'box' in d else 'gamma'!r}: m1 * m2 * (2 * radius)^2 exceeds "
                f"the float32 range ({_FLOAT32_MAX:.3g}) at box radius {box.radius!r}"
            )
        n_single = int_from_config(d["n"], "n", 1) if "n" in d else None
        n_grid = _typed_from_config(d.get("n_grid", [n_single] if "n" in d else []), "n_grid", list, "a list")
        n_grid = [int_from_config(v, "n_grid", 1) for v in n_grid]
        if not n_grid:
            raise ValueError("config needs an n_grid (or a single n)")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        rank = int_from_config(d.get("rank", 1), "rank")
        if not 1 <= rank <= min(m1, m2):
            raise ValueError("rank must satisfy 1 <= rank <= min(m1, m2)")
        lambda_mode = d.get("lambda_mode", "oracle")
        if not isinstance(lambda_mode, str):
            lambda_mode = float_from_config(lambda_mode, "lambda_mode")
            if lambda_mode < 0:
                raise ValueError(f"config key 'lambda_mode' must be >= 0, got {lambda_mode!r}")
            if not math.isfinite(lambda_mode * lambda_mode):  # the bounds square the penalty level
                raise ValueError(f"config key 'lambda_mode': its square overflows, got {lambda_mode!r}")
        elif lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be a number or one of {LAMBDA_MODES}")
        mode = d.get("mode", LIKELIHOOD)
        if mode not in (LIKELIHOOD, KNOWN_SAMPLING):
            raise ValueError(f"mode must be {LIKELIHOOD!r} or {KNOWN_SAMPLING!r}, got {mode!r}")
        truth_style = d.get("truth", "factor")
        if truth_style not in ("factor", "flat"):
            raise ValueError("truth must be 'factor' or 'flat'")
        sampling_spec = d.get("sampling", {"sampling": "uniform"})
        _sampling_kind(sampling_spec)
        return cls(
            family=family,
            box=box,
            sampling_spec=sampling_spec,
            m1=m1,
            m2=m2,
            rank=rank,
            n_grid=n_grid,
            n_single=n_grid[0] if n_single is None else n_single,
            replicates=int_from_config(d.get("replicates", 1), "replicates", 1),
            lambda_mode=lambda_mode,
            mode=mode,
            noiseless=_typed_from_config(d.get("noiseless", False), "noiseless", bool, "true or false"),
            truth_style=truth_style,
            solver=solver_from_config(d.get("solver", {})),
            alpha=float_from_config(d.get("alpha", 0.1), "alpha"),
            reps=int_from_config(d.get("reps", 200), "reps", 1),
            raw=d,
            **{key: _typed_from_config(d[key], key, str, "a string")
               for key in ("truth_path", "observations_path") if key in d},
        )

    @property
    def gamma(self) -> float:
        """Sup-norm radius of the box, the amplitude bound the risk bounds take."""
        return self.box.radius

    @functools.cached_property
    def scheme(self) -> SamplingScheme:
        """The configured sampling scheme; a table is loaded from its file on first use."""
        return scheme_from_config(self.sampling_spec, self.m1, self.m2)

    @functools.cached_property
    def constants(self) -> IntervalConstants:
        """The family's interval constants over the box, computed on first use."""
        return self.family.interval_constants(self.box)

    def truth(self, rng: np.random.Generator) -> GroundTruth:
        """A random truth of the configured size, rank, box and style."""
        return gen_truth(self.m1, self.m2, self.rank, self.box, rng, style=self.truth_style)

    def problem(self, obs: ObservationSet) -> CompletionProblem:
        """The configured problem on ``obs`` at penalty level zero."""
        return CompletionProblem(
            obs=obs, family=self.family, box=self.box, lam=0.0, mode=self.mode, scheme=self.scheme
        )

    def replicate(
        self, n: int, rng: np.random.Generator, truth: GroundTruth | None = None
    ) -> tuple[GroundTruth, CompletionProblem]:
        """The truth (drawn from ``rng`` unless given), then ``n`` observations
        drawn from ``rng`` at it, with the configured problem on them at
        penalty level zero."""
        if truth is None:
            truth = self.truth(rng)
        obs = simulate(truth, self.family, self.scheme, n, rng, noiseless=self.noiseless)
        return truth, self.problem(obs)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def family_label(self) -> str:
        spec = family_to_config(self.family)
        extra = [f"{k}={v}" for k, v in spec.items() if k != "family"]
        return spec["family"] + (f"({','.join(extra)})" if extra else "")


@dataclass(eq=False)
class GroundTruth:
    """Low-rank parameter matrix inside the box."""

    x_bar: np.ndarray


def gen_truth(
    m1: int,
    m2: int,
    r: int,
    box: ParameterBox,
    rng: np.random.Generator,
    style: str = "factor",
) -> GroundTruth:
    """Random rank-<= r matrix with entries strictly inside the box.

    ``style="factor"`` (default): when the box straddles zero, a rescaled
    product of standard normal factors with sup norm
    ``0.95 * min(|lo|, |hi|)``. One-sided boxes (e.g. the exponential
    model's negative domain) use positive factors so that a pure rescale
    — never a rank-increasing shift — lands every entry inside the box;
    boxes too thin for that fall back to a constant matrix at the
    midpoint.

    ``style="flat"``: random sign patterns on ``r`` disjoint column
    blocks, every entry at magnitude ``0.95 * min(|lo|, |hi|)`` and rank
    exactly ``r``. Factor-style truths concentrate most entries far
    below the box radius, which leaves rate experiments at desk scale
    under the detection threshold; flat truths put the signal at the
    scale the rank/sup-norm class allows, so risk-versus-rate scaling is
    observable on desk-sized grids. Requires a box straddling zero.
    """
    if not 1 <= r <= min(m1, m2):
        raise ValueError("rank must satisfy 1 <= r <= min(m1, m2)")

    if style == "flat":
        if not box.lo < 0.0 < box.hi:
            raise ValueError("flat truth style needs a box straddling zero")
        amp = 0.95 * min(-box.lo, box.hi)
        x = np.zeros((m1, m2))
        edges = np.linspace(0, m2, r + 1).astype(int)
        for j in range(r):
            u = rng.integers(0, 2, m1) * 2.0 - 1.0
            w = rng.integers(0, 2, edges[j + 1] - edges[j]) * 2.0 - 1.0
            x[:, edges[j] : edges[j + 1]] = np.outer(u, w)
        return GroundTruth(x_bar=amp * x)
    if style != "factor":
        raise ValueError(f"unknown truth style {style!r}")

    if box.lo < 0.0 < box.hi:
        a = rng.standard_normal((m1, r))
        b = rng.standard_normal((m2, r))
        x = a @ b.T
        target = 0.95 * min(-box.lo, box.hi)
        x *= target / max(float(np.abs(x).max()), 1e-300)
        return GroundTruth(x_bar=x)

    sign = 1.0 if box.lo > 0 else -1.0
    near = min(abs(box.lo), abs(box.hi))
    far = max(abs(box.lo), abs(box.hi))
    rho = math.sqrt(0.9 * far / near)
    if rho <= 1.001:
        x = np.full((m1, m2), 0.5 * (box.lo + box.hi))
        return GroundTruth(x_bar=x)
    a = rng.uniform(1.0, rho, (m1, r))
    b = rng.uniform(1.0, rho, (m2, r))
    p = a @ b.T
    x = sign * (0.95 * far / float(p.max())) * p
    return GroundTruth(x_bar=x)


def simulate(
    truth: GroundTruth,
    family: ExponentialFamily,
    scheme: SamplingScheme,
    n: int,
    rng: np.random.Generator,
    noiseless: bool = False,
) -> ObservationSet:
    """Draw n cells from the scheme and one observation per cell at the truth."""
    m1, m2 = truth.x_bar.shape
    rows, cols = scheme.draw(n, rng)
    vals = truth.x_bar.reshape(-1)[rows * m2 + cols]
    ys = family.mean(vals) if noiseless else family.sample(vals, rng)
    return ObservationSet(m1=m1, m2=m2, rows=rows, cols=cols, ys=ys)


def simulate_cells(
    truth: GroundTruth,
    family: ExponentialFamily,
    scheme: SamplingScheme,
    n: int,
    rng: np.random.Generator,
    noiseless: bool = False,
) -> CellSummary:
    """Draw n cells from the scheme as :func:`simulate` does, then one value per
    observed cell: the sum of its ``k`` observations at the truth, drawn from the
    exact law of that sum, or ``k G'(x)`` when noiseless. No single observation is
    drawn, so the values differ from :func:`simulate`'s from the same generator."""
    counts = scheme.counts(n, rng)
    seen = np.flatnonzero(counts)
    k, vals = counts.reshape(-1)[seen], truth.x_bar.reshape(-1)[seen]
    sums = np.zeros(counts.shape)
    sums.reshape(-1)[seen] = k * family.mean(vals) if noiseless else family.sample(vals, rng, k)
    return CellSummary(counts, sums)


def resolve_lambda(cfg: ExperimentConfig, probe: CompletionProblem, x_bar: np.ndarray | None) -> float:
    """Penalty level for one replicate according to the configured mode.

    ``probe`` is the replicate's problem at penalty level zero; its sample
    size and scheme feed the prescribed levels. ``x_bar`` is read in
    oracle mode only.
    """
    if isinstance(cfg.lambda_mode, (int, float)):
        return float(cfg.lambda_mode)
    if cfg.lambda_mode == "oracle":
        return max(oracle_lambda(probe, x_bar), _LAMBDA_FLOOR)
    which = LIKELIHOOD if cfg.lambda_mode == "theorem_likelihood" else KNOWN_SAMPLING
    return theorem_lambda(which, cfg.constants, probe.scheme, probe.obs.n, cfg.solver.c_gamma)


def fit_columns(result: FitResult) -> dict:
    """The result columns every fitting output shares: the penalty level of the
    fit, whether it converged and its iteration count, in that order."""
    return {"lambda": result.lambda_used, "converged": result.converged, "iterations": result.iterations}


def _fit_replicate(cfg, n, rng, truth=None):
    """Draw one replicate, resolve its penalty level and fit it."""
    truth, probe = cfg.replicate(n, rng, truth)
    problem = probe.with_lambda(resolve_lambda(cfg, probe, truth.x_bar))
    return truth, problem, fit(problem, cfg.solver)


def sample_size_threshold(consts, scheme: SamplingScheme) -> float:
    """Sample size above which the prescribed likelihood penalty level is valid.

    ``2 log(d) m max((delta^2/sigma_hi^2) log^2(delta sqrt(m/sigma_lo^2)), 1/9) / nu``.
    The solver never enforces this; sweeps report whether each n clears it.
    """
    d = scheme.m1 + scheme.m2
    m = min(scheme.m1, scheme.m2)
    nu = scheme.nu_constant()
    delta = consts.delta_gamma
    inner = delta * math.sqrt(m / consts.sigma_lo_sq)
    lead = (delta**2 / consts.sigma_hi_sq) * math.log(inner) ** 2
    return 2.0 * math.log(d) * m * max(lead, 1.0 / 9.0) / nu


def _beside_child(child, main=lambda: None, item=None, count: int = 0):
    """Return ``child()``, ``main()`` and ``[item(0), ..., item(count - 1)]``,
    with ``child`` run in one forked child while this process runs ``main``.

    Once done, each process claims items: the child after ``child``, this
    process after ``main``. The claim is one 8-byte token in a pipe, holding
    the next index: a process reads it and writes back index + 1 at once, so
    neither holds it while it works (a pipe reads and writes 8 bytes, at most
    ``PIPE_BUF``, atomically). The child replies once, with one pickle of
    ``child()``'s value, its ``{index: value}`` items and its error, so
    ``item`` must depend on its index alone, not on which process calls it or
    in what order. ``child`` and ``item`` may return any picklable value; it
    comes back equal, a float bit for bit. In the child, a value that does not
    pickle is an exception.

    An exception in the child is raised here, with the child's traceback as its
    cause: the exception itself when it survives pickling, else a RuntimeError.
    A child that dies without replying is a RuntimeError naming its exit code.
    An error here kills and reaps the child first. No child outlives the call,
    and the child leaves only by ``os._exit``, so it runs none of this
    process's cleanup. Where :data:`_FORK` is false, or another thread runs (a
    forked child gets a copy of the locks those threads hold, and no thread to
    release them), everything runs in-process: ``child``, ``main``, then each
    item in order."""
    if not (_FORK and threading.active_count() == 1):
        return child(), main(), [item(i) for i in range(count)]
    token_r, token_w = os.pipe()
    os.write(token_w, bytes(8))
    read_fd, write_fd = os.pipe()

    def claim() -> int:
        index = int.from_bytes(os.read(token_r, 8), "little")
        os.write(token_w, (index + 1).to_bytes(8, "little"))
        return index

    pid = os.fork()
    if pid == 0:
        # The child leaves only by os._exit, which flushes no buffer and runs no
        # atexit handler, and it never unwinds into the parent's copied stack.
        status = 1
        try:
            os.close(read_fd)
            try:
                value, items = child(), {}
                while (index := claim()) < count:
                    items[index] = item(index)
                reply = pickle.dumps((value, items, None))
            except Exception as exc:
                import traceback

                try:  # the exception itself, when it comes back out of a pickle
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = None
                reply = pickle.dumps((None, {}, (traceback.format_exc(), exc)))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(reply)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe, running, values = os.fdopen(read_fd, "rb"), True, {}
    try:
        import select  # imported where a child runs only

        result = main()
        ready = select.poll()
        ready.register(token_r, select.POLLIN)
        ready.register(read_fd, select.POLLIN)
        # The child replies after its last claim, or on an error, or it dies:
        # either way, stop claiming once the reply pipe is readable.
        while read_fd not in dict(ready.poll()) and (index := claim()) < count:
            values[index] = item(index)
        reply = pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        running = False
    finally:
        pipe.close()
        os.close(token_r)
        os.close(token_w)
        if running:
            import signal  # imported on the error path only

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0 or not reply:
        raise RuntimeError(f"the forked child process failed (exit code {status})")
    value, items, error = pickle.loads(reply)
    if error is not None:
        text, exc = error
        if exc is None:
            raise RuntimeError(f"the forked child process failed:\n{text}")
        raise exc from RuntimeError(f"in the forked child process:\n{text}")
    values.update(items)
    return value, result, [values[i] for i in range(count)]


@dataclass(eq=False)
class RateSweepResult:
    rows: list[dict]
    medians: dict[int, float]
    slope: float
    intercept: float


def rate_sweep(cfg: ExperimentConfig, seed: int, out_dir=None) -> RateSweepResult:
    """Risk-versus-rate sweep over the n grid.

    Emits one row per (n, replicate) with risks, the evaluated bound
    expressions and the rate predictor ``max(m1,m2) rank log(m1+m2) / n``,
    plus the fitted log-log slope of the per-n median risk against the
    predictor (non-convergent fits are excluded from the slope).

    The likelihood bound reads the random-sign norm estimate of each n, from
    its own generator ``(seed, 7001, n_index)``, and no fit. So on Linux a
    forked child computes the estimates while this process draws and fits
    every replicate (see :func:`_beside_child`), keeping of each fit only
    its row, which holds the penalty level, and the truth's nuclear norm;
    the bound columns are filled in once the estimates have come back, bit
    for bit. The rows do not depend on it.
    """
    scheme, consts = cfg.scheme, cfg.constants
    mu = scheme.mu_constant()
    nu = scheme.nu_constant()
    big_m = max(cfg.m1, cfg.m2)
    log_d = math.log(cfg.m1 + cfg.m2)
    n_threshold = sample_size_threshold(consts, scheme)
    chash = cfg.hash
    lo_sq_sq = consts.sigma_lo_sq * consts.sigma_lo_sq
    if not (lo_sq_sq > 0.0 and 1.0 / lo_sq_sq < math.inf):  # the bounds divide by it
        key = (f"family key 'sigma' {cfg.family.sigma!r}" if isinstance(cfg.family, Gaussian)
               else f"config key {'box' if 'box' in cfg.raw else 'gamma'!r} [{cfg.box.lo}, {cfg.box.hi}]")
        raise ValueError(f"{key}: the curvature bound sigma_lo^2 = {consts.sigma_lo_sq!r} squared underflows")

    def random_sign_norms() -> list[float]:
        return [
            rademacher_norm_estimate(scheme, n, _RADEMACHER_REPS, np.random.default_rng([seed, 7001, i_n]))
            for i_n, n in enumerate(cfg.n_grid)
        ]

    def fitted_rows() -> tuple[list[dict], list[tuple]]:
        # Each row without its bound columns, and its n index and truth's nuclear norm besides.
        rows, held = [], []
        for i_n, n in enumerate(cfg.n_grid):
            for rep in range(cfg.replicates):
                rng = np.random.default_rng([seed, i_n, rep])
                truth, problem, result = _fit_replicate(cfg, n, rng)
                s_bar = np.linalg.svd(truth.x_bar, compute_uv=False)  # the rank and the nuclear norm
                rows.append({
                    "config_hash": chash,
                    "family": cfg.family_label,
                    "mode": cfg.mode,
                    "m1": cfg.m1, "m2": cfg.m2, "rank": cfg.rank, "gamma": cfg.gamma,
                    "n": n, "replicate": rep,
                    "lambda_mode": cfg.lambda_mode, **fit_columns(result),
                    "n_condition_ok": n >= n_threshold,
                    **risk_report(cfg.family, scheme, problem.counts, result.x_hat, truth.x_bar, s_bar),
                    "predictor": big_m * cfg.rank * log_d / n,
                })
                held.append((i_n, float(s_bar.sum())))
        return rows, held

    rads, (rows, held), _ = _beside_child(random_sign_norms, fitted_rows)
    for row, (i_n, nuclear_norm_bar) in zip(rows, held):
        bounds = bound_value(
            m1=cfg.m1, m2=cfg.m2, n=row["n"], rank=cfg.rank, gamma=cfg.gamma,
            mu=mu, nu=nu, lam=row["lambda"],
            sigma_lo_sq=consts.sigma_lo_sq, sigma_hi_sq=consts.sigma_hi_sq,
            l_gamma=consts.l_gamma, c_gamma=cfg.solver.c_gamma,
            rademacher_norm=rads[i_n], nuclear_norm_bar=nuclear_norm_bar,
        )
        row.update({f"bound_{name}": val for name, val in bounds.items()})

    medians: dict[int, float] = {}
    for n in cfg.n_grid:
        risks = [row["frob_risk"] for row in rows if row["n"] == n and row["converged"]]
        if risks:
            medians[n] = float(np.median(risks))
    if len(medians) >= 2 and all(v > 0 for v in medians.values()):
        xs = np.log([big_m * cfg.rank * log_d / n for n in medians])
        ys = np.log([medians[n] for n in medians])
        slope, intercept = (float(v) for v in np.polyfit(xs, ys, 1))
    else:
        slope, intercept = math.nan, math.nan

    if out_dir is not None:
        out = Path(out_dir)
        write_rows_csv(out / "rate_sweep.csv", rows)
        write_rows_csv(
            out / "rate_sweep_slope.csv",
            [{"config_hash": chash, "slope": slope, "intercept": intercept, "n_points": len(medians)}],
        )
    return RateSweepResult(rows=rows, medians=medians, slope=slope, intercept=intercept)


@dataclass(eq=False)
class OracleCheckResult:
    rows: list[dict]
    all_passed: bool


def _rank_truncations(x_bar: np.ndarray, r: int) -> list[np.ndarray]:
    u, s, vt = np.linalg.svd(x_bar, full_matrices=False)
    return [(u[:, :k] * s[:k]) @ vt[:k, :] for k in range(1, r + 1)]


def oracle_check(cfg: ExperimentConfig, seed: int, out_dir=None) -> OracleCheckResult:
    """Known-sampling fits checked against both oracle trade-off inequalities.

    The penalty is the larger of the score level at the truth and the
    prescribed level; candidates are the truth, the zero matrix and the
    rank-k truncations of the truth (boxed candidates only).
    """
    if cfg.mode != KNOWN_SAMPLING:
        raise ValueError("oracle_check requires mode == known_sampling")
    scheme, consts = cfg.scheme, cfg.constants
    mu = scheme.mu_constant()
    chash = cfg.hash
    slack = 10.0 * cfg.solver.tol

    rows = []
    for i_n, n in enumerate(cfg.n_grid):
        thm = theorem_lambda(KNOWN_SAMPLING, consts, scheme, n, cfg.solver.c_gamma)
        for rep in range(cfg.replicates):
            rng = np.random.default_rng([seed, i_n, rep])
            truth, probe = cfg.replicate(n, rng)
            required = oracle_lambda(probe, truth.x_bar)
            lam = max(required, thm)
            result = fit(probe.with_lambda(lam), cfg.solver)
            candidates = [truth.x_bar, np.zeros_like(truth.x_bar)]
            candidates += _rank_truncations(truth.x_bar, cfg.rank)
            candidates = [c for c in candidates if cfg.box.contains(c, tol=1e-12)]
            rows.append({
                "config_hash": chash, "family": cfg.family_label,
                "m1": cfg.m1, "m2": cfg.m2, "rank": cfg.rank, "n": n, "replicate": rep,
                **fit_columns(result), "required_lambda": required,
                **oracle_inequality_check(
                    cfg.family, scheme, result.x_hat, truth.x_bar, lam, mu,
                    consts.sigma_lo_sq, candidates, slack=slack, required_lambda=required,
                ),
                "n_candidates": len(candidates),
            })

    all_passed = all(row["passed_flat"] and row["passed_rank"] for row in rows)
    if out_dir is not None:
        write_rows_csv(Path(out_dir) / "oracle_check.csv", rows)
    return OracleCheckResult(rows=rows, all_passed=all_passed)


@dataclass(eq=False)
class ConcentrationResult:
    rows: list[dict]
    rademacher_estimate: float
    rademacher_bound: float
    exceedance_frequency: float


def concentration_check(cfg: ExperimentConfig, seed: int, out_dir=None) -> ConcentrationResult:
    """Monte-Carlo concentration diagnostics for the sampling scheme and score.

    Emits the random-sign norm estimate with its closed-form mean bound
    ``c* sigma_Z sqrt(2 e log(d) / n)`` (``sigma_Z^2 = nu / m`` and
    ``c* = 1 + sqrt(3)``), the Monte-Carlo distribution of the score
    operator norm at the truth against half the prescribed penalty, and
    the exceedance frequency with target ``1/d``. The score reads only the
    per-cell counts and sums, so each replicate draws them through
    :func:`simulate_cells`: its ``n`` cells, then one sum per observed cell.

    Score replicate ``rep`` draws from its own generator, ``(seed, 3,
    rep)``, independent of the random-sign chain's. So on Linux a forked
    child runs the random-sign chain and then shares the score replicates
    with this process, each claiming the next one when it is free (see
    :func:`_beside_child`). The outputs do not depend on the split:
    every value comes back bit for bit and the rows are merged in replicate
    order.
    """
    scheme = cfg.scheme
    n = cfg.n_single
    d = cfg.m1 + cfg.m2
    m = min(cfg.m1, cfg.m2)
    nu = scheme.nu_constant()
    chash = cfg.hash

    precondition_ok = n >= m * math.log(d) / (9.0 * nu)
    sigma_z = math.sqrt(nu / m)
    rad_bound = C_STAR * sigma_z * math.sqrt(2.0 * math.e * math.log(d) / n)
    level = theorem_lambda(LIKELIHOOD, cfg.constants, scheme, n, cfg.solver.c_gamma) / 2.0

    def row(metric: str, replicate: int, value: float, reference: float) -> dict:
        return {
            "config_hash": chash, "metric": metric, "replicate": replicate, "n": n,
            "value": value, "reference_value": reference,
            "satisfied": value <= reference, "precondition_ok": precondition_ok,
        }

    rad_rng = np.random.default_rng([seed, 1])
    truth = cfg.truth(np.random.default_rng([seed, 2]))

    def score_norm(rep: int) -> float:
        rng = np.random.default_rng([seed, 3, rep])
        cells = simulate_cells(truth, cfg.family, scheme, n, rng, noiseless=cfg.noiseless)
        probe = CompletionProblem(obs=cells, family=cfg.family, box=cfg.box, lam=0.0, mode=LIKELIHOOD)
        return operator_norm(gradient(probe, truth.x_bar))

    rad_est, _, gnorms = _beside_child(
        lambda: rademacher_norm_estimate(scheme, n, cfg.reps, rad_rng), item=score_norm, count=cfg.reps
    )
    freq = sum(gnorm > level for gnorm in gnorms) / cfg.reps
    rows = [
        row("rademacher_norm", -1, rad_est, rad_bound),
        *(row("grad_norm", rep, gnorm, level) for rep, gnorm in enumerate(gnorms)),
        row("grad_exceedance", -1, freq, 1.0 / d),
    ]

    if out_dir is not None:
        write_rows_csv(Path(out_dir) / "concentration.csv", rows)
    return ConcentrationResult(
        rows=rows, rademacher_estimate=rad_est, rademacher_bound=rad_bound,
        exceedance_frequency=freq,
    )


@dataclass(eq=False)
class LowerBoundResult:
    member_rows: list[dict]
    summary_rows: list[dict]
    reports: list


def lowerbound_run(cfg: ExperimentConfig, seed: int, out_dir=None) -> LowerBoundResult:
    """Build and verify a packing, then fit each member as a synthetic truth.

    Reports the max-over-members Frobenius risk of the converged fits next
    to the lower-bound rate value, with the number of members whose fit did
    not converge and so is left out of that maximum. Each member's row
    carries the numerical rank of its estimate, ``rank_hat``. The run does
    not show that achievable risk sits above the rate: at the sizes
    measured so far every member's fit is the zero matrix. The packing is
    built along the longer side, so its ``kappa`` takes ``max(m1, m2)``, as
    the rate does. Its entries are 0 and ``kappa * gamma``, so a box that
    does not contain both, at every n, is rejected before any fit.
    """
    sigma_hi_sq = cfg.constants.sigma_hi_sq
    chash = cfg.hash
    big_m = max(cfg.m1, cfg.m2)
    amps = [kappa(cfg.alpha, big_m, cfg.rank, cfg.gamma, sigma_hi_sq, n) * cfg.gamma for n in cfg.n_grid]
    if not cfg.box.contains([0.0, *amps]):
        raise ValueError(f"box [{cfg.box.lo}, {cfg.box.hi}] excludes a packing entry among 0 and {amps}")

    member_rows = []
    summary_rows = []
    reports = []
    for i_n, n in enumerate(cfg.n_grid):
        rng = np.random.default_rng([seed, 11, i_n])
        packing = build_packing(cfg.m1, cfg.m2, cfg.rank, cfg.gamma, cfg.alpha, sigma_hi_sq, n, rng)
        report = verify_conditions(packing, cfg.family, cfg.scheme, n, cfg.box)
        reports.append(report)

        max_risk, n_not_converged = 0.0, 0
        for j, member in enumerate(packing.members):
            mem_rng = np.random.default_rng([seed, 12, i_n, j])
            truth = GroundTruth(x_bar=member)
            _, _, result = _fit_replicate(cfg, n, mem_rng, truth)
            risk = frobenius_risk(result.x_hat, member)
            if result.converged:
                max_risk = max(max_risk, risk)
            else:
                n_not_converged += 1
            member_rows.append({
                "config_hash": chash, "n": n, "member": j, **fit_columns(result),
                "frob_risk": risk, "rank_hat": numerical_rank(result.x_hat),
            })

        summary_rows.append({
            "config_hash": chash, "n": n, "kappa": packing.kappa,
            "cardinality": report.cardinality, "cardinality_target": report.cardinality_target,
            "max_frob_risk": max_risk, "n_not_converged": n_not_converged,
            "lower_bound_value": report.lower_bound_value,
            "delta_value": report.delta_value,
            "separation_ok": "separation" not in report.failures,
            "kl_ok": "kl_average" not in report.failures,
            "membership_ok": not any(
                f in report.failures for f in ("entry_values", "sup_norm", "rank", "cardinality")
            ),
            "conditions_passed": report.passed,
        })
        if out_dir is not None:
            save_packing(packing, Path(out_dir) / f"packing_n{n}", seed=seed)

    if out_dir is not None:
        out = Path(out_dir)
        write_rows_csv(out / "lower_bound.csv", member_rows)
        write_rows_csv(out / "lower_bound_summary.csv", summary_rows)
    return LowerBoundResult(member_rows=member_rows, summary_rows=summary_rows, reports=reports)
