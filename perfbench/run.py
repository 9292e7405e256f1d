"""expmc benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fit_binom300 --seed 3 --seconds 20 --trace 0

Runs from the root of a source checkout: the expmc package is imported
from ``src/`` there, and its CLI commands are driven in-process through
click, so the ``cli`` and ``io`` layers are measured with the numerical
ones. BLAS is pinned to one thread in this process before numpy loads.

``--trace 0`` measures the end-to-end metrics, with times scaled for the
machine's speed by an interleaved probe (see ``SpeedProbe``). ``--trace 1``
runs every pass twice, untraced and then traced with identical inputs,
reports the per-layer metrics of the traced passes, the tracing overhead
(traced minus untraced wall time) and fails any op whose output bytes
differ between the two. Op outputs, ``result.json`` and ``spans.jsonl`` go to
``.perfbench_out/`` in the checkout. The last stdout line is the result
as one JSON object.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import SLOPE_WINDOW, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
TAIL_BEYOND = 10
# Ops run until --seconds have passed; none starts that is expected to end
# after HARD_STOP_FACTOR * --seconds (long single-call passes on a slow core).
HARD_STOP_FACTOR = 1.5
# Speed probe. On a shared 2-vCPU VM the speed of one core switches between
# a fast and a slow state within seconds (a bare 60x60 SVD loop takes 24 or
# 38 ms per 40 calls, CPU time equal to wall time), and the share of slow
# time drifts over minutes (binomial 300x300 fits took 2.0-2.6 s and, twenty
# minutes later, 2.9-3.2 s). A fixed LAPACK job the size of the workload's
# matrices, which no expmc change can alter, runs between ops and at most
# every PROBE_EVERY_S inside CLI calls; every reported time is scaled by the
# reference probe time over the run's mean probe time. Unscaled times stay
# in result.json.
PROBE_EVERY_S = 0.25
PROBE_REF_S = {60: 0.017, 100: 0.0093, 300: 0.027}  # median probe times, 2-vCPU VM
TICK_POINTS = (("expmc.estimator", "gradient"), ("expmc.bench", "simulate"))
_svd = np.linalg.svd  # bound before a tracer patches numpy.linalg.svd

# Fresh-process set-up: import the package and its CLI, write and parse the
# workload config. argv: src dir, config path, config JSON.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import expmc, expmc.cli
from expmc.bench import ExperimentConfig
with open(sys.argv[2], "w") as fh:
    fh.write(sys.argv[3])
with open(sys.argv[2]) as fh:
    ExperimentConfig.from_dict(json.load(fh))
"""


def measure_setup(config_path: Path, config: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path), json.dumps(config)],
            check=True, cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return times


class SpeedProbe:
    """Times a fixed SVD job; keeps (start, end) of every probe run."""

    def __init__(self, m: int):
        self.a = np.random.default_rng(0).standard_normal((m, m))
        self.reps = max(1, round(20 * (60 / m) ** 3))
        self.ref_s = PROBE_REF_S[m]
        self.runs: list[tuple[float, float]] = []
        self._saved = []

    def run(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            _svd(self.a, full_matrices=False)
        self.runs.append((t0, time.perf_counter()))

    def inside(self, a: float, b: float) -> float:
        """Probe seconds inside the interval [a, b]."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.runs)

    def scale(self) -> float:
        return self.ref_s / statistics.fmean(e - s for s, e in self.runs)

    def install(self) -> None:
        """Probe after calls to TICK_POINTS once PROBE_EVERY_S has passed."""
        for module, attr in TICK_POINTS:
            owner = importlib.import_module(module)
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._ticked(fn))

    def _ticked(self, fn):
        def ticked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if time.perf_counter() - self.runs[-1][1] >= PROBE_EVERY_S:
                self.run()
            return out
        return ticked

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, as (value, percentile).

    Taken per complete pass, so the percentile is fixed by the workload and
    not by how many passes fit in the run. With fewer than 2 * TAIL_BEYOND
    samples that percentile would sit at or below the median, so the
    maximum (percentile 100) is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tree_digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


class SweepCapture:
    """Times each fit inside a rate sweep (an op) and keeps what its check needs.

    Wraps ``expmc.bench.fit`` and ``expmc.bench.gen_truth`` where the sweep
    looks them up; the i-th fit belongs to the i-th generated truth.
    """

    def __init__(self):
        self.fits: list[dict] = []
        self.truths: list[np.ndarray] = []
        self._saved = []

    def install(self):
        import expmc.bench

        fit, gen_truth = expmc.bench.fit, expmc.bench.gen_truth
        self._saved = [("fit", fit), ("gen_truth", gen_truth)]

        def timed_fit(problem, *args, **kwargs):
            t0 = time.perf_counter()
            result = fit(problem, *args, **kwargs)
            t1 = time.perf_counter()
            obs = problem.obs
            self.fits.append({
                "interval": (t0, t1),
                "x_hat": np.array(result.x_hat),
                "lam": float(problem.lam),
                "objective": float(result.objective_trace[-1]),
                "converged": bool(result.converged),
                "sums": checks.cell_sums(obs.m1, obs.m2, obs.rows, obs.cols, obs.ys),
            })
            return result

        def kept_truth(*args, **kwargs):
            truth = gen_truth(*args, **kwargs)
            self.truths.append(truth.x_bar)
            return truth

        expmc.bench.fit, expmc.bench.gen_truth = timed_fit, kept_truth

    def uninstall(self):
        import expmc.bench

        for attr, original in self._saved:
            setattr(expmc.bench, attr, original)
        self._saved = []


class Runner:
    def __init__(self, workload: Workload, workdir: Path, references: dict):
        self.w = workload
        self.workdir = workdir
        self.references = references
        self.config_path = workdir / "config.json"
        self.ops: list[dict] = []  # one record per op: latency, failure reasons, risk
        self.call_times: list[float] = []  # seconds of each CLI call
        self.probe = SpeedProbe(workload.config["m1"])

    def _cli(self, seed: int, out: Path) -> None:
        import expmc.cli

        args = [self.w.command, "--config", str(self.config_path), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            expmc.cli.main.main(args, prog_name="expmc", standalone_mode=False)

    def run_pass(self, index: int, cli_seeds: list[int], trace: tracer.Tracer | None,
                 stop_at: tuple[float, float] | None = None) -> dict:
        """One pass of ops; returns its wall time and output digests.

        With ``stop_at = (soft, hard)`` clock times, the pass stops between
        ops once ``soft`` has passed or when the next CLI call, at the
        median call time so far, would end after ``hard``; a pass cut short
        is not complete.
        """
        pass_dir = self.workdir / f"pass{index}"
        digests, complete, wall, calls, n_ops = {}, True, 0.0, 0, len(self.ops)
        self.probe.run()
        for k, cli_seed in enumerate(cli_seeds):
            now = time.perf_counter()
            if stop_at is not None and (
                now >= stop_at[0] or now + statistics.median(self.call_times) > stop_at[1]
            ):
                complete = False
                break
            out = pass_dir / f"op{k}"
            capture = SweepCapture() if self.w.command == "rate-sweep" else None
            hooks = [h for h in (trace, capture, None if trace else self.probe) if h is not None]
            for h in hooks:
                h.install()
            error = None
            t0 = time.perf_counter()
            try:
                self._cli(cli_seed, out)
            except Exception as exc:  # an op that raises is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            for h in reversed(hooks):
                h.uninstall()
            latency = t1 - t0 - self.probe.inside(t0, t1)
            self.probe.run()
            self.call_times.append(latency)
            wall += latency
            calls += 1
            for op in self._check(cli_seed, out, latency, error, capture):
                op["traced"] = trace is not None
                self.ops.append(op)
            if out.is_dir():
                digests[f"op{k}"] = tree_digest(out)
                shutil.rmtree(out)
        shutil.rmtree(pass_dir, ignore_errors=True)
        latencies = [op["latency"] for op in self.ops[n_ops:]]
        return {"wall": wall, "complete": complete, "calls": calls, "digests": digests,
                "latencies": latencies}

    def _check(self, cli_seed, out, latency, error, capture) -> list[dict]:
        """Op records of one CLI call: one per fit for a sweep, else one."""
        cfg = self.w.config
        if capture is not None:
            refs = self.references.get(str(cli_seed), [])
            n_fits = len(cfg["n_grid"]) * cfg["replicates"]
            common = [error] if error else []
            if not error:
                try:
                    common = checks.check_sweep_outputs(out, n_fits, SLOPE_WINDOW)
                except (OSError, ValueError, KeyError, StopIteration) as exc:
                    common = [f"sweep outputs unreadable: {exc!r}"]
            if len(capture.fits) != n_fits:
                common.append(f"{len(capture.fits)} fits ran, expected {n_fits}")
            ops = []
            for i, f in enumerate(capture.fits):
                reasons, obj = checks.check_fit(
                    cfg, f["x_hat"], f["lam"], f["objective"], f["converged"], f["sums"],
                    refs[i] if i < len(refs) else None,
                )
                risk = checks.frob_risk(f["x_hat"], capture.truths[i]) if i < len(capture.truths) else math.nan
                t0, t1 = f["interval"]
                latency_fit = t1 - t0 - self.probe.inside(t0, t1)
                ops.append(_op(cli_seed, latency_fit, common + reasons, risk, obj))
            return ops or [_op(cli_seed, latency, common or ["no fits ran"])]
        if error:
            return [_op(cli_seed, latency, [error])]
        try:
            if self.w.is_fit:
                reasons, risk, obj = checks.check_fit_outputs(cfg, out, self.references.get(str(cli_seed)))
                return [_op(cli_seed, latency, reasons, risk, obj)]
            return [_op(cli_seed, latency, checks.check_concentration_outputs(cfg, out))]
        except (OSError, ValueError, KeyError) as exc:
            return [_op(cli_seed, latency, [f"outputs unreadable: {exc!r}"])]


def _op(seed, latency, reasons, risk=math.nan, objective=math.nan) -> dict:
    return {"seed": seed, "latency": latency, "reasons": reasons, "risk": risk, "objective": objective}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the full result (see ``result.json``)."""
    w = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    references = json.loads((HERE / "reference.json").read_text()).get(name, {})

    setup_times = measure_setup(workdir / "config.json", w.config)
    import expmc.cli  # noqa: F401  (imported untimed; set-up is measured above)

    runner = Runner(w, workdir, references)
    cli_seeds = w.pass_seeds(seed)
    rss_before = peak_rss_mb()
    rss_first_pass = None
    untraced, traced, tracers = [], [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    hard_deadline = t_start + HARD_STOP_FACTOR * seconds
    mismatched = 0
    while True:
        first = not untraced
        p = runner.run_pass(len(untraced) + len(traced), cli_seeds, None,
                            None if (first or trace) else (deadline, hard_deadline))
        if p["calls"]:
            untraced.append(p)
        if rss_first_pass is None:
            rss_first_pass = peak_rss_mb()
        if trace:
            t = tracer.Tracer()
            n_before = len(runner.ops)
            q = runner.run_pass(len(untraced) + len(traced), cli_seeds, t)
            traced.append(q)
            tracers.append(t)
            if q["digests"] != p["digests"]:
                mismatched += 1
                for op in runner.ops[n_before:]:
                    op["reasons"].append("outputs differ between the traced and untraced runs")
        if not p["complete"] or time.perf_counter() >= deadline:
            break

    latencies = [op["latency"] for op in runner.ops if not op["traced"]]
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op["reasons"])
    risks = [op["risk"] for op in runner.ops if math.isfinite(op["risk"])]
    complete = [p for p in untraced if p["complete"]]
    tails = [tail(p["latencies"]) for p in complete]
    tail_pct = tails[0][1]
    dense_mb = w.config["m1"] * w.config["m2"] * 8 / 2**20
    raw = {
        "wall_s": statistics.median(p["wall"] for p in complete),
        "op_s_p50": statistics.median(latencies),
        "op_s_tail": statistics.median(t for t, _ in tails),
        "setup_s": statistics.median(setup_times),
    }
    scale = runner.probe.scale()
    end_to_end = {
        **{k: (v * scale, "s") for k, v in raw.items()},
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    quality = {
        "failed_frac": (failed / attempted, "ratio"),
        "frob_risk_p50": (statistics.median(risks) if risks else 0.0, "mse"),
        "op.samples": (len(latencies), "count"),
        "op_s_tail.pct": (tail_pct, "%"),
        "mem.dense_mxm_mb": (dense_mb, "MB"),
        "mem.rss_before_ops_mb": (rss_before, "MB"),
        "mem.first_pass_growth_mb": (rss_first_pass - rss_before, "MB"),
        "mem.first_pass_growth_dense": ((rss_first_pass - rss_before) / dense_mb, "count"),
    }
    per_layer = {}
    if trace:
        layer_runs = [tracer.summarize(t.spans) for t in tracers]
        for key in layer_runs[0]:
            per_layer[key] = (statistics.median(r[key] for r in layer_runs), tracer.unit(key))
        untraced_wall = statistics.median(p["wall"] for p in untraced)
        traced_wall = statistics.median(q["wall"] for q in traced)
        per_layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        per_layer["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        per_layer["trace.mismatched_passes"] = (mismatched, "count")
        per_layer.update(quality)
        with open(workdir / "spans.jsonl", "w") as fh:
            for i, t in enumerate(tracers):
                fh.write(json.dumps({"pass": i, "spans": len(t.spans)}) + "\n")
                t.write_to(fh)

    metrics = per_layer if trace else end_to_end
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "config": w.config,
        "cli_seeds": cli_seeds,
        "setup_times_s": setup_times,
        "speed_scale": scale,
        "probe_s": [e - s for s, e in runner.probe.runs],
        "end_to_end_unscaled": raw,
        "pass_walls_s": [p["wall"] for p in untraced],
        "traced_pass_walls_s": [q["wall"] for q in traced],
        "pass_latencies_s": [p["latencies"] for p in untraced],
        "pass_digests": [p["digests"] for p in untraced],
        "traced_pass_digests": [q["digests"] for q in traced],
        "measured_s": time.perf_counter() - t_start,
        "tail": {"percentile": tail_pct, "per_pass_samples": len(complete[0]["latencies"]),
                 "passes": len(complete), "beyond": TAIL_BEYOND},
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "quality": {k: v for k, (v, _) in quality.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "ops": [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in op.items()}
                for op in runner.ops],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (SRC / "expmc" / "__init__.py").is_file():
        print(f"perfbench: no expmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']!r} {m['unit']}")
    for key, v in result["end_to_end_unscaled"].items():
        print(f"{args.workload} unscaled {key} = {v!r} s")
    print(f"{args.workload} speed scale = {result['speed_scale']!r}")
    for op in result["ops"]:
        if op["reasons"]:
            print(f"FAILED op seed={op['seed']}: {'; '.join(op['reasons'])}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
