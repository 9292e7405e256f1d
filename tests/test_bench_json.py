import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)

MACHINE = {"nproc": 2, "git_commit": None}


def write_result(root, workload, seed, trace, scale, machine=MACHINE, ops=()):
    run = root / f"{workload}-seed{seed}-trace{int(trace)}"
    run.mkdir(parents=True)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine,
        "failed": 0,
        "end_to_end": {k: scale * (i + 1) for i, k in enumerate(bench_json.END_TO_END)},
        "end_to_end_unscaled": {k: scale for k in bench_json.END_TO_END if k != "peak_rss_mb"},
        "per_layer": {k: scale * 10 for k in bench_json.TRACED} if trace else {},
        "ops": [{"seed": seed, "objective": obj} for obj in ops],
    }
    (run / "result.json").write_text(json.dumps(result))


def test_medians_per_workload(tmp_path):
    for seed, scale in [(11, 1.0), (12, 3.0), (13, 2.0)]:
        write_result(tmp_path, "fit_binom300", seed, False, scale)
    write_result(tmp_path, "fit_binom300", 1, True, 5.0)
    write_result(tmp_path, "fit_binom300", 2, True, 7.0)
    out = tmp_path / "BENCH_x.json"
    bench_json.write("x", bench_json.collect(tmp_path), out)
    bench = json.loads(out.read_text())
    entry = bench["workloads"]["fit_binom300"]
    assert bench["tag"] == "x" and bench["machine"] == MACHINE
    assert entry["seeds"] == [11, 12, 13] and entry["traced_seeds"] == [1, 2]
    assert entry["end_to_end_median"] == {k: 2.0 * (i + 1) for i, k in enumerate(bench_json.END_TO_END)}
    assert entry["end_to_end_unscaled_median"]["wall_s"] == 2.0
    assert entry["traced_median"] == {k: 60.0 for k in bench_json.TRACED}


def test_objective_median_over_untraced_ops(tmp_path):
    write_result(tmp_path, "fit_ks_g60", 11, False, 1.0, ops=[0.5, None, 0.25])
    write_result(tmp_path, "fit_ks_g60", 12, False, 1.0, ops=[0.75])
    write_result(tmp_path, "fit_ks_g60", 1, True, 1.0, ops=[9.0, 9.0, 9.0])
    write_result(tmp_path, "concentration_pois100", 11, False, 1.0, ops=[None, None])
    workloads = bench_json.collect(tmp_path)["workloads"]
    assert workloads["fit_ks_g60"]["objective_median"] == 0.5
    assert "objective_median" not in workloads["concentration_pois100"]


def test_runs_from_two_machines_are_refused(tmp_path):
    write_result(tmp_path, "fit_ks_g60", 11, False, 1.0)
    write_result(tmp_path, "fit_ks_g60", 12, False, 1.0, machine={**MACHINE, "git_commit": "abc"})
    with pytest.raises(SystemExit, match="machine blocks"):
        bench_json.collect(tmp_path)


def test_traced_metrics_are_benchmark_layers():
    layers = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert "families.interval_constants.s" in bench_json.TRACED
    assert set(bench_json.TRACED) <= layers


def test_end_to_end_metrics_are_the_benchmarks():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert "wall_s" in bench_json.END_TO_END
    assert list(bench_json.END_TO_END) == names
