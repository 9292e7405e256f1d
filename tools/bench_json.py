"""Collect perfbench results into one ``BENCH_<tag>.json`` trajectory file.

Reads every ``result.json`` under the ``.perfbench_out/`` that
``perfbench/run.py`` writes in this checkout and writes, per workload:

* the benchmark seeds of the untraced runs and of the traced runs;
* the median over the untraced runs of each end-to-end metric that
  ``BENCHMARK.json`` names (scaled by the speed probe, as ``run.py``
  reports them) and of its unscaled value;
* the median final objective of the untraced runs' ops, when any op
  reports one (concentration ops fit nothing);
* the median over the traced runs of the work and quality counters that
  explain the time: SVT calls and seconds, SVD calls, the seconds spent
  in operator norms, in ``simulate``, in the family draws (``sample``), in
  the random-sign norm estimate and in ``interval_constants``, the seconds
  in the matrix and observation CSV writers and the bytes the writers
  wrote, solver iterations, median Frobenius risk and the failed share of
  ops.

On Linux, ``expmc concentration`` runs its random-sign chain in a forked
child process, which then shares the score replicates with its parent; the
child's tracer spans stay in its memory. So a traced
``concentration_pois100`` pass reads 0 for
``sampling.rademacher_norm_estimate.*`` (the chain's own operator norms and
cell draws were never wrapped), and its ``families.sample``,
``estimator.gradient`` and ``matops.operator_norm`` counters hold only the
parent's share of the score replicates, a share that varies from run to
run (about three quarters of the 500 on two cores). Only counters kept by
the library itself (ROADMAP item 6) would bring the rest back.

The machine block is the one the runs recorded; runs with differing
machine blocks are refused. That does not tell two builds of one checkout
apart: ``run.py`` records the checkout's HEAD also for uncommitted changes,
and replaces only the run directory it writes, so runs of an earlier build
at other seeds stay and are collected too. Empty ``.perfbench_out/``
before benchmarking a build, and check the seeds printed per workload.

    python3 tools/bench_json.py TAG

writes ``BENCH_TAG.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = tuple(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"])
TRACED = (
    "matops.svt.calls",
    "matops.svt.s",
    "linalg.svd.calls",
    "matops.operator_norm.s",
    "bench.simulate.s",
    "families.sample.s",
    "sampling.rademacher_norm_estimate.s",
    "families.interval_constants.s",
    "io.save_matrix_csv.s",
    "io.save_observations_csv.s",
    "io.bytes_written",
    "estimator.fit.iterations",
    "frob_risk_p50",
    "failed_frac",
)


def collect(results: Path) -> dict:
    runs = [json.loads(p.read_text()) for p in sorted(results.glob("*/result.json"))]
    if not runs:
        raise SystemExit(f"bench_json: no result.json under {results}")
    machines = {json.dumps(r["machine"], sort_keys=True) for r in runs}
    if len(machines) > 1:
        raise SystemExit(f"bench_json: the runs under {results} come from {len(machines)} machine blocks")
    workloads = {}
    for name in sorted({r["workload"] for r in runs}):
        plain = sorted((r for r in runs if r["workload"] == name and not r["trace"]), key=lambda r: r["seed"])
        traced = sorted((r for r in runs if r["workload"] == name and r["trace"]), key=lambda r: r["seed"])
        entry = {
            "seeds": [r["seed"] for r in plain],
            "traced_seeds": [r["seed"] for r in traced],
            "failed_ops": sum(r["failed"] for r in plain + traced),
        }
        if plain:
            entry["end_to_end_median"] = {
                k: statistics.median(r["end_to_end"][k] for r in plain) for k in END_TO_END
            }
            entry["end_to_end_unscaled_median"] = {
                k: statistics.median(r["end_to_end_unscaled"][k] for r in plain)
                for k in END_TO_END if k in plain[0]["end_to_end_unscaled"]
            }
        objectives = [op["objective"] for r in plain for op in r["ops"] if op["objective"] is not None]
        if objectives:
            entry["objective_median"] = statistics.median(objectives)
        if traced:
            entry["traced_median"] = {
                k: statistics.median(r["per_layer"][k] for r in traced) for k in TRACED
            }
        workloads[name] = entry
    return {"machine": runs[0]["machine"], "workloads": workloads}


def write(tag: str, bench: dict, path: Path) -> None:
    path.write_text(json.dumps({"tag": tag, **bench}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag")
    args = ap.parse_args(argv)
    bench = collect(ROOT / ".perfbench_out")
    out = ROOT / f"BENCH_{args.tag}.json"
    write(args.tag, bench, out)
    for name, entry in bench["workloads"].items():
        print(f"{name}: seeds {entry['seeds']}, traced seeds {entry['traced_seeds']}")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
