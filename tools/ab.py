"""Interleaved A/B benchmark: a git revision against this checkout, with output identity.

    python3 tools/ab.py BASE [--workloads W ...] [--pairs N] [--seconds S] [--seed K]

Checks BASE out with ``git worktree add`` under a temporary directory and
empties ``.perfbench_out/`` in that tree and in this checkout (the change,
as its files stand, committed or not). Then, per workload, it runs each
tree's own ``perfbench/run.py --trace 0`` in pairs on the same seed, K + i
for pair i, in ABBA order: the base first in even pairs, the change first in
odd ones. Per end-to-end metric that this checkout's ``BENCHMARK.json``
names, it prints the base and change medians with their quartiles, the
pairs the change won and the worst pair ratio (change over base, the ratio
most against the change). It applies no bound of its own; the bounds stay
in ``BENCHMARK.json``.

Output identity: ``run.py`` records the SHA-256 of every output file of
every op per pass (``pass_digests``). The tool lists the ops whose digests
differ between the two builds on a pair's seed, or says that all agree.
The field ``machine.git_commit`` of ``result.json`` names the build, so it is
left out when the two builds' machine blocks are compared; no op output
names a commit. The worktree and its temporary directory are removed on
exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ".perfbench_out"
BUILD_NAMING = ("git_commit",)  # machine fields that differ between builds by construction


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run from ``tree``; its ``result.json``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ab: {' '.join(cmd)} failed in {tree}:\n{proc.stderr}")
    return json.loads((tree / OUT / f"{workload}-seed{seed}-trace0" / "result.json").read_text())


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def digest_differences(pairs: list[tuple[dict, dict]]) -> tuple[int, dict[str, list[int]]]:
    """Ops compared, and the seeds at which each op's digests differ, over the
    ops both runs of a pair ran in the same pass (a pass cut short by the
    time limit lacks its later ops)."""
    compared, differ = 0, {}
    for base, change in pairs:
        for a, b in zip(base["pass_digests"], change["pass_digests"]):
            for op in sorted(set(a) & set(b)):
                compared += 1
                if a[op] != b[op]:
                    seeds = differ.setdefault(op, [])
                    if base["seed"] not in seeds:
                        seeds.append(base["seed"])
    return compared, differ


def report(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    seeds = [base["seed"] for base, _ in pairs]
    lines = [f"{workload}: {len(pairs)} pairs, seeds {seeds}, ABBA order",
             f"  {'metric':<12} {'base median [q1, q3]':<28} {'change median [q1, q3]':<28} won   worst ratio"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [base["end_to_end"][name] for base, _ in pairs]
        c = [change["end_to_end"][name] for _, change in pairs]
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        ratios = [y / x if x else float("inf") for x, y in zip(b, c)]
        worst = max(ratios) if lower else min(ratios)
        (b1, b2, b3), (c1, c2, c3) = quartiles(b), quartiles(c)
        lines.append(f"  {name:<12} {f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<28} {f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':<28} "
                     f"{f'{won}/{len(pairs)}':<5} {worst:.3f}")
    compared, differ = digest_differences(pairs)
    if differ:
        for op, at in differ.items():
            lines.append(f"  outputs: {op} digests differ at seeds {at}")
    else:
        lines.append(f"  outputs: all {compared} op digests equal")
    strip = [{k: v for k, v in run["machine"].items() if k not in BUILD_NAMING} for pair in pairs for run in pair]
    agree = "agree" if all(s == strip[0] for s in strip) else "DIFFER"
    lines.append(f"  machine blocks {agree}, leaving out {', '.join(BUILD_NAMING)}, which names the build")
    failed = [f"{who} seed {run['seed']}" for pair in pairs for who, run in zip(("base", "change"), pair)
              if not run["correct"]]
    if failed:
        lines.append(f"  not correct: {', '.join(failed)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision to compare this checkout against")
    ap.add_argument("--workloads", nargs="+", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    base_tree = tmp / "base"
    subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
                   cwd=ROOT, check=True)
    try:
        for tree in (base_tree, ROOT):
            shutil.rmtree(tree / OUT, ignore_errors=True)
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [base_tree, ROOT] if i % 2 == 0 else [ROOT, base_tree]
                runs = {tree: run_once(tree, workload, seed, args.seconds) for tree in order}
                pairs.append((runs[base_tree], runs[ROOT]))
            print("\n".join(report(workload, pairs, bench["end_to_end"])), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, check=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
