import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"

# A stand-in for perfbench/run.py: its wall_s is the number in speed.txt, its
# op0 writes payload.txt, whose digest it records for every pass, and its
# second pass is cut short before op1. It logs the tree it ran from, and
# whether that tree holds a file untracked.txt, to the file $AB_TREES_LOG.
FAKE_RUN = """
import argparse, hashlib, json, os, pathlib
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
digest = hashlib.sha256((root / "payload.txt").read_bytes()).hexdigest()
out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace0"
out.mkdir(parents=True, exist_ok=True)
result = {
    "seed": int(args.seed), "correct": True,
    "machine": {"nproc": 2, "git_commit": str(root)},
    "end_to_end": {"wall_s": float((root / "speed.txt").read_text()), "peak_rss_mb": 40.0},
    "pass_digests": [{"op0": {"payload.txt": digest}, "op1": {}}, {"op0": {"payload.txt": digest}}],
}
(out / "result.json").write_text(json.dumps(result))
with open(os.environ["AB_TREES_LOG"], "a") as log:
    log.write(f"{root} {(root / 'untracked.txt').exists()}\\n")
"""

BENCHMARK = {
    "workloads": [{"name": "toy"}],
    "end_to_end": [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}],
}


def git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True, text=True).stdout


@pytest.fixture
def toy(tmp_path):
    repo = tmp_path / "toy"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "tools").mkdir()
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "payload.txt").write_text("same output\n")
    (repo / "speed.txt").write_text("2.0\n")
    (repo / ".gitignore").write_text(".perfbench_out/\n")
    shutil.copy(TOOL, repo / "tools" / "ab.py")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "toy")
    return repo


def run_ab(repo, tmp_path, *args):
    tmp = tmp_path / "tmpdir"
    tmp.mkdir(exist_ok=True)
    log = tmp_path / "trees.log"
    log.unlink(missing_ok=True)
    (repo / "untracked.txt").write_text("not in either tree\n")
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "ab.py"), "HEAD", "--pairs", "3", "--seconds", "0.1", *args],
        cwd=repo, capture_output=True, text=True, env={**os.environ, "TMPDIR": str(tmp), "AB_TREES_LOG": str(log)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # Both builds ran from two temporary trees, neither of them this checkout,
    # and neither holds the untracked file.
    runs = [line.rsplit(" ", 1) for line in log.read_text().splitlines()]
    trees = {Path(tree) for tree, _ in runs}
    assert len(runs) == 6 and len(trees) == 2 and {seen for _, seen in runs} == {"False"}
    assert all(tree.parent.parent == tmp for tree in trees)
    assert list(tmp.iterdir()) == []  # the temporary directory is gone, with both trees in it
    assert len(git(repo, "worktree", "list").splitlines()) == 1  # and so are the worktrees
    assert git(repo, "stash", "list") == ""  # the snapshot left no stash entry
    return proc.stdout


def test_a_revision_against_itself_gives_equal_digests(toy, tmp_path):
    out = run_ab(toy, tmp_path)
    assert "toy: 3 pairs, seeds [0, 1, 2], ABBA order" in out
    assert "outputs: all 9 op digests equal" in out
    assert "machine blocks agree, leaving out git_commit" in out
    wall = next(line for line in out.splitlines() if line.strip().startswith("wall_s"))
    assert wall.split()[-2:] == ["0/3", "1.000"]  # equal times win no pair


def test_a_changed_output_and_a_faster_build_are_reported(toy, tmp_path):
    (toy / "payload.txt").write_text("other output\n")
    (toy / "speed.txt").write_text("1.0\n")
    (toy / ".perfbench_out" / "stale").mkdir(parents=True)
    out = run_ab(toy, tmp_path, "--seed", "5")
    assert "seeds [5, 6, 7]" in out
    assert "outputs: op0 digests differ at seeds [5, 6, 7], in payload.txt" in out
    wall = next(line for line in out.splitlines() if line.strip().startswith("wall_s"))
    assert wall.split()[1:3] == ["2", "[2,"] and wall.split()[-2:] == ["3/3", "0.500"]
    # The runs were made and removed in the temporary trees; this checkout's results are not touched.
    assert [p.name for p in (toy / ".perfbench_out").iterdir()] == ["stale"]
