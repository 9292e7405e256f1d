"""Record the reference objective of every op a benchmark seed can select.

    python3 perfbench/record_reference.py

Run once at the commit whose objectives are the reference; writes
``perfbench/reference.json``. Every op it records must pass every other
check, so the reference is only ever taken from correct fits.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    refs: dict[str, dict] = {}
    for w in WORKLOADS.values():
        if w.command not in ("fit", "rate-sweep"):
            continue
        workdir = run.OUT / f"reference-{w.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        (workdir / "config.json").write_text(json.dumps(w.config))
        runner = run.Runner(w, workdir, {})
        runner.run_pass(0, list(w.pool), None, None)
        bad = [op for op in runner.ops if op["reasons"] != ["no reference objective"]]
        if bad:
            print(f"{w.name}: failing ops, no reference recorded: {bad}", file=sys.stderr)
            return 1
        if w.command == "rate-sweep":
            refs[w.name] = {str(w.pool[0]): [op["objective"] for op in runner.ops]}
        else:
            refs[w.name] = {str(op["seed"]): op["objective"] for op in runner.ops}
        print(f"{w.name}: {len(runner.ops)} reference objectives", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
