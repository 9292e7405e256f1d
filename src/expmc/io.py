"""CSV and manifest serialization.

Formats:

* matrices — headerless CSV, one matrix row per line, shortest
  round-trip decimal representation (bit-exact float64 round trips);
* observations — CSV with header ``i,row,col,y``; ``i`` and the cell
  indices are 1-based on disk, converted to 0-based arrays in memory;
* result tables — CSV whose header is the first row's keys, which
  every row must repeat in the same order;
* manifests — sorted-key JSON recording config, seed, config hash and
  library versions (no timestamps, so reruns are reproducible).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .sampling import ObservationSet

__all__ = [
    "fmt_value",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_observations_csv",
    "load_observations_csv",
    "write_rows_csv",
    "config_hash",
    "write_manifest",
]


def fmt_value(v) -> str:
    """Deterministic text form: shortest round-trip repr for floats."""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _creating(path) -> Path:
    """``path`` as a Path, with its parent directory created if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def save_matrix_csv(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    lines = [",".join(map(repr, row)) for row in a.tolist()]
    _creating(path).write_text("\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)


_OBS_HEADER = "i,row,col,y"
_OBS_BLOCK = 8192  # rows formatted per write, so no copy of the whole file is held


def save_observations_csv(path, obs: ObservationSet) -> None:
    with open(_creating(path), "w") as fh:
        fh.write(_OBS_HEADER + "\n")
        for start in range(0, obs.n, _OBS_BLOCK):
            block = slice(start, start + _OBS_BLOCK)
            rows, cols, ys = obs.rows[block].tolist(), obs.cols[block].tolist(), obs.ys[block].tolist()
            fh.write("".join(
                f"{i},{r + 1},{c + 1},{y!r}\n" for i, r, c, y in zip(range(start + 1, obs.n + 1), rows, cols, ys)
            ))


def load_observations_csv(path, m1: int, m2: int) -> ObservationSet:
    """Read an observations CSV.

    Rejects a wrong header, fractional indices and an ``i`` column that is
    not 1..n in order.
    """
    with open(path) as fh:
        header = fh.readline().strip()
    if header != _OBS_HEADER:
        raise ValueError(f"observations CSV must have the header {_OBS_HEADER}, got {header!r}")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    if raw.shape[1] != 4:
        raise ValueError(f"observations CSV must have columns {_OBS_HEADER}")
    idx = raw[:, 1:3]
    if not np.all(idx == np.round(idx)):
        raise ValueError("observation row/col indices must be integers")
    if not np.array_equal(raw[:, 0], np.arange(1, raw.shape[0] + 1)):
        raise ValueError("observations CSV column i must count 1..n in order")
    return ObservationSet(
        m1=m1,
        m2=m2,
        rows=raw[:, 1].astype(np.int64) - 1,
        cols=raw[:, 2].astype(np.int64) - 1,
        ys=raw[:, 3],
    )


def write_rows_csv(path, rows: list[dict]) -> None:
    """Write dict rows under the first row's keys as the header.

    Every row must have exactly those keys in that order, else ValueError.
    """
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0])
    lines = [",".join(header)]
    for k, row in enumerate(rows):
        if list(row) != header:
            raise ValueError(f"row {k} has keys {list(row)}, the header is {header}")
        lines.append(",".join(map(fmt_value, row.values())))
    _creating(path).write_text("\n".join(lines) + "\n")


def config_hash(config: dict) -> str:
    """Short stable hash of the canonical JSON form of a config dict."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def write_manifest(out_dir, command: str, config: dict, seed: int) -> Path:
    import platform

    import scipy

    from . import __version__

    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "expmc": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    path = _creating(Path(out_dir) / "manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
