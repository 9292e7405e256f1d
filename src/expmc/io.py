"""CSV and manifest serialization.

Formats:

* matrices — headerless CSV, one matrix row per line;
* observations — CSV with header ``i,row,col,y``; ``i`` and the cell
  indices are 1-based on disk, converted to 0-based arrays in memory;
* result tables — CSV whose header is the first row's keys, which
  every row must repeat in the same order;
* manifests — sorted-key JSON recording config, seed, config hash,
  library versions, and the BLAS numpy was built against with the thread
  settings that steer it (no timestamps, so reruns are reproducible).
  Byte-identical outputs hold for one BLAS and thread setting.

A float's text is the same as Python's shortest round-trip ``repr``
(``-0.0`` keeps its sign), so a file reads back bit-exact. Matrices and
observations are written in numpy blocks of up to 4,096 values: the digits
of a finite normal ``|x|`` in ``[1e-4, 2**53)``, where ``repr`` writes fixed
notation, come from exact integer arithmetic on the block. The other values
go through ``repr`` one at a time: ±0, subnormals, ``|x| < 1e-4`` or
``>= 2**53``, infinities, NaNs, and the exact ties between two shortest
candidates. A block in which at most half the values are distinct (a flat
truth, 0/1 or count observations) puts each distinct value through ``repr``
once and gathers its text.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# Text is built in numpy blocks of at most _BLOCK values: one uint8 row per
# value, its bytes among NUL padding that the write drops.
_BLOCK = 4096

_M32 = np.uint64(0xFFFFFFFF)
_HIDDEN = np.uint64(1 << 52)  # the implicit leading bit of a normal float64's significand
# float(10**e) for e = -5..16. Each is at or above the real 10**e, so for a
# float |x| >= _TENS[e + 5] exactly when |x| >= 10**e.
_TENS = np.array([float(f"1e{e}") for e in range(-5, 17)])
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_POW5 = np.array([5**k for k in range(22)], dtype=np.uint64)
# The four digits of 0..9999 as one 4-byte word. Words are only taken and
# viewed as bytes, so the byte order is the text order on any platform.
_DIGIT_WORDS = np.stack(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1), axis=1) + ord("0")
_DIGIT_WORDS = _DIGIT_WORDS.view(np.uint32).ravel()
_COMMA_WORD = np.frombuffer(b",\0\0\0", np.uint32)[0]
for _table in (_TENS, _POW10, _POW5, _DIGIT_WORDS):
    _table.setflags(write=False)  # constants, never state one call leaves for the next
del _table


def _product(a: np.ndarray, b: np.ndarray):
    """``(hi, lo)``: the 128-bit products ``a·b = hi·2^64 + lo`` of uint64
    arrays below ``2^56``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + a0 * b1
    lo = low + (mid << 32)
    return a1 * b1 + (mid >> 32) + (lo < low), lo


def _interval(x: np.ndarray):
    """``|x|·10^k`` and its rounding interval, in exact integer arithmetic.

    Returns ``(e, v, f, s, low, high, fast)``. Where ``fast`` holds, ``|x|``
    is a normal float in ``[1e-4, 2**53)`` and ``e = floor(log10 |x|)``;
    with ``k = 17 - e``, ``|x|·10^k = v + f / 2^s`` lies in ``[10^17, 10^18)``,
    and ``low``, ``high`` are the least and greatest integers whose value
    times ``10^-k`` reads back as ``|x|``. Elsewhere the results are in range
    but meaningless.

    With ``x = c·2^q``, ``|x|·10^k`` is ``N / 2^s`` for the 128-bit
    ``N = 4c·5^k``, built from 32-bit limbs, and ``s = 2 - q - k``. The
    interval's ends lie ``2·5^k / 2^s`` above it and ``2·5^k / 2^s`` below
    it, or ``5^k / 2^s`` at a power of two, and belong to it iff ``c`` is
    even, as a correctly rounded read rounds half to even. Every integer
    array stays uint64: a mix with int64 promotes to float64 and loses bits.
    """
    bits = x.view(np.uint64)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 2.0**53)
    e2 = np.where(fast, (bits >> 52 & 0x7FF).astype(np.int64) - 1023, 0)  # floor(log2 |x|)
    e = (e2 * 78913) >> 18  # floor(e2·log10 2): floor(log10 |x|) or one below it
    e += ax >= _TENS[e + 6]
    s = (37 - e2 + e).astype(np.uint64)  # 2 - q - k, with q = e2 - 52 and k = 17 - e
    c = bits & (_HIDDEN - 1) | _HIDDEN
    b = _POW5[17 - e]
    hi, lo = _product(c << 2, b)
    mask = (np.uint64(1) << s) - 1
    v = (hi << 1 << (63 - s)) | (lo >> s)  # hi << (64 - s) in two steps: s may be 0
    f = lo & mask

    odd = c & 1
    slack = mask * odd  # rounds an excluded end's quotient past it
    high = v + ((f + (b << 1) + slack) >> s) - odd
    b[c != _HIDDEN] <<= 1  # the gap below: half the one above at a power of two
    low = v + 1 + odd - ((b + mask + 1 - f + slack) >> s)
    return e, v, f, s, low, high, fast


def _shortest(x: np.ndarray):
    """Shortest round-trip digits of the float64 entries of ``x``.

    Returns ``(digits, e, nd, fast)``. Where ``fast`` holds, as for
    ``_interval``, ``digits · 10^(e - 17)`` with ``digits`` in
    ``[10^17, 10^18)`` is the number with the fewest significant digits,
    ``nd``, that reads back as ``|x|``, the one nearest ``|x|`` among them:
    the digits of ``repr(x)``. An exact tie between the two nearest is not
    ``fast``. Elsewhere the results are in range but meaningless.
    """
    e, v, f, _, low, high, fast = _interval(x)
    # 10^j: the largest power of ten with a multiple in [low, high], j found
    # bit by bit. Past 10^17 only the meaningless rows go on, to j <= 19.
    j = np.zeros(x.size, np.int64)
    qh, ql = high, low - 1
    for step in (16, 8, 4, 2, 1):
        dh, dl = qh // 10**step, ql // 10**step
        more = dh != dl
        qh, ql = np.where(more, dh, qh), np.where(more, dl, ql)
        j += step * more
    p = _POW10[j]
    r = v % p
    below = v - r
    above = below + p
    below_ok, above_ok = below >= low, above <= high
    twice = r << 1
    digits = np.where(((twice < p) & below_ok) | ~above_ok, below, above)
    tie = (twice == p) & (f == 0) & below_ok & above_ok
    return digits, e, 18 - j, fast & ~tie


# A float's text is two windows of a source row around a point column: the
# row holds a margin, the digits d_0..d_17 from byte _D0 on, then NULs.
_D0 = 22  # the 4-digit words "00d_0d_1", ... fill bytes 20..39, 4-byte aligned
_INT_COLS = 17  # sign and up to 16 integer digits (|x| < 2**53)
_FRAC_COLS = 21  # up to 20 fraction digits (|x| >= 1e-4) and the separator
_ROW = _D0 + 18 + _FRAC_COLS - 1  # the fraction window of e = 15 ends at the last byte
_ZERO = np.uint8(ord("0"))


def _text_each(x: np.ndarray):
    """``repr`` of each entry of the 1-d float64 ``x``.

    Returns ``(text, stop)``: row k of the uint8 block ``text`` holds the
    bytes of ``repr(x[k])`` among NULs, and ``text[k, stop[k]]`` is the NUL
    just after them, where a separator keeps the row one run of bytes.
    """
    digits, e, nd, fast = _shortest(x)
    n = x.size
    words = np.empty((n, 5), np.intp)
    words[:, 0], rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    words[:, 1], words[:, 2] = np.divmod(high, 10**4)
    words[:, 3], words[:, 4] = np.divmod(low, 10**4)
    row = np.zeros((n, _ROW), np.uint8)
    row.view(np.uint32)[:, 5:10] = _DIGIT_WORDS[words]
    # Past the last digit shown: the zeros up to the point and of ddd.0 stay.
    end = np.maximum(nd, e + 2)
    row[:, _D0:_D0 + 18] *= np.arange(18) < end[:, None]
    # The sign just before d_0 or, below 1, before "0" + "." + "000d_0".
    small = e < 0
    sign = np.signbit(x) * np.uint8(ord("-"))
    row[:, _D0 - 5] = small * sign
    row[:, _D0 - 4:_D0 - 1] = small[:, None] * _ZERO
    row[:, _D0 - 1] = np.where(small, _ZERO, sign)

    text = np.empty((n, _INT_COLS + 1 + _FRAC_COLS), np.uint8)
    every = np.arange(n)
    int_end = np.where(small, _D0 - 3, _D0 + e + 1)
    text[:, :_INT_COLS] = sliding_window_view(row, _INT_COLS, axis=1)[every, int_end - _INT_COLS]
    text[:, _INT_COLS] = ord(".")
    text[:, _INT_COLS + 1:] = sliding_window_view(row, _FRAC_COLS, axis=1)[every, _D0 + e + 1]
    stop = _INT_COLS + end - e
    if not fast.all():
        rows = np.flatnonzero(~fast)
        start = _INT_COLS - 3  # "0.0" where "1.0" stands, and the longest repr fits
        reprs, stop[rows] = _repr_text(x[rows], start)
        text[rows] = 0
        text[rows, :reprs.shape[1]] = reprs
    return text, stop


def _repr_text(x: np.ndarray, start: int = 0):
    """``repr`` of each entry of the 1-d float64 ``x``, one at a time, as
    ``_text_each`` gives it, with the text from column ``start`` on and one
    NUL column after the longest."""
    reprs = list(map(repr, x.tolist()))
    chars = np.array(reprs, dtype="S").view(np.uint8).reshape(x.size, -1)
    text = np.zeros((x.size, start + chars.shape[1] + 1), np.uint8)
    text[:, start:-1] = chars
    return text, start + np.array(list(map(len, reprs)))


def _float_text(x: np.ndarray):
    """``repr`` of each entry of the 1-d float64 block ``x``, as ``_text_each`` gives it.

    When at most half the entries are distinct, each distinct value goes
    through ``repr`` once and its text is gathered. Values are told apart by
    their bits, so ``0.0`` and ``-0.0``, and NaNs of other bit patterns, stay
    apart.
    """
    bits = x.view(np.uint64)
    ordered = np.sort(bits)
    new = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(new)) > x.size:
        return _text_each(x)
    distinct = np.concatenate([ordered[:1], ordered[1:][new]])
    text, stop = _repr_text(distinct.view(np.float64))
    at = np.searchsorted(distinct, bits)
    return text[at], stop[at]


def _index_fields(first: int, count: int) -> np.ndarray:
    """The text ``"k,"`` of ``k = first, ..., first + count - 1`` (``first >= 1``),
    one uint8 row each, right-aligned after NUL padding."""
    last = first + count - 1
    words = -(-len(str(last)) // 4)
    cells = np.empty((count, words + 1), np.uint32)
    k = np.arange(first, last + 1, dtype=np.uint64)
    for w in range(words - 1, -1, -1):
        k, low = np.divmod(k, 10**4)
        cells[:, w] = _DIGIT_WORDS[low]
    cells[:, words] = _COMMA_WORD
    text = cells.view(np.uint8)
    for digits in range(1, 4 * words):  # the rows k < 10^digits: blank the zeros before them
        text[:max(10**digits - first, 0), :4 * words - digits] = 0
    return text


def _write_rows(fh, block: np.ndarray) -> None:
    """Write the rows of the uint8 text block one after another, without their NULs."""
    fh.write(block[block != 0].tobytes())


def save_matrix_csv(path, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m1, m2 = a.shape
    values = a.reshape(-1)
    with open(_creating(path), "wb") as fh:
        if values.size == 0:
            fh.write(b"\n" * max(m1, 1))  # empty lines, or one newline for no rows
        for start in range(0, values.size, _BLOCK):
            text, stop = _float_text(values[start:start + _BLOCK])
            k = np.arange(len(text))
            text[k, stop] = np.where((start + k + 1) % m2 == 0, ord("\n"), ord(","))
            _write_rows(fh, text)


def load_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)


_OBS_HEADER = "i,row,col,y"


def save_observations_csv(path, obs: ObservationSet) -> None:
    # "k," for every 1-based row and column index k, gathered by 0-based index.
    row_text = _index_fields(1, obs.m1)
    col_text = _index_fields(1, obs.m2)
    with open(_creating(path), "wb") as fh:
        fh.write(_OBS_HEADER.encode() + b"\n")
        for start in range(0, obs.n, _BLOCK):
            block = slice(start, start + _BLOCK)
            ys, stop = _float_text(obs.ys[block])
            ys[np.arange(len(ys)), stop] = ord("\n")
            i_text = _index_fields(start + 1, len(ys))
            fields = [i_text, row_text[obs.rows[block]], col_text[obs.cols[block]], ys]
            _write_rows(fh, np.concatenate(fields, axis=1))


def load_observations_csv(path, m1: int, m2: int) -> ObservationSet:
    """Read an observations CSV.

    Rejects a wrong header, a file without observations and an ``i`` column
    that is not 1..n in order; :class:`ObservationSet` rejects fractional or
    out-of-range indices and non-finite values.
    """
    with open(path) as fh:
        header = fh.readline().strip()
    if header != _OBS_HEADER:
        raise ValueError(f"observations CSV must have the header {_OBS_HEADER}, got {header!r}")
    with warnings.catch_warnings():
        # A file of the header alone is refused below, in place of this warning.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    if raw.shape[0] == 0:
        raise ValueError(f"observations CSV {path} has no observations, only the header")
    if raw.shape[1] != 4:
        raise ValueError(f"observations CSV must have columns {_OBS_HEADER}")
    if not np.array_equal(raw[:, 0], np.arange(1, raw.shape[0] + 1)):
        raise ValueError("observations CSV column i must count 1..n in order")
    # To 0-based. x - 1 rounds a fraction within about 1e-16 of 0 to the integer -1;
    # it goes on as NaN, which ObservationSet reports as not an integer.
    idx = raw[:, 1:3] - 1
    idx[(idx == -1) & (raw[:, 1:3] != 0)] = np.nan
    return ObservationSet(m1=m1, m2=m2, rows=idx[:, 0], cols=idx[:, 1], ys=raw[:, 3])


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


_THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_manifest(out_dir, command: str, config: dict, seed: int) -> Path:
    import platform

    from . import __version__
    from .matops import gram_eigensolver

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "svt_eigensolver": gram_eigensolver(),
            **{key: os.environ.get(key) for key in _THREAD_SETTINGS},
        },
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": {
            "expmc": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    path = _creating(Path(out_dir) / "manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
