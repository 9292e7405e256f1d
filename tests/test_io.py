import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from expmc import ObservationSet
from expmc import io
from expmc.io import (
    _float_text,
    _interval,
    _shortest,
    load_observations_csv,
    save_matrix_csv,
    save_observations_csv,
    write_rows_csv,
)

M1, M2 = 5, 4

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
cells = st.lists(
    st.tuples(st.integers(0, M1 - 1), st.integers(0, M2 - 1), finite), min_size=1, max_size=20
)


def write_obs(path, header, rows):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=50, deadline=None)
@given(cells=cells)
def test_round_trip_is_exact(tmp_path_factory, cells):
    rows, cols, ys = (np.array(v) for v in zip(*cells))
    obs = ObservationSet(m1=M1, m2=M2, rows=rows, cols=cols, ys=ys)
    path = tmp_path_factory.mktemp("obs") / "observations.csv"
    save_observations_csv(path, obs)
    back = load_observations_csv(path, M1, M2)
    assert np.array_equal(back.rows, obs.rows)
    assert np.array_equal(back.cols, obs.cols)
    assert np.array_equal(back.ys, obs.ys)


@pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 2 * 8192 + 5])
def test_written_in_blocks_like_one_string(tmp_path, n):
    # The writer formats blocks of rows; the file must not show where a
    # block ends.
    rng = np.random.default_rng(n)
    obs = ObservationSet(
        m1=M1, m2=M2, rows=rng.integers(0, M1, n), cols=rng.integers(0, M2, n), ys=rng.standard_normal(n)
    )
    path = tmp_path / "observations.csv"
    save_observations_csv(path, obs)
    assert_same_observations_text(path.read_text(), obs)


def assert_same_observations_text(written, obs):
    """``written`` is the file each row's own f-string formatting gives."""
    expected = ["i,row,col,y"] + [
        f"{i},{r + 1},{c + 1},{y!r}" for i, (r, c, y) in enumerate(zip(obs.rows, obs.cols, obs.ys.tolist()), 1)
    ]
    # One boolean, not a == inside the assert: pytest's diff of two 100 kB
    # strings takes minutes.
    same = written == "\n".join(expected) + "\n"
    first = next((k for k, (w, e) in enumerate(zip(written.split("\n"), expected)) if w != e), None)
    assert same, f"first differing line: {first}"


def draw_ys(kind, n, rng):
    if kind == "bernoulli":
        return (rng.random(n) < 0.3).astype(float)
    if kind == "poisson":
        return rng.poisson(4.0, n).astype(float)
    return np.round(rng.standard_normal(n), 1)  # about 70 values, -0.0 among them


# At n = 8193 the last block holds one value, which is formatted on its own.
@pytest.mark.parametrize("n", [8191, 8192, 8193])
@pytest.mark.parametrize("kind", ["bernoulli", "poisson", "rounded"])
def test_repeated_observation_values_written_like_one_string(tmp_path, monkeypatch, kind, n):
    rng = np.random.default_rng(n)
    m1, m2 = 300, 7
    obs = ObservationSet(
        m1=m1, m2=m2, rows=rng.integers(0, m1, n), cols=rng.integers(0, m2, n), ys=draw_ys(kind, n, rng)
    )
    kernel_blocks = []
    text_each = io._text_each
    monkeypatch.setattr(io, "_text_each", lambda x: kernel_blocks.append(x.size) or text_each(x))
    path = tmp_path / "observations.csv"
    save_observations_csv(path, obs)
    assert_same_observations_text(path.read_text(), obs)
    # Repeated blocks go through repr alone; only the last block of one value reaches the kernel.
    assert kernel_blocks == ([1] if n % io._BLOCK == 1 else [])


def matrix_text(a):
    """The text of a matrix with every entry formatted by its own repr."""
    return "\n".join(",".join(map(repr, row)) for row in a.tolist()) + "\n"


def assert_matrix_written_by_repr(path, a):
    save_matrix_csv(path, a)
    assert path.read_text() == matrix_text(a)


# Signed zeros, infinities, NaNs of three bit patterns, subnormals and the
# extremes of the normal range.
OTHER_NANS = np.array([0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(np.float64).tolist()
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, *OTHER_NANS, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1.0, 1e-7, 123456789.0]

matrix_shapes = array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12)


@settings(max_examples=100, deadline=None)
@given(a=arrays(np.float64, matrix_shapes, elements=st.sampled_from(EDGE_VALUES)))
def test_matrix_from_a_small_value_pool_written_by_repr(tmp_path_factory, a):
    assert_matrix_written_by_repr(tmp_path_factory.mktemp("m") / "a.csv", a)


@settings(max_examples=100, deadline=None)
@given(a=arrays(np.float64, matrix_shapes, elements=st.floats(width=64)))
def test_matrix_of_any_floats_written_by_repr(tmp_path_factory, a):
    assert_matrix_written_by_repr(tmp_path_factory.mktemp("m") / "a.csv", a)


def block_texts(x):
    """The text the block formatter gives each entry of the 1-d block ``x``."""
    text, stop = _float_text(np.asarray(x, dtype=np.float64))
    assert np.all(text[np.arange(len(text)), stop] == 0)  # the separator's place is free
    return [bytes(row[:end][row[:end] != 0]).decode() for row, end in zip(text, stop)]


@pytest.mark.parametrize("repeats, spied", [(4, "_repr_text"), (1, "_text_each")], ids=["table", "per-entry"])
def test_signed_zeros_and_non_finite_values_kept_apart(tmp_path, monkeypatch, repeats, spied):
    rng = np.random.default_rng(0)
    a = np.stack([rng.permutation(np.array(EDGE_VALUES * repeats)) for _ in range(3)])
    formatted = []
    formatter = getattr(io, spied)
    monkeypatch.setattr(io, spied, lambda x, *rest: formatted.append(x.copy()) or formatter(x, *rest))
    for row in a:
        formatted.clear()
        assert block_texts(row) == list(map(repr, row.tolist()))
        # One call: with repeats, repr on each distinct bit pattern once (and no
        # kernel call, whose fallback would call it again); else the kernel on every entry.
        (values,) = formatted
        assert np.unique(values.view(np.uint64)).size == values.size == len(EDGE_VALUES)
    assert_matrix_written_by_repr(tmp_path / "a.csv", a)
    assert_matrix_written_by_repr(tmp_path / "t.csv", a.T)  # rows are strided views
    assert "-0.0" in (tmp_path / "a.csv").read_text()


def assert_formatted_like_repr(x):
    """Each float of ``x``, formatted by the kernel in the writers' blocks, is its ``repr``."""
    x = np.asarray(x, dtype=np.float64).ravel()
    lines = []
    for start in range(0, x.size, io._BLOCK):
        text, stop = io._text_each(x[start:start + io._BLOCK])
        text[np.arange(len(text)), stop] = ord("\n")
        lines.append(text[text != 0].tobytes())
    got = b"".join(lines).decode()
    expected = "\n".join(map(repr, x.tolist())) + "\n"
    if got != expected:  # name the first few values that differ
        bad = [(g, e) for g, e in zip(got.split("\n"), expected.split("\n")) if g != e]
        raise AssertionError(f"formatted, repr: {bad[:5]}")


def ulp_neighbours(x, ulps=40):
    """``x`` and its floats 1..``ulps`` ulps above and below, for positive finite ``x``."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern_formatted_like_repr(bits):
    assert_formatted_like_repr(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_float_formatted_like_repr(values):
    assert_formatted_like_repr(values)


def test_powers_of_two_and_ten_and_their_neighbours_formatted_like_repr():
    powers = [2.0**q for q in range(-13, 53)] + [float(f"1e{e}") for e in range(-4, 16)]
    assert_formatted_like_repr(ulp_neighbours(powers))
    assert_formatted_like_repr(-ulp_neighbours(powers))


def test_range_edges_taken_by_the_kernel():
    # Inside [1e-4, 2**53) every value is formatted without repr, ties aside.
    x = ulp_neighbours([1e-4, 2.0**53])
    assert_formatted_like_repr(x)
    assert_formatted_like_repr(-x)
    fast = _shortest(x)[3]
    assert np.array_equal(fast, (x >= 1e-4) & (x < 2.0**53))


def test_integers_and_rounded_decimals_formatted_like_repr():
    rng = np.random.default_rng(7)
    assert_formatted_like_repr(np.arange(-20000, 20000))
    assert_formatted_like_repr(rng.integers(-(2**53), 2**53, 50000))
    values = rng.standard_normal(50000) * 10.0 ** rng.integers(-3, 12, 50000)
    places = rng.integers(0, 16, 50000).tolist()
    assert_formatted_like_repr([round(v, d) for v, d in zip(values.tolist(), places)])


def test_a_million_uniform_values_formatted_like_repr():
    rng = np.random.default_rng(8)
    assert_formatted_like_repr(rng.random(500_000))
    assert_formatted_like_repr(rng.uniform(-1.0, 1.0, 500_000) * 10.0 ** rng.uniform(-5.0, 17.0, 500_000))


def test_rounding_interval_matches_exact_fractions():
    # Odd and even significands, powers of two, and [2**52, 2**53), where
    # the interval's ends are whole numbers once scaled.
    rng = np.random.default_rng(9)
    x = np.concatenate([
        ulp_neighbours([2.0**q for q in range(-13, 53)], ulps=2),
        ulp_neighbours([1e-4, 0.1, 1.0, 1e15], ulps=2),
        2.0**52 + rng.integers(0, 2**52, 500), rng.random(500), -rng.random(100) * 1e6,
    ])
    x = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 2.0**53)]
    e, v, f, s, low, high, fast = _interval(x)
    assert fast.all()
    for k, value in enumerate(x.tolist()):
        mantissa, exponent = math.frexp(abs(value))
        c, q = int(mantissa * 2**53), exponent - 53
        ulp_above = Fraction(2) ** q
        ulp_below = ulp_above / 2 if c == 2**52 else ulp_above
        scale = Fraction(10) ** (17 - int(e[k]))
        scaled = Fraction(abs(value)) * scale
        assert int(v[k]) + Fraction(int(f[k]), 2 ** int(s[k])) == scaled
        assert 10**17 <= scaled < 10**18
        lo_end, hi_end = scaled - ulp_below / 2 * scale, scaled + ulp_above / 2 * scale
        if c % 2 == 0:  # the ends read back as x, by round-half-even
            expected = math.ceil(lo_end), math.floor(hi_end)
        else:
            expected = math.floor(lo_end) + 1, math.ceil(hi_end) - 1
        assert (int(low[k]), int(high[k])) == expected, value


def test_digit_arrays_stay_unsigned_64_bit():
    # A uint64 array mixed with an int64 one becomes float64 and loses digits.
    x = np.array([1e-4, 0.1, 1.0, 2.0 / 3.0, 123456.789, 2.0**53 - 1.0])
    digits, e, nd, fast = _shortest(x)
    assert all(a.dtype == np.uint64 for a in _interval(x)[1:6])
    assert digits.dtype == np.uint64
    assert fast.all()
    assert digits.tolist() == [
        100000000000000000, 100000000000000000, 100000000000000000,
        666666666666666600, 123456789000000000, 900719925474099100,
    ]
    assert e.tolist() == [-4, -1, 0, -1, 5, 15] and nd.tolist() == [1, 1, 1, 16, 9, 16]


@pytest.mark.parametrize("n", [1_005, 10_005, 100_005])
def test_i_column_gaining_a_digit_inside_a_block(tmp_path, n):
    # 999 -> 1,000, 9,999 -> 10,000 and 99,999 -> 100,000 each fall inside a block.
    assert all((k - 1) % io._BLOCK for k in (1_000, 10_000, 100_000))
    rng = np.random.default_rng(n)
    m1, m2 = 1000, 12
    obs = ObservationSet(
        m1=m1, m2=m2, rows=rng.integers(0, m1, n), cols=rng.integers(0, m2, n), ys=rng.standard_normal(n)
    )
    path = tmp_path / "observations.csv"
    save_observations_csv(path, obs)
    assert_same_observations_text(path.read_text(), obs)


@pytest.mark.parametrize("shape", [(300, 300), (1200, 7), (2, 9000), (1, 20000)])
@pytest.mark.parametrize("values", ["repeated", "distinct"])
def test_matrix_blocks_ending_mid_row_written_by_repr(tmp_path, shape, values):
    # Blocks end inside rows of 300 and 7 columns, and a row of 9,000 or
    # 20,000 entries spans blocks.
    assert io._BLOCK % 300 and io._BLOCK % 7 and io._BLOCK < 9000
    rng = np.random.default_rng(2)
    a = rng.standard_normal(shape)
    if values == "repeated":
        a = np.where(a > 0, 2.8499999999999996, -0.0)
    assert_matrix_written_by_repr(tmp_path / "a.csv", a)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 0), (0, 3)])
@pytest.mark.parametrize("values", ["repeated", "distinct"])
def test_matrix_shapes_written_by_repr(tmp_path, shape, values):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(shape)
    if values == "repeated":
        a = np.sign(a) * 0.25
    assert_matrix_written_by_repr(tmp_path / "a.csv", a)


@pytest.mark.parametrize("header, rows, pattern", [
    ("x,y,z,w", [(1, 1, 1, 0.5), (2, 2, 3, 1.5)], "header"),
    ("row,col,i,y", [(1, 1, 1, 0.5), (2, 2, 3, 1.5)], "header"),
    ("", [(1, 1, 1, 0.5), (2, 2, 3, 1.5)], "header"),
    ("1,1,1,0.5", [(1, 1, 1, 0.5), (2, 2, 3, 1.5)], "header"),
    ("i,row,col,y", [(1, 1, 0.5), (2, 2, 1.5)], "must have columns i,row,col,y"),
], ids=["x,y,z,w", "row,col,i,y", "", "1,1,1,0.5", "three-fields"])
def test_wrong_header_rejected(tmp_path, header, rows, pattern):
    # The last file has the right header over rows of three fields.
    path = tmp_path / "obs.csv"
    write_obs(path, header, rows)
    with pytest.raises(ValueError, match=pattern):
        load_observations_csv(path, M1, M2)


@settings(max_examples=50, deadline=None)
@given(
    which=st.sampled_from([1, 2]),
    index=st.floats(0.0, 4.0).filter(lambda v: v != round(v)),
)
@example(which=1, index=2.7)  # truncation would read it as 0-based row 1
@example(which=2, index=1.1754943508222875e-38)  # index - 1 rounds to the integer -1
def test_fractional_index_rejected(tmp_path_factory, which, index):
    row = [2, 2, 3, 0.5]
    row[which] = index
    path = tmp_path_factory.mktemp("obs") / "obs.csv"
    write_obs(path, "i,row,col,y", [(1, 1, 1, 0.25), tuple(row)])
    with pytest.raises(ValueError, match="integers"):
        load_observations_csv(path, M1, M2)


@pytest.mark.parametrize("row, col", [(0, 1), (1, 0), (M1 + 1, 1), (1, M2 + 1)])
def test_out_of_range_index_rejected(tmp_path, row, col):
    path = tmp_path / "obs.csv"
    write_obs(path, "i,row,col,y", [(1, row, col, 0.5)])
    with pytest.raises(ValueError, match="out of range"):
        load_observations_csv(path, M1, M2)


@pytest.mark.parametrize("i_col", [(7, 7), (1, 1), (2, 1), (0, 1), (1, 3), (1, 2.5)])
def test_i_column_must_count_from_one(tmp_path, i_col):
    path = tmp_path / "obs.csv"
    write_obs(path, "i,row,col,y", [(i, 1, 2, 0.5) for i in i_col])
    with pytest.raises(ValueError, match="column i"):
        load_observations_csv(path, M1, M2)


def test_header_only_file_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("i,row,col,y\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no observations"):
            load_observations_csv(path, M1, M2)


def test_hand_written_file_loads(tmp_path):
    path = tmp_path / "obs.csv"
    write_obs(path, "i,row,col,y", [(1, 1, 2, 0.5), (2, 5, 4, -1.25), (3, 1, 2, 3)])
    obs = load_observations_csv(path, M1, M2)
    assert obs.rows.tolist() == [0, 4, 0]
    assert obs.cols.tolist() == [1, 3, 1]
    assert obs.ys.tolist() == [0.5, -1.25, 3.0]


@pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
def test_non_finite_value_rejected(tmp_path, y):
    path = tmp_path / "obs.csv"
    write_obs(path, "i,row,col,y", [(1, 1, 1, y)])
    with pytest.raises(ValueError, match="finite"):
        load_observations_csv(path, M1, M2)


def test_rows_written_under_the_first_rows_keys(tmp_path):
    path = tmp_path / "sub" / "rows.csv"
    write_rows_csv(path, [{"a": 1, "b": 0.5, "c": True}, {"a": -2, "b": 1e-300, "c": False}])
    assert path.read_text() == "a,b,c\n1,0.5,true\n-2,1e-300,false\n"


@pytest.mark.parametrize("second", [
    {"a": 1},
    {"a": 1, "b": 2, "c": 3},
    {"b": 2, "a": 1},
    {"a": 1, "c": 2},
], ids=["missing", "extra", "reordered", "renamed"])
def test_rows_whose_keys_differ_from_the_header_rejected(tmp_path, second):
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match=r"row 1 has keys .* the header is \['a', 'b'\]"):
        write_rows_csv(path, [{"a": 0, "b": 0}, second])
    assert not path.exists()


def test_no_rows_rejected(tmp_path):
    with pytest.raises(ValueError, match="no rows"):
        write_rows_csv(tmp_path / "rows.csv", [])
