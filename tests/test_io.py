import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from expmc import ObservationSet
from expmc.io import (
    _float_reprs,
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
def test_repeated_observation_values_written_like_one_string(tmp_path, kind, n):
    rng = np.random.default_rng(n)
    m1, m2 = 300, 7
    obs = ObservationSet(
        m1=m1, m2=m2, rows=rng.integers(0, m1, n), cols=rng.integers(0, m2, n), ys=draw_ys(kind, n, rng)
    )
    path = tmp_path / "observations.csv"
    save_observations_csv(path, obs)
    assert_same_observations_text(path.read_text(), obs)


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


@pytest.mark.parametrize("repeats", [4, 1], ids=["table", "per-entry"])
def test_signed_zeros_and_non_finite_values_kept_apart(tmp_path, repeats):
    rng = np.random.default_rng(0)
    a = np.stack([rng.permutation(np.array(EDGE_VALUES * repeats)) for _ in range(3)])
    for row in a:
        texts = _float_reprs(row)
        if repeats == 1:
            assert texts is None  # all distinct: formatted entry by entry
        else:
            assert texts == list(map(repr, row.tolist()))
            # Equal texts are one str object: each distinct value was formatted once.
            assert len(set(map(id, texts))) == len(EDGE_VALUES)
    assert_matrix_written_by_repr(tmp_path / "a.csv", a)
    assert_matrix_written_by_repr(tmp_path / "t.csv", a.T)  # rows are strided views
    assert "-0.0" in (tmp_path / "a.csv").read_text()


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 0), (0, 3)])
@pytest.mark.parametrize("values", ["repeated", "distinct"])
def test_matrix_shapes_written_by_repr(tmp_path, shape, values):
    rng = np.random.default_rng(1)
    a = rng.standard_normal(shape)
    if values == "repeated":
        a = np.sign(a) * 0.25
    assert_matrix_written_by_repr(tmp_path / "a.csv", a)


@pytest.mark.parametrize("header", ["x,y,z,w", "row,col,i,y", "", "1,1,1,0.5"])
def test_wrong_header_rejected(tmp_path, header):
    path = tmp_path / "obs.csv"
    write_obs(path, header, [(1, 1, 1, 0.5), (2, 2, 3, 1.5)])
    with pytest.raises(ValueError, match="header"):
        load_observations_csv(path, M1, M2)


@settings(max_examples=50, deadline=None)
@given(
    which=st.sampled_from([1, 2]),
    index=st.floats(0.0, 4.0).filter(lambda v: v != round(v)),
)
@example(which=1, index=2.7)  # truncation would read it as 0-based row 1
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
