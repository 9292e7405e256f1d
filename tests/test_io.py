import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmc import ObservationSet
from expmc.io import load_observations_csv, save_observations_csv, write_rows_csv

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
    expected = ["i,row,col,y"] + [
        f"{i},{r + 1},{c + 1},{y!r}" for i, (r, c, y) in enumerate(zip(obs.rows, obs.cols, obs.ys.tolist()), 1)
    ]
    written = path.read_text()
    # One boolean, not a == inside the assert: pytest's diff of two 100 kB
    # strings takes minutes.
    same = written == "\n".join(expected) + "\n"
    first = next((k for k, (w, e) in enumerate(zip(written.split("\n"), expected)) if w != e), None)
    assert same, f"first differing line: {first}"


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
