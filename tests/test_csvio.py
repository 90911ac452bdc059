import numpy as np
import pytest

from ksplab import (
    RngStream,
    rate_matrix_from_triplets,
    simulate_observation,
    simulate_path,
)
from ksplab.csvio import (
    beliefs_to_csv,
    estimates_to_csv,
    observation_from_csv,
    observation_to_csv,
    path_from_csv,
    path_to_csv,
    rate_matrix_from_csv,
    rate_matrix_to_csv,
    read_csv,
    write_csv,
)
from ksplab.filters import FilterEstimate

from conftest import identity_sensor, ornstein_uhlenbeck


def test_path_round_trip_bit_exact(tmp_path):
    path = simulate_path(ornstein_uhlenbeck(), 0.5, 0.01, RngStream(1))
    f = tmp_path / "path.csv"
    path_to_csv(path, f)
    back = path_from_csv(f)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.states, path.states)
    header = f.read_text().splitlines()[0]
    assert header == "t,x_1"


def test_observation_round_trip_bit_exact(tmp_path):
    state = simulate_path(ornstein_uhlenbeck(), 0.5, 0.01, RngStream(2, 1))
    obs = simulate_observation(identity_sensor(), state, RngStream(2, 2))
    f = tmp_path / "obs.csv"
    observation_to_csv(obs, f)
    back = observation_from_csv(f)
    assert np.array_equal(back.times, obs.times)
    assert np.array_equal(back.values, obs.values)
    assert f.read_text().splitlines()[0] == "t,y_1"
    # increments are derived from values; a second write is byte-identical
    f2 = tmp_path / "obs2.csv"
    observation_to_csv(back, f2)
    assert f.read_bytes() == f2.read_bytes()
    assert np.max(np.abs(np.cumsum(back.increments, axis=0) - back.values[1:])) <= 1e-12


def test_one_row_observation_rejected(tmp_path):
    f = tmp_path / "obs.csv"
    f.write_text("t,y_1\n0.0,0.0\n")
    with pytest.raises(ValueError, match="at least two points"):
        observation_from_csv(f)


def per_value_csv(header, rows):
    """Reference: the text of the per-value formatter, repr(float(v)) one value
    at a time."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize(
    "rows",
    [
        # a summary.csv row: floats beside ints and bools
        [[0.125, 3, True, False, -0.0, 5e-324, float("nan"), float("inf"), -float("inf")]],
        np.array([[0.1, -0.0, 2.2250738585072014e-308 / 3, np.nan, np.inf, -np.inf, -1 / 3]]),
        [[1, 2**53 + 1, -(2**63), 2**70, 0, -1, 1e-7, 123456789.0, 0.3]],
        np.array([[0.1, 1e-40], [-0.0, np.nan]], dtype=np.float32),
        [],
    ],
)
def test_write_csv_bytes_match_per_value_repr(tmp_path, rows):
    header = ["t", "a", "b"]
    f = tmp_path / "table.csv"
    write_csv(f, header, rows)
    assert f.read_bytes() == per_value_csv(header, rows)


@pytest.mark.parametrize(
    "text, message",
    [
        # every row one value wider than the header
        ("t,y_1\n0.0,0.0,1.0\n0.1,0.2,1.0\n", "line 2 has 3 values, the header has 2"),
        # ragged rows, after a blank line that still counts as a line
        ("t,y_1\n0.0,0.0\n\n0.1,0.2,0.3\n", "line 4 has 3 values, the header has 2"),
    ],
)
def test_row_width_must_match_header(tmp_path, text, message):
    f = tmp_path / "obs.csv"
    f.write_text(text)
    with pytest.raises(ValueError, match=message):
        observation_from_csv(f)


def test_header_only_file_reads_as_empty_table(tmp_path):
    f = tmp_path / "obs.csv"
    f.write_text("t,y_1\n")
    header, data = read_csv(f)
    assert header == ["t", "y_1"]
    assert data.shape == (0, 2)


@pytest.mark.parametrize("reader, header", [(observation_from_csv, "t,y_1"), (path_from_csv, "t,x_1")])
def test_header_only_file_rejected(tmp_path, reader, header):
    f = tmp_path / "record.csv"
    f.write_text(header + "\n")
    with pytest.raises(ValueError, match="at least two points"):
        reader(f)


@pytest.mark.parametrize(
    "times, message",
    [
        ("0.0,0.1,0.5,0.6", "time grid must be uniform"),
        ("0.0,0.2,0.1", "times must be strictly increasing"),
        ("0.1,0.2,0.3", "times must start at 0"),
    ],
)
def test_observation_on_unusable_grid_rejected(tmp_path, times, message):
    # every filter steps by times[1] - times[0]; any other grid is refused
    f = tmp_path / "obs.csv"
    rows = [f"{t},{0.5 * k}" for k, t in enumerate(times.split(","))]
    f.write_text("t,y_1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=message):
        observation_from_csv(f)


def test_lf_line_endings(tmp_path):
    state = simulate_path(ornstein_uhlenbeck(), 0.1, 0.01, RngStream(3))
    f = tmp_path / "path.csv"
    path_to_csv(state, f)
    raw = f.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_beliefs_header_upper_triangle(tmp_path):
    means = np.array([[0.0, 1.0], [0.5, 0.9]])
    covs = np.array([np.eye(2), [[2.0, 0.1], [0.1, 1.0]]])
    f = tmp_path / "beliefs.csv"
    beliefs_to_csv(np.array([0.0, 0.1]), means, covs, f)
    header, data = read_csv(f)
    assert header == ["t", "xhat_1", "xhat_2", "R_11", "R_12", "R_22"]
    assert data[1, 3] == 2.0
    assert data[1, 4] == 0.1
    assert data[1, 5] == 1.0


def test_estimates_schema(tmp_path):
    est = FilterEstimate(
        times=np.array([0.0, 0.1]),
        moments={"x": np.array([1.0, 2.0]), "x2": np.array([1.5, 4.5])},
        ess=np.array([10.0, 8.0]),
    )
    f = tmp_path / "est.csv"
    estimates_to_csv(est, f)
    header, data = read_csv(f)
    assert header == ["t", "phi_1", "phi_2", "ess"]
    assert np.array_equal(data[:, 3], [10.0, 8.0])


def test_rate_matrix_round_trip(tmp_path):
    W = rate_matrix_from_triplets([(0, 1, 1.25), (1, 0, 3.5), (1, 2, 0.125)])
    f = tmp_path / "rates.csv"
    rate_matrix_to_csv(W, f)
    assert f.read_text().splitlines()[0] == "i,j,rate"
    back = rate_matrix_from_csv(f)
    assert np.array_equal(back.rates, W.rates)


def test_rate_matrix_csv_rows_checked(tmp_path):
    # the rows go through read_csv and rate_matrix_from_triplets
    f = tmp_path / "rates.csv"
    f.write_text("i,j,rate\n0,1,1.0\n0.5,0,3.0\n")
    with pytest.raises(ValueError, match=r"rate entry 1 has state indices \(0.5, 0\)"):
        rate_matrix_from_csv(f)
    f.write_text("i,j,rate\n0,1,1.0\n1,0\n")
    with pytest.raises(ValueError, match="line 3 has 2 values, the header has 3"):
        rate_matrix_from_csv(f)
