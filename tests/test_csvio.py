import numpy as np
import pytest

from ksplab import (
    GaussianBelief,
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
    beliefs = [
        GaussianBelief([0.0, 1.0], np.eye(2)),
        GaussianBelief([0.5, 0.9], [[2.0, 0.1], [0.1, 1.0]]),
    ]
    f = tmp_path / "beliefs.csv"
    beliefs_to_csv(np.array([0.0, 0.1]), beliefs, f)
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
