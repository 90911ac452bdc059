"""CSV emission and ingestion for all artifact schemas.

Plain RFC-4180-style files: comma separator, '.' decimal, LF line endings.
Floats are written with ``repr`` (shortest round-trip form), so a write /
read cycle reproduces every value bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .filters import FilterEstimate
from .markov import RateMatrix, rate_matrix_from_triplets
from .observation import ObservationPath
from .sde import SamplePath


def write_csv(path, header: list[str], rows) -> None:
    table = np.asarray(rows, dtype=float)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # a row of Python floats at a time: no object copy of the whole
        # table is held
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in table)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and data rows; every nonblank row must be as wide as the header."""
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = [float(v) for v in line.rstrip("\n").split(",")]
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {lineno} has {len(row)} values, the header has {len(header)}"
                )
            data.append(row)
    # a header-only file is an empty table of the header's width, not a 1-D []
    return header, np.asarray(data, dtype=float) if data else np.empty((0, len(header)))


def path_to_csv(path_obj: SamplePath, path) -> None:
    d = path_obj.dim
    header = ["t"] + [f"x_{i + 1}" for i in range(d)]
    rows = np.column_stack([path_obj.times, path_obj.states])
    write_csv(path, header, rows)


def path_from_csv(path) -> SamplePath:
    _, data = read_csv(path)
    return SamplePath(times=data[:, 0], states=data[:, 1:])


def observation_to_csv(obs: ObservationPath, path) -> None:
    m = obs.dim
    header = ["t"] + [f"y_{i + 1}" for i in range(m)]
    rows = np.column_stack([obs.times, obs.values])
    write_csv(path, header, rows)


def observation_from_csv(path) -> ObservationPath:
    _, data = read_csv(path)
    values = data[:, 1:]
    return ObservationPath(times=data[:, 0], values=values, increments=np.diff(values, axis=0))


def beliefs_to_csv(times: np.ndarray, means: np.ndarray, covs: np.ndarray, path) -> None:
    """Header t, xhat_1..xhat_d, then the upper covariance triangle row-major.

    ``means`` stacks the (n, d) belief means and ``covs`` the (n, d, d)
    covariances, one row per time.
    """
    means = np.asarray(means, dtype=float)
    d = means.shape[1]
    rows_i, cols_j = np.triu_indices(d)
    header = ["t"] + [f"xhat_{i + 1}" for i in range(d)]
    header += [f"R_{i + 1}{j + 1}" for i, j in zip(rows_i, cols_j)]
    write_csv(path, header, np.column_stack([times, means, np.asarray(covs)[:, rows_i, cols_j]]))


def estimates_to_csv(est: FilterEstimate, path) -> None:
    names = list(est.moments)
    header = ["t"] + [f"phi_{i + 1}" for i in range(len(names))] + ["ess"]
    rows = np.column_stack([est.times] + [est.moments[n] for n in names] + [est.ess])
    write_csv(path, header, rows)


def rate_matrix_to_csv(W: RateMatrix, path) -> None:
    """(i, j, rate) triplets, 0-indexed, off-diagonal entries only."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,j,rate\n")
        for i in range(W.n_states):
            for j in range(W.n_states):
                if i != j:
                    fh.write(f"{i},{j},{float(W.rates[i, j])!r}\n")


def rate_matrix_from_csv(path) -> RateMatrix:
    return rate_matrix_from_triplets(read_csv(path)[1])


def matrix_to_csv(mat: np.ndarray, path) -> None:
    mat = np.atleast_2d(mat)
    header = [f"q_{j + 1}" for j in range(mat.shape[1])]
    write_csv(path, header, mat)
