"""Input validation helpers shared by the solver, the estimator and the CLI."""
from __future__ import annotations

import numpy as np

Array = np.ndarray


def check_points_array(X, *, expected_dim: int | None = None, name: str = "X") -> Array:
    """Coerce to a finite 2-d float64 array of ambient points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array of points")
    bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} contains non-finite values")
    if expected_dim is not None and X.shape[1] != expected_dim:
        raise ValueError(
            f"{name} has {X.shape[1]} features, expected {expected_dim}"
        )
    return X


def check_distinct_rows(X: Array, name: str) -> None:
    """Raise ValueError at the first row of X equal to an earlier one."""
    # a stable row sort puts equal rows next to each other in input order,
    # so the first repeated row is the smallest index that follows its equal
    order = np.lexsort(X.T)
    ordered = X[order]
    repeats = order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]
    if repeats.size:
        index = repeats.min()
        raise ValueError(f"duplicate lattice point {tuple(X[index])} in {name}")
