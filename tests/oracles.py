"""Reference paths that only tests call: the stored donor grid and finite-difference scores.

The package computes the donor weights block by block from the factors
of ``fiem._donor_kernel`` and every outcome-model score in closed form;
these are the independent versions the tests compare them with.
"""

from typing import Optional

import numpy as np

from fimnar.dataio import Dataset
from fimnar.expfam import (
    OutcomeSpec,
    flatten_params,
    log_density,
    log_density_outer,
    unflatten_params,
)
from fimnar.fiem import _blocks, _log_c_at, _normalize_rows, _take

FD_STEP_GAMMA = 1e-4  # relative step of the finite-difference score check


def _donor_log_c(gamma: OutcomeSpec, data: Dataset) -> np.ndarray:
    """log C(y_j) for every donor j, computed once per unique value."""
    values, inverse = np.unique(data.y_observed, return_inverse=True)
    return _log_c_at(gamma, values, data)[inverse]


def _donor_log_base(
    gamma: OutcomeSpec, data: Dataset, log_c: Optional[np.ndarray] = None
) -> np.ndarray:
    """log f(y_j | x_i) - log C(y_j): the phi-independent weight factors.

    Written block by block into one (n_missing, n_respondents) array;
    ``log_c`` is computed unless given.
    """
    y_d = data.y_observed
    miss_cols = data.missing_columns()
    base = np.empty((data.n_missing, y_d.size))
    if base.size and log_c is None:
        log_c = _donor_log_c(gamma, data)
    for rows, _ in _blocks(*base.shape):
        block = log_density_outer(gamma, y_d, _take(miss_cols, rows))
        np.subtract(block, log_c, out=base[rows])
    return base


def _weights_from_base(
    beta: float, donor_y: np.ndarray, base: Optional[np.ndarray]
) -> np.ndarray:
    """Row-normalized ``exp(base - beta*y)``, in place of ``base``.

    The covariate odds factor cancels; ``base`` None stands for zero.
    """
    if base is None:
        return _normalize_rows(-beta * donor_y)
    base -= beta * donor_y
    return _normalize_rows(base)


def _score_gamma_fd(gamma, y, columns, outer: bool) -> np.ndarray:
    """Finite-difference scores: (n, q), or (q, n, m) over every row and y value.

    The independent check of the closed forms; no estimate uses it.  The
    five-point stencil is fourth order, so its error (about 2e-13
    relative on an s3 sandwich) sits below the closed forms' comparisons.
    """
    evaluate = log_density_outer if outer else log_density
    theta = flatten_params(gamma)
    slices = []
    for k in range(theta.size):
        step = FD_STEP_GAMMA * (1.0 + abs(theta[k]))

        def at(m):
            bumped = theta.copy()
            bumped[k] += m * step
            return evaluate(unflatten_params(gamma, bumped), y, columns)

        slices.append((8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * step))
    return np.stack(slices) if outer else np.column_stack(slices)
