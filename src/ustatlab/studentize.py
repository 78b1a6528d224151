"""Jackknife Studentization of order-2 U-statistics.

The true standardization of ``U_n`` divides by the (usually unknown)
projection scale ``sigma_g``.  The jackknife plug-in replaces it with

    sigma_hat^2 = (n - 1)/(n - 2)^2 * sum_i (q_i - U_n)^2,
    q_i = (1/(n - 1)) * sum_{j != i} h(X_i, X_j),

which is scale-equivariant and consistent.  The studentized statistic is
``sqrt(n) (U_n - theta) / (2 sigma_hat)`` with ``theta`` supplied by the
caller (analytic in every built-in configuration).

``jackknife_rows`` is the one block jackknife: Monte Carlo experiments score
their replicate blocks with it, and the one-sample functions a one-row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import InsufficientSample, ValidationError, ZeroVarianceEstimate
from .model import Kernel


@dataclass(frozen=True)
class StudentizedStat:
    """One studentized evaluation: inputs, plug-in scale, and value."""

    n: int
    u_stat: float
    theta: float
    sigma_hat_g: float
    value: float


def _leave_one_out_means(kernel: Kernel, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(q_1..q_n, U_n) from sums over pairs, with U_n the mean of the q_i.

    Row sums are accumulated over the C(n, 2) pairs in the bounded blocks of
    ``model.subset_blocks``, which raises :class:`BudgetError` above
    ``model.DEFAULT_SUBSET_BUDGET`` pairs.  This is the path of kernels
    without row forms, and the reference the row forms are tested against.
    """
    n = x.size
    row_sums = np.zeros(n)
    for i, j in model.subset_blocks(n, 2, model.DEFAULT_SUBSET_BUDGET):
        vals = np.broadcast_to(model.kernel_values(kernel, [x[i], x[j]]), i.shape)
        row_sums += np.bincount(i, vals, n) + np.bincount(j, vals, n)
    q = row_sums / (n - 1)
    return q, float(np.mean(q))


def jackknife_rows(kernel: Kernel, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_n, sigma_hat^2) of each row of an ``(m, n)`` block of samples.

    A kernel with row forms scores the block at once and overwrites it (see
    ``model.RowForms``); a kernel without them sums each row over its pairs.
    """
    n = rows.shape[1]
    if n < 3:
        raise InsufficientSample("the jackknife variance needs n >= 3")
    if kernel.rows is not None:
        u, ss = kernel.rows.jackknife(rows)
    else:
        u, ss = np.empty(len(rows)), np.empty(len(rows))
        for r, x in enumerate(rows):
            q, u[r] = _leave_one_out_means(kernel, x)
            ss[r] = np.sum(np.square(q - u[r]))
    return u, jackknife_from_means(u, ss, n)


def jackknife_from_means(u, ss, n: int) -> np.ndarray:
    """sigma_hat^2 from the U-statistic ``u`` and ss = sum_i (q_i - u)^2.

    A deviation of RMS at most n * eps * max|q| is rounding, so there the
    estimate is exactly 0: a sample whose exact estimate is 0 gets 0 on
    every path.  max|q| is bounded by |u| plus the root of ss; an ss that
    overflowed meets its infinite floor, but stays infinite, not 0.
    """
    u, ss = np.asarray(u), np.asarray(ss)
    floor = n * np.square(n * np.finfo(float).eps * (np.abs(u) + np.sqrt(ss)))
    return np.where((ss <= floor) & np.isfinite(ss), 0.0, (n - 1) / (n - 2) ** 2 * ss)


def _jackknife(kernel: Kernel, data: np.ndarray) -> tuple[int, float, float]:
    """(n, U_n, sigma_hat^2) of a validated sample, scored as a one-row block."""
    if kernel.order != 2:
        raise ValidationError("the jackknife variance is defined for order-2 kernels")
    x = model.check_sample(data)
    with np.errstate(over="ignore", invalid="ignore"):
        u, var_hat = (float(v[0]) for v in jackknife_rows(kernel, x[None, :].copy()))
    if not (math.isfinite(u) and math.isfinite(var_hat)):
        raise ValidationError(
            f"overflow: U = {u}, sigma_hat^2 = {var_hat}, on a sample with "
            f"largest |x| = {np.max(np.abs(x)):.6g}"
        )
    return x.size, u, var_hat


def jackknife_variance(kernel: Kernel, data: np.ndarray) -> float:
    """Jackknife estimate of the squared projection scale sigma_g^2."""
    return _jackknife(kernel, data)[2]


def studentized_ustat(kernel: Kernel, data: np.ndarray, theta: float) -> StudentizedStat:
    """sqrt(n) (U_n - theta) / (2 sigma_hat) with the jackknife scale."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    n, u, var_hat = _jackknife(kernel, data)
    if var_hat == 0.0:
        raise ZeroVarianceEstimate("jackknife variance estimate is exactly zero")
    sigma_hat = math.sqrt(var_hat)
    value = math.sqrt(n) * (u - theta) / (2.0 * sigma_hat)
    if not math.isfinite(value):
        raise ValidationError(f"overflow: the statistic of U = {u} about theta = {theta}")
    return StudentizedStat(n=n, u_stat=u, theta=theta, sigma_hat_g=sigma_hat, value=value)
