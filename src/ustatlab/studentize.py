"""Jackknife Studentization of order-2 U-statistics.

The true standardization of ``U_n`` divides by the (usually unknown)
projection scale ``sigma_g``.  The jackknife plug-in replaces it with

    sigma_hat^2 = (n - 1)/(n - 2)^2 * sum_i (q_i - U_n)^2,
    q_i = (1/(n - 1)) * sum_{j != i} h(X_i, X_j),

which is scale-equivariant and consistent.  The studentized statistic is
``sqrt(n) (U_n - theta) / (2 sigma_hat)`` with ``theta`` supplied by the
caller (analytic in every built-in configuration).
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
    """(q_1..q_n, U_n) in one pass over the C(n,2) pairs."""
    n = x.size
    i, j = np.triu_indices(n, 1)
    vals = model.kernel_values(kernel, [x[i], x[j]])
    row_sums = np.zeros(n)
    np.add.at(row_sums, i, vals)
    np.add.at(row_sums, j, vals)
    q = row_sums / (n - 1)
    u = float(np.mean(vals))
    return q, u


def _jackknife(kernel: Kernel, data: np.ndarray) -> tuple[int, float, float]:
    """(n, U_n, sigma_hat^2) of a validated sample."""
    if kernel.order != 2:
        raise ValidationError("the jackknife variance is defined for order-2 kernels")
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValidationError("sample must be a 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample values must be finite")
    n = x.size
    if n < 3:
        raise InsufficientSample("the jackknife variance needs n >= 3")
    q, u = _leave_one_out_means(kernel, x)
    return n, u, float((n - 1) / (n - 2) ** 2 * np.sum((q - u) ** 2))


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
    return StudentizedStat(n=n, u_stat=u, theta=theta, sigma_hat_g=sigma_hat, value=value)
