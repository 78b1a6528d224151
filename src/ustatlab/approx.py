"""Adjusted normal approximations and distribution-distance utilities.

The adjusted family adds derivative corrections to the standard normal:
``N(x) = Phi(x) + sum_s (-1)^(s+1) kappa_s Phi^(s+1)(x)`` for a correction
vector ``kappa_1..kappa_p``.  The result is a signed measure: no clamping
or monotonization is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import ValidationError

PHI_DERIVATIVE_MAX = 12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Standard normal density, vectorized."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def normal_cdf(x):
    """Standard normal distribution function (``scipy.special.ndtr``,
    accurate in both tails)."""
    return special.ndtr(np.asarray(x, dtype=float))


def hermite_he(m: int, x):
    """Probabilists' Hermite polynomial He_m by the three-term recurrence."""
    if m < 0:
        raise ValidationError("Hermite degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev
    cur = x.copy()
    for j in range(2, m + 1):
        prev, cur = cur, x * cur - (j - 1) * prev
    return cur


def phi_derivative(m: int, x):
    """m-th derivative of the standard normal cdf, 1 <= m <= 12.

    Uses ``Phi^(m)(x) = (-1)^(m-1) He_(m-1)(x) phi(x)``.
    """
    if not 1 <= m <= PHI_DERIVATIVE_MAX:
        raise ValidationError(f"derivative order must lie in [1, {PHI_DERIVATIVE_MAX}]")
    sign = -1.0 if m % 2 == 0 else 1.0
    return sign * hermite_he(m - 1, x) * normal_pdf(x)


@dataclass(frozen=True)
class AdjustedNormal:
    """Correction vector ``kappa[s]`` = coefficient of order s+1 derivative.

    ``kappa`` is indexed from order 1; an empty tuple is the plain normal.
    """

    kappa: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        kappa = tuple(float(v) for v in self.kappa)
        object.__setattr__(self, "kappa", kappa)
        if len(kappa) + 1 > PHI_DERIVATIVE_MAX - 1:
            raise ValidationError("correction order too large for derivative table")
        if not all(math.isfinite(v) for v in kappa):
            raise ValidationError("correction coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.kappa)


def adjusted_cdf(approx: AdjustedNormal, x):
    """Distribution function of the adjusted approximation (unclamped)."""
    x = np.asarray(x, dtype=float)
    out = normal_cdf(x)
    for s, coeff in enumerate(approx.kappa, start=1):
        if coeff != 0.0:
            sign = 1.0 if s % 2 == 1 else -1.0
            out = out + sign * coeff * phi_derivative(s + 1, x)
    return out


def adjusted_density(approx: AdjustedNormal, x):
    """Derivative of :func:`adjusted_cdf`; integrates to 1, may go negative."""
    x = np.asarray(x, dtype=float)
    out = normal_pdf(x)
    for s, coeff in enumerate(approx.kappa, start=1):
        if coeff != 0.0:
            sign = 1.0 if s % 2 == 1 else -1.0
            out = out + sign * coeff * phi_derivative(s + 2, x)
    return out


def adjusted_cf(approx: AdjustedNormal, t):
    """Fourier-Stieltjes transform: ``(1 + sum_s kappa_s (it)^(s+1)) e^(-t^2/2)``."""
    t = np.asarray(t, dtype=float)
    poly = np.ones_like(t, dtype=complex)
    it = 1j * t
    for s, coeff in enumerate(approx.kappa, start=1):
        if coeff != 0.0:
            poly = poly + coeff * it ** (s + 1)
    return poly * np.exp(-0.5 * np.square(t))


def select_correction_order(alpha: float, k: int) -> int:
    """Largest p with p < (alpha - 1)/(2 - alpha) and p <= k, floored at 0.

    ``alpha`` is the moment exponent available for the remainder part,
    restricted to [1, 2); ``k`` is the kernel order.
    """
    if not 1.0 <= alpha < 2.0:
        raise ValidationError("alpha must lie in [1, 2)")
    if k < 1:
        raise ValidationError("kernel order must be at least 1")
    ratio = (alpha - 1.0) / (2.0 - alpha)
    # Strict inequality: back off one whenever the ratio sits on an integer.
    # The small shift guards against ratios like 2 + 4e-16 from float division.
    p = math.ceil(ratio - 1e-12) - 1
    return max(0, min(k, p))


def edgeworth2(e_gg_eta: float, e_g3: float, sigma_g: float, n: int) -> AdjustedNormal:
    """Order-2 Edgeworth expansion for a standardized order-2 U-statistic.

    ``e_gg_eta`` is ``E[g(X1) g(X2) eta(X1, X2)]`` and ``e_g3`` is
    ``E[g(X1)^3]`` for linear projection g and degenerate part eta.  The
    expansion is the adjusted law with ``kappa = (0, c)``.
    """
    if sigma_g <= 0.0:
        raise ValidationError("sigma_g must be positive")
    if n < 2:
        raise ValidationError("n must be at least 2")
    coeff = (e_gg_eta / (2.0 * sigma_g**3) + e_g3 / (6.0 * sigma_g**3)) / math.sqrt(n)
    return AdjustedNormal((0.0, coeff))


# ---------------------------------------------------------------------------
# Kolmogorov distance
# ---------------------------------------------------------------------------

def step_function_distance(
    values: np.ndarray,
    cum_probs: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Sup distance between a right-continuous step df and a cdf callable.

    ``values`` must be strictly increasing jump locations and ``cum_probs``
    the df value at each jump.  Both one-sided gaps are taken at every jump.
    """
    values = np.asarray(values, dtype=float)
    cum = np.asarray(cum_probs, dtype=float)
    if values.ndim != 1 or cum.shape != values.shape or values.size == 0:
        raise ValidationError("need matching nonempty jump and level arrays")
    target = np.asarray(cdf(values), dtype=float)
    upper = np.abs(cum - target)
    lower = np.abs(np.concatenate(([0.0], cum[:-1])) - target)
    return float(np.max(np.maximum(upper, lower)))


def kolmogorov_distance(data: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical df of ``data`` and ``cdf``."""
    x = np.sort(np.asarray(data, dtype=float))
    if x.size == 0:
        raise ValidationError("sample must be nonempty")
    m = x.size
    target = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, m + 1)
    upper = np.abs(i / m - target)
    lower = np.abs((i - 1) / m - target)
    return float(np.max(np.maximum(upper, lower)))


def dkw_bound(reps: int, delta: float = 0.001) -> float:
    """Two-sided Dvoretzky-Kiefer-Wolfowitz band half-width at level delta."""
    if reps < 1 or not 0.0 < delta < 1.0:
        raise ValidationError("need reps >= 1 and delta in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * reps))


def dkw_se(reps: int) -> float:
    """Worst-case standard error of one empirical df ordinate."""
    if reps < 1:
        raise ValidationError("need reps >= 1")
    return math.sqrt(0.25 / reps)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Adaptive Simpson integration with Richardson acceptance test.

    Kept dependency-free on purpose: this is the independent oracle used to
    validate analytic integrals elsewhere in the package.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError("integration limits must be finite")
    if a == b:
        return 0.0

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * eps
        return (
            recurse(lo, mid, flo, flmid, fmid, left, half, depth - 1)
            + recurse(mid, hi, fmid, frmid, fhi, right, half, depth - 1)
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def integrate_against_density(
    f: Callable[[float], float],
    approx: AdjustedNormal,
    tol: float = 1e-10,
    lo: float = -12.0,
    hi: float = 12.0,
) -> float:
    """``integral of f against the adjusted density`` over [lo, hi]."""
    return adaptive_simpson(
        lambda u: f(u) * float(adjusted_density(approx, u)), lo, hi, tol=tol
    )
