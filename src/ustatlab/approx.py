"""Adjusted normal approximations and distribution-distance utilities.

The adjusted family adds derivative corrections to the standard normal:
``N(x) = Phi(x) + sum_s (-1)^(s+1) kappa_s Phi^(s+1)(x)`` for a correction
vector ``kappa_1..kappa_p``.  The result is a signed measure: no clamping
or monotonization is applied.  Its density is
``phi(x) (1 + sum_s kappa_s He_(s+1)(x))``, so means under it have closed
forms (``adjusted_cf`` for trigonometric integrands, Hermite moments for
Gaussian ones) and this module carries no integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

PHI_DERIVATIVE_MAX = 12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Standard normal density, vectorized; 0 where x^2 overflows."""
    with np.errstate(over="ignore"):
        return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


# W. J. Cody's rational Chebyshev approximations (Math. Comp. 23 (1969)
# 631-637, with the coefficients of the SPECFUN routine CALERF), highest
# degree first: erf(t)/t in t^2 on |t| <= 0.46875, erfc(y) exp(y^2) in y on
# 0.46875 < y <= 4, and (1/sqrt(pi) - y erfc(y) exp(y^2)) y^2 in 1/y^2 beyond.
_ERF_SMALL = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891311868e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFC_TAIL = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
# Wichura's AS241 (PPND16, Appl. Statist. 37 (1988) 477-484), highest
# degree first: Q(u) / q in r = 0.180625 - q^2 for q = u - 1/2 on
# |q| <= 0.425, and |Q(u)| in r - 1.6 for r = sqrt(-log(min(u, 1 - u)))
# <= 5 and in r - 5 beyond.
_PPF_MID = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_PPF_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_PPF_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
# points per block of normal_cdf: long enough that numpy's per-call cost is
# small, short enough that its temporaries (256 KB each) stay in cache
_CDF_BLOCK = 32768


def _rational(z: np.ndarray, coefs) -> np.ndarray:
    """num(z) / den(z) by Horner's rule; num and den have equal length."""
    num, den = coefs
    p = num[0] * z
    q = den[0] * z
    for a, b in zip(num[1:-1], den[1:-1]):
        p += a
        p *= z
        q += b
        q *= z
    p += num[-1]
    q += den[-1]
    p /= q
    return p


def _half_erfc(t: np.ndarray) -> np.ndarray:
    """erfc(t) / 2 on a 1-d block, by Cody's three regions."""
    y = np.minimum(np.abs(t), 40.0)  # erfc(40) underflows; nan stays nan
    out = np.empty_like(t)
    small = y <= 0.46875
    i = np.flatnonzero(small)
    if i.size:
        ts = t[i]
        erf = _rational(np.square(ts), _ERF_SMALL)
        erf *= ts
        out[i] = 0.5 * (1.0 - erf)
    i = np.flatnonzero(~small)
    if i.size:
        yb = y[i]
        r = _rational(yb, _ERFC_MID)
        tail = np.flatnonzero(yb > 4.0)
        if tail.size:
            yt = yb[tail]
            z = 1.0 / np.square(yt)
            r[tail] = (_INV_SQRT_PI - z * _rational(z, _ERFC_TAIL)) / yt
        # exp(-y^2) = exp(-s^2) exp(-(y - s)(y + s)) with s = y rounded down
        # to a multiple of 1/16: s^2 is exact, so the tail keeps its digits
        s = np.trunc(yb * 16.0)
        s /= 16.0
        d = yb - s
        d *= -(yb + s)
        np.square(s, out=s)
        np.negative(s, out=s)
        r *= np.exp(s)
        r *= np.exp(d)
        r *= 0.5
        neg = t[i] < 0.0
        r[neg] = 1.0 - r[neg]
        out[i] = r
    return out


def normal_cdf(x):
    """Standard normal distribution function, vectorized over any shape.

    Phi(x) = erfc(t) / 2 with t = -x / sqrt(2), by Cody's rational Chebyshev
    approximations to erf and erfc.  On a fine grid of [-40, 40] it is
    within half a machine epsilon of ``0.5 * math.erfc(-x / sqrt(2))``, and
    within 1e-14 relative in the lower tail.  Only numpy is needed; points
    are scored in blocks of ``_CDF_BLOCK``.
    """
    x = np.asarray(x, dtype=float)
    t = (x / -_SQRT2).ravel()
    out = np.empty_like(t)
    for start in range(0, t.size, _CDF_BLOCK):
        block = slice(start, start + _CDF_BLOCK)
        out[block] = _half_erfc(t[block])
    out = out.reshape(x.shape)
    return out[()] if out.ndim == 0 else out


def normal_ppf(u):
    """Standard normal quantile function, vectorized over any shape.

    Wichura's AS241, an 8/8 rational in each of three regions: within 8 ulps
    of ``scipy.special.ndtri`` on log-spaced u in [1e-300, 1/2], -inf and inf
    at u = 0 and 1, nan off [0, 1].  An upper tail keeps its digits as
    -normal_ppf(q) for q = 1 - u.
    """
    u = np.asarray(u, dtype=float)
    q = (u - 0.5).ravel()
    out = np.empty_like(q)
    mid = np.abs(q) <= 0.425
    out[mid] = q[mid] * _rational(0.180625 - np.square(q[mid]), _PPF_MID)
    tail = u.ravel()[~mid]
    # u = 0 or 1 gives r = inf, and nan from both rationals
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(tail, 1.0 - tail)))
        val = np.where(r <= 5.0, _rational(r - 1.6, _PPF_NEAR), _rational(r - 5.0, _PPF_FAR))
    val[r == np.inf] = np.inf
    out[~mid] = np.copysign(val, q[~mid])
    out = out.reshape(u.shape)
    return out[()] if out.ndim == 0 else out


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

    Uses ``Phi^(m)(x) = (-1)^(m-1) He_(m-1)(x) phi(x)``, and 0 wherever
    phi(x) is 0, where He_(m-1)(x) may have overflowed.
    """
    if not 1 <= m <= PHI_DERIVATIVE_MAX:
        raise ValidationError(f"derivative order must lie in [1, {PHI_DERIVATIVE_MAX}]")
    sign = -1.0 if m % 2 == 0 else 1.0
    pdf = normal_pdf(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(pdf == 0.0, 0.0, sign * hermite_he(m - 1, x) * pdf)[()]


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


def _series(approx: AdjustedNormal, x, base, offset: int):
    """``base(x)`` plus sum_s (-1)^(s+1) kappa_s Phi^(s+offset)(x)."""
    x = np.asarray(x, dtype=float)
    out = base(x)
    for s, coeff in enumerate(approx.kappa, start=1):
        if coeff != 0.0:
            sign = 1.0 if s % 2 == 1 else -1.0
            out = out + sign * coeff * phi_derivative(s + offset, x)
    return out


def adjusted_cdf(approx: AdjustedNormal, x):
    """Distribution function of the adjusted approximation (unclamped)."""
    return _series(approx, x, normal_cdf, 1)


def adjusted_density(approx: AdjustedNormal, x):
    """Derivative of :func:`adjusted_cdf`; integrates to 1, may go negative."""
    return _series(approx, x, normal_pdf, 2)


def adjusted_cf(approx: AdjustedNormal, t):
    """Fourier-Stieltjes transform: ``(1 + sum_s kappa_s (it)^(s+1)) e^(-t^2/2)``,
    and 0 wherever e^(-t^2/2) is 0, where the polynomial may have overflowed."""
    t = np.asarray(t, dtype=float)
    poly = np.ones_like(t, dtype=complex)
    it = 1j * t
    with np.errstate(over="ignore", invalid="ignore"):
        damp = np.exp(-0.5 * np.square(t))
        for s, coeff in enumerate(approx.kappa, start=1):
            if coeff != 0.0:
                poly = poly + coeff * it ** (s + 1)
        return np.where(damp == 0.0, 0.0, poly * damp)[()]


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
    return step_function_distance(x, np.arange(1, x.size + 1) / x.size, cdf)


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

