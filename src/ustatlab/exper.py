"""Monte Carlo experiment driver: ECDF rate studies and comparator checks.

Replicates are drawn and evaluated in fixed chunks of ``CHUNK_REPLICATES``.
Chunk ``c`` at sample size ``n`` is one block of ``m * n`` draws from stream
index ``c`` of the counter-based generator, reshaped to ``m`` rows of ``n``;
replicate ``c * CHUNK_REPLICATES + j`` is row ``j``.  The chunk size does not
depend on the worker count, so reports are byte-identical for any number of
threads.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import approx, hoeffding, model
from .errors import (
    ConfigError,
    FitError,
    IncompatibleOptions,
    InsufficientSample,
    PresetError,
    ValidationError,
    ZeroVarianceEstimate,
)

SCHEMA_VERSION = "v1"
CHUNK_REPLICATES = 4096
DEFAULT_N_GRID = (8, 16, 32, 64, 128, 256)
DEFAULT_REPS = 200_000


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetSpec:
    """Reference law the empirical df is compared against.

    ``kind`` is one of ``"phi"``, ``"adjusted"``, ``"edgeworth2"``.  For the
    adjusted target, ``order`` fixes the number of correction terms; when it
    is None the order is selected from ``alpha`` via the moment-exponent rule.
    """

    kind: str = "phi"
    order: Optional[int] = None
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("phi", "adjusted", "edgeworth2"):
            raise ConfigError(f"unknown target kind {self.kind!r}")
        if self.order is not None and self.order < 0:
            raise ConfigError("target order must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: str
    dist: str
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    reps: int = DEFAULT_REPS
    seed: int = 0
    estimator: str = "standardized"
    target: TargetSpec = field(default_factory=TargetSpec)
    threads: int = 1

    def __post_init__(self) -> None:
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid:
            raise ConfigError("n_grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if grid[0] < 1:
            raise ConfigError("sample sizes must be positive")
        if self.reps < 1000:
            raise ConfigError("reps must be at least 1000")
        if self.estimator not in ("standardized", "studentized"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.estimator == "studentized" and self.target.kind != "phi":
            # the adjusted and Edgeworth laws expand the standardized statistic
            raise IncompatibleOptions(
                f"the studentized estimator has no {self.target.kind} target; use phi"
            )
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    def to_json(self) -> dict:
        # threads is an execution detail, deliberately excluded so reports
        # from different worker counts stay byte-identical
        return {
            "schema": SCHEMA_VERSION,
            "kernel": self.kernel,
            "dist": self.dist,
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "seed": self.seed,
            "estimator": self.estimator,
            "target": {
                "kind": self.target.kind,
                "order": self.target.order,
                "alpha": self.target.alpha,
            },
        }


def _resolve(cfg: ExperimentConfig) -> dict[int, hoeffding.DecomposedStatistic]:
    """The decomposition at each n of the grid, all sharing one projection."""
    kernel = model.kernel_preset(cfg.kernel)
    dist = model.distribution_preset(cfg.dist)
    if cfg.n_grid[0] < kernel.order:
        raise InsufficientSample("n must be >= kernel order")
    if cfg.estimator == "studentized":
        if kernel.order != 2:
            raise ConfigError("studentized estimator needs an order-2 kernel")
        if cfg.n_grid[0] < 3:
            raise ConfigError("studentized estimator needs n >= 3")
    # the projection and its moment integrals are n-free, so every n shares one
    d0 = hoeffding.decompose(kernel, dist, cfg.n_grid[0], seed=cfg.seed)
    return {n: replace(d0, n=n) for n in cfg.n_grid}


# ---------------------------------------------------------------------------
# Per-row statistic evaluation
# ---------------------------------------------------------------------------

def _row_u_values(kernel: model.Kernel, rows: np.ndarray) -> np.ndarray:
    """U-statistic of ``kernel`` for every row of ``rows``."""
    return kernel.rows.u(rows)


def _row_jackknife_stats(
    kernel: model.Kernel, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(U-statistic, jackknife variance of the linear scale) per row.

    Order-2 kernels only.  The variance estimate is built from the
    leave-one-out means, which ``kernel.rows.loo`` returns as a fresh array.
    """
    n = rows.shape[1]
    if n < 3:
        raise InsufficientSample("jackknife variance needs n >= 3")
    q = kernel.rows.loo(rows)
    u = q.mean(axis=1)
    # q is fresh, so reusing it for the squared deviations cuts peak memory
    q -= u[:, None]
    var_hat = (n - 1) / (n - 2) ** 2 * np.sum(np.square(q, out=q), axis=1)
    return u, var_hat


def _chunk_bounds(reps: int) -> list[tuple[int, int]]:
    return [
        (lo, min(lo + CHUNK_REPLICATES, reps))
        for lo in range(0, reps, CHUNK_REPLICATES)
    ]


def _simulate_statistic(
    d: hoeffding.DecomposedStatistic,
    reps: int,
    seed: int,
    estimator: str,
    threads: int,
) -> tuple[np.ndarray, int]:
    """All replicate values of the (possibly studentized) statistic at ``d.n``."""
    kernel, n, theta = d.kernel, d.n, d.theta
    scale = kernel.order * d.sigma_g

    def work(bounds: tuple[int, int]) -> tuple[np.ndarray, int]:
        lo, hi = bounds
        chunk = lo // CHUNK_REPLICATES
        rows = model.sample(d.dist, (hi - lo) * n, seed, chunk).reshape(hi - lo, n)
        if estimator == "standardized":
            u = _row_u_values(kernel, rows)
            return math.sqrt(n) * (u - theta) / scale, 0
        u, var_hat = _row_jackknife_stats(kernel, rows)
        keep = var_hat > 0.0
        dropped = int(var_hat.size - np.count_nonzero(keep))
        s = math.sqrt(n) * (u[keep] - theta) / (2.0 * np.sqrt(var_hat[keep]))
        return s, dropped

    bounds = _chunk_bounds(reps)
    if threads <= 1 or len(bounds) == 1:
        parts = [work(b) for b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, bounds))
    values = np.concatenate([p[0] for p in parts])
    dropped = sum(p[1] for p in parts)
    if values.size == 0:
        raise ZeroVarianceEstimate("every replicate had a zero variance estimate")
    return values, dropped


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def _adjusted_order(cfg: ExperimentConfig, k: int) -> int:
    if cfg.target.order is not None:
        if cfg.target.order > k:
            raise ConfigError("target order cannot exceed the kernel order")
        return cfg.target.order
    if cfg.target.alpha is None:
        return k
    return approx.select_correction_order(cfg.target.alpha, k)


def _adjusted(
    d: hoeffding.DecomposedStatistic, cfg: ExperimentConfig
) -> approx.AdjustedNormal:
    """The adjusted law at ``d.n``, truncated to the configured order."""
    return approx.AdjustedNormal(hoeffding.kappa_vector(d)[: _adjusted_order(cfg, d.order)])


def _target(
    d: hoeffding.DecomposedStatistic, cfg: ExperimentConfig
) -> approx.AdjustedNormal:
    """The reference law of ``cfg.target`` at ``d.n``.

    ``order`` and ``alpha`` shape only the adjusted law; the other targets
    refuse them rather than ignore them.
    """
    kind = cfg.target.kind
    if kind != "adjusted" and (cfg.target.order, cfg.target.alpha) != (None, None):
        raise IncompatibleOptions(
            f"--order and --target-alpha set the adjusted target; {kind} takes neither"
        )
    if kind == "phi":
        return approx.AdjustedNormal()
    if kind == "adjusted":
        return _adjusted(d, cfg)
    e_gg_eta, e_g3, sigma_g = hoeffding.order2_edgeworth_inputs(d)
    return approx.edgeworth2(e_gg_eta, e_g3, sigma_g, d.n)


def _adjusted_only(cfg: ExperimentConfig, command: str) -> None:
    """Refuse the options ``command`` would ignore."""
    if cfg.estimator == "studentized" or cfg.target.kind == "edgeworth2":
        raise IncompatibleOptions(
            f"{command} scores the standardized statistic against the adjusted "
            "law; it takes neither --estimator studentized nor --target edgeworth2"
        )


def _replicates(
    cfg: ExperimentConfig,
    law: Callable[[hoeffding.DecomposedStatistic, ExperimentConfig], approx.AdjustedNormal],
) -> Iterator[tuple[hoeffding.DecomposedStatistic, approx.AdjustedNormal, np.ndarray, int]]:
    """``(d, target, values, dropped)`` at each n of the grid, in order.

    The target ``law(d, cfg)`` is built before the replicates are drawn, so
    a target the configuration cannot have fails without sampling.
    """
    for d in _resolve(cfg).values():
        target = law(d, cfg)
        values, dropped = _simulate_statistic(
            d, cfg.reps, cfg.seed, cfg.estimator, cfg.threads
        )
        yield d, target, values, dropped


# ---------------------------------------------------------------------------
# ECDF rate experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRow:
    n: int
    distance: float
    se: float
    dropped: int


@dataclass(frozen=True)
class RateReport:
    config: ExperimentConfig
    theta: float
    sigma_g: float
    rows: tuple[RateRow, ...]
    kappa_by_n: dict[int, tuple[float, ...]]
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]

    def to_json(self) -> dict:
        fit = None
        if self.slope is not None:
            fit = {
                "slope": self.slope,
                "intercept": self.intercept,
                "r_squared": self.r_squared,
            }
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "theta": self.theta,
            "sigma_g": self.sigma_g,
            "rows": [
                {"n": r.n, "distance": r.distance, "se": r.se, "dropped": r.dropped}
                for r in self.rows
            ],
            "kappa_by_n": {str(n): list(k) for n, k in self.kappa_by_n.items()},
            "fit": fit,
        }


def fit_rate(
    xs: Sequence[float], distances: Sequence[float]
) -> tuple[float, float, float]:
    """Least squares of log distance on log x: (slope, intercept, r_squared)."""
    pts = []
    for x, d in zip(xs, distances, strict=True):
        if d == 0.0:
            warnings.warn("zero distance excluded from rate fit", stacklevel=2)
            continue
        if d < 0.0 or x <= 0.0:
            raise ValidationError("rate fit needs positive x and nonnegative distance")
        pts.append((math.log(x), math.log(d)))
    if len(pts) < 3:
        raise FitError("need at least 3 positive (x, distance) pairs")
    m = len(pts)
    xbar = math.fsum(p[0] for p in pts) / m
    ybar = math.fsum(p[1] for p in pts) / m
    sxx = math.fsum((p[0] - xbar) ** 2 for p in pts)
    sxy = math.fsum((p[0] - xbar) * (p[1] - ybar) for p in pts)
    syy = math.fsum((p[1] - ybar) ** 2 for p in pts)
    if sxx == 0.0:
        raise FitError("need at least two distinct x values")
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    r_squared = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, intercept, r_squared


def run_ecdf_experiment(cfg: ExperimentConfig) -> RateReport:
    rows = []
    kappa_by_n: dict[int, tuple[float, ...]] = {}
    for d, target, values, dropped in _replicates(cfg, _target):
        kappa_by_n[d.n] = hoeffding.kappa_vector(d)
        distance = approx.kolmogorov_distance(
            values, lambda x: approx.adjusted_cdf(target, x)
        )
        rows.append(RateRow(d.n, distance, approx.dkw_se(values.size), dropped))
    slope = intercept = r_squared = None
    usable = [r for r in rows if r.distance > 0.0]
    if len(usable) >= 3:
        slope, intercept, r_squared = fit_rate(
            [r.n for r in usable], [r.distance for r in usable]
        )
    return RateReport(
        cfg,
        d.theta,
        d.sigma_g,
        tuple(rows),
        kappa_by_n,
        slope,
        intercept,
        r_squared,
    )


# ---------------------------------------------------------------------------
# Quadratic-kernel comparator study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparatorStudy:
    """Distances of one Gaussian quadratic-kernel run to both reference laws."""

    eps: float
    n: int
    reps: int
    seed: int
    kappa2: float
    gamma: float
    beta: float
    dist_phi: float
    dist_adjusted: float
    se: float

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "eps": self.eps,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "kappa2": self.kappa2,
            "gamma": self.gamma,
            "beta": self.beta,
            "dist_phi": self.dist_phi,
            "dist_adjusted": self.dist_adjusted,
            "se": self.se,
        }


def quadratic_counterexample(
    eps: float,
    n: int,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    threads: int = 1,
) -> ComparatorStudy:
    """Compare plain and adjusted normal targets on the Gaussian quadratic preset.

    One replicate set is scored against both laws, so the reported gap is free
    of between-run noise.
    """
    if eps < 0.0 or eps > 1.0:
        raise ConfigError("eps must lie in [0, 1]")
    if n < 2:
        raise ConfigError("n must be at least 2")
    if reps < 1000:
        raise ConfigError("reps must be at least 1000")
    kernel = model.quadratic_kernel(eps)
    dist = model.distribution_preset("normal")
    d = hoeffding.decompose(kernel, dist, n)
    values, _ = _simulate_statistic(d, reps, seed, "standardized", threads)
    values = np.sort(values)
    kap = hoeffding.kappa_vector(d)
    adj = approx.AdjustedNormal(kap)
    dist_phi = approx.kolmogorov_distance(values, approx.normal_cdf)
    dist_adjusted = approx.kolmogorov_distance(
        values, lambda x: approx.adjusted_cdf(adj, x)
    )
    return ComparatorStudy(
        eps,
        n,
        reps,
        seed,
        kap[1],
        hoeffding.gamma_var(d),
        hoeffding.beta(d),
        dist_phi,
        dist_adjusted,
        approx.dkw_se(reps),
    )


# ---------------------------------------------------------------------------
# Perturbed-normal exponent study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationRow:
    eps: float
    distance: float
    delta_var: float


@dataclass(frozen=True)
class PerturbedNormalReport:
    a: float
    neg_moment: float
    rows: tuple[PerturbationRow, ...]
    exponent: float
    exponent_bound: float
    satisfies_bound: bool

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "a": self.a,
            "neg_moment": self.neg_moment,
            "rows": [
                {"eps": r.eps, "distance": r.distance, "delta_var": r.delta_var}
                for r in self.rows
            ],
            "exponent": self.exponent,
            "exponent_bound": self.exponent_bound,
            "satisfies_bound": self.satisfies_bound,
        }


def _bisect_increasing(
    fn: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    iters: int = 100,
) -> np.ndarray:
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def perturbed_normal_cdf(x, eps: float, a: float) -> np.ndarray:
    """Distribution function of Z - eps(|Z|^(-a) - E|Z|^(-a)), Z standard normal.

    Solved by monotone root-finding on each half line; the negative half has
    an interior maximum, below which it contributes two root branches.
    """
    if not 0.0 < a < 0.5:
        raise ValidationError("a must lie in (0, 1/2)")
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c_a = model.gaussian_abs_moment(-a)
    shift = eps * c_a

    def w_pos(z: np.ndarray) -> np.ndarray:
        return z - eps * z ** (-a) + shift

    def w_neg(z: np.ndarray) -> np.ndarray:
        return z - eps * (-z) ** (-a) + shift

    y = x - shift
    tiny = np.full_like(x, 1e-280)
    hi_pos = np.maximum(y, 0.0) + eps + 1.0
    root_pos = _bisect_increasing(w_pos, x, tiny, hi_pos)
    out = approx.normal_cdf(root_pos) - 0.5

    z_star = -((eps * a) ** (1.0 / (1.0 + a)))
    peak = float(w_neg(np.asarray([z_star]))[0])
    below = x < peak
    if np.any(below):
        xb = x[below]
        lo1 = np.minimum(xb - shift, z_star) - 1.0
        z1 = _bisect_increasing(w_neg, xb, lo1, np.full_like(xb, z_star))
        # w_neg decreases on (z_star, 0); its negation is exact and increasing
        z2 = _bisect_increasing(
            lambda z: -w_neg(z), -xb, np.full_like(xb, z_star), np.full_like(xb, -1e-280)
        )
        neg_mass = approx.normal_cdf(z1) + 0.5 - approx.normal_cdf(z2)
    else:
        neg_mass = np.empty(0)
    full = np.where(below, 0.0, 0.5)
    full[below] = neg_mass
    return out + full


def _perturbed_sup_distance(eps: float, a: float, grid_points: int = 2001) -> float:
    scale = (eps * a) ** (1.0 / (1.0 + a))
    z_star = -scale
    peak = z_star - eps * scale ** (-a) + eps * model.gaussian_abs_moment(-a)

    def gap(x: np.ndarray) -> np.ndarray:
        return np.abs(perturbed_normal_cdf(x, eps, a) - approx.normal_cdf(x))

    xs = np.unique(
        np.concatenate(
            [
                np.linspace(-8.0, 8.0, grid_points),
                np.linspace(-10.0 * scale, 10.0 * scale, grid_points),
                peak + scale * np.linspace(-3.0, 3.0, grid_points),
            ]
        )
    )
    vals = gap(xs)
    best = float(np.max(vals))
    idx = int(np.argmax(vals))
    lo = xs[max(idx - 1, 0)]
    hi = xs[min(idx + 1, xs.size - 1)]
    for _ in range(6):
        xs = np.linspace(lo, hi, 201)
        vals = gap(xs)
        idx = int(np.argmax(vals))
        best = max(best, float(vals[idx]))
        lo = xs[max(idx - 1, 0)]
        hi = xs[min(idx + 1, xs.size - 1)]
    return best


DEFAULT_EPS_GRID = tuple(float(e) for e in np.geomspace(1e-4, 1e-2, 9))


def perturbed_normal_study(
    a: float,
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID,
) -> PerturbedNormalReport:
    """Sup-distance growth of the negative-power perturbation in its amplitude."""
    if not 0.0 < a < 0.5:
        raise ValidationError("a must lie in (0, 1/2)")
    eps_grid = tuple(float(e) for e in eps_grid)
    if len(eps_grid) < 3:
        raise ConfigError("need at least 3 perturbation amplitudes")
    if any(not 0.0 < e <= 0.2 for e in eps_grid):
        raise ConfigError("perturbation amplitudes must lie in (0, 0.2]")
    c_a = model.gaussian_abs_moment(-a)
    m_2a = model.gaussian_abs_moment(-2.0 * a)
    rows = []
    for eps in eps_grid:
        distance = _perturbed_sup_distance(eps, a)
        rows.append(PerturbationRow(eps, distance, eps * eps * (m_2a - c_a * c_a)))
    exponent, _, _ = fit_rate([r.eps for r in rows], [r.distance for r in rows])
    bound = 1.0 / (a + 1.0)
    # fitted distance ~ eps^exponent and var(Delta) ~ eps^2, so the moment
    # exponent theta-hat in distance <= c * var^theta is exponent / 2
    return PerturbedNormalReport(
        a,
        c_a,
        tuple(rows),
        exponent,
        bound,
        bool(exponent <= bound + 1e-9),
    )


# ---------------------------------------------------------------------------
# Smooth-function expectation check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunction:
    ident: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv_norm: Callable[[int], float]


def smooth_test_function(ident: str) -> SmoothFunction:
    """Built-in test integrands with known derivative sup-norms.

    ``cos:omega`` has m-th derivative sup-norm omega**m; ``gauss`` is the
    unnormalized Gaussian bump with sup-norms taken from a dense grid;
    ``const:c`` is constant with all derivatives zero.
    """
    base, _, arg = ident.partition(":")
    if base == "cos":
        omega = float(arg) if arg else 1.0
        if omega <= 0.0:
            raise PresetError("cos frequency must be positive")
        return SmoothFunction(
            ident, lambda x, w=omega: np.cos(w * x), lambda m, w=omega: w**m
        )
    if base == "gauss":
        if arg:
            raise PresetError("gauss takes no parameter")

        def norm(m: int) -> float:
            if m == 0:
                return 1.0
            xs = np.linspace(-12.0, 12.0, 24001)
            return math.sqrt(2.0 * math.pi) * float(
                np.max(np.abs(approx.phi_derivative(m, xs)))
            )

        return SmoothFunction(ident, lambda x: np.exp(-0.5 * x * x), norm)
    if base == "const":
        level = float(arg) if arg else 1.0
        return SmoothFunction(
            ident,
            lambda x, c=level: np.full_like(np.asarray(x, dtype=float), c),
            lambda m, c=level: abs(c) if m == 0 else 0.0,
        )
    raise PresetError(f"unknown smooth test function {ident!r}")


@dataclass(frozen=True)
class SmoothRow:
    n: int
    lhs: float
    scale: float
    ratio: float
    se: float


@dataclass(frozen=True)
class SmoothReport:
    config: ExperimentConfig
    function: str
    deriv_const: float
    rows: tuple[SmoothRow, ...]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "function": self.function,
            "deriv_const": self.deriv_const,
            "rows": [
                {
                    "n": r.n,
                    "lhs": r.lhs,
                    "scale": r.scale,
                    "ratio": r.ratio,
                    "se": r.se,
                }
                for r in self.rows
            ],
        }


def smooth_function_check(cfg: ExperimentConfig, f_ident: str) -> SmoothReport:
    """Gap between the sampled mean of f(S) and its adjusted-normal integral.

    The reported scale is beta + gamma; the derivative constant sums the
    sup-norms of orders 2 through k + 4.
    """
    f = smooth_test_function(f_ident)
    _adjusted_only(cfg, "smooth-check")
    rows = []
    for d, adj, values, _ in _replicates(cfg, _adjusted):
        target = approx.integrate_against_density(
            lambda u: float(f.fn(np.asarray([u]))[0]), adj
        )
        fvals = np.asarray(f.fn(values), dtype=float)
        lhs = abs(float(fvals.mean()) - target)
        scale = hoeffding.beta(d) + hoeffding.gamma_var(d)
        se = float(fvals.std(ddof=1) / math.sqrt(fvals.size))
        rows.append(SmoothRow(d.n, lhs, scale, lhs / scale, se))
    deriv_const = math.fsum(f.deriv_norm(m) for m in range(2, d.order + 5))
    return SmoothReport(cfg, f.ident, deriv_const, tuple(rows))


# ---------------------------------------------------------------------------
# Characteristic-function envelope check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CfRow:
    n: int
    t: float
    empirical: complex
    target: complex
    gap: float
    se: float
    envelope: float


@dataclass(frozen=True)
class CfReport:
    config: ExperimentConfig
    rows: tuple[CfRow, ...]
    max_ratio_by_n: dict[int, float]
    max_ratio_se_by_n: dict[int, float]
    beta_by_n: dict[int, float]
    gamma_by_n: dict[int, float]
    kappa_by_n: dict[int, tuple[float, ...]]

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config.to_json(),
            "rows": [
                {
                    "n": r.n,
                    "t": r.t,
                    "empirical_re": r.empirical.real,
                    "empirical_im": r.empirical.imag,
                    "target_re": r.target.real,
                    "target_im": r.target.imag,
                    "gap": r.gap,
                    "se": r.se,
                    "envelope": r.envelope,
                }
                for r in self.rows
            ],
            "max_ratio_by_n": {str(n): v for n, v in self.max_ratio_by_n.items()},
            "max_ratio_se_by_n": {
                str(n): v for n, v in self.max_ratio_se_by_n.items()
            },
            "beta_by_n": {str(n): v for n, v in self.beta_by_n.items()},
            "gamma_by_n": {str(n): v for n, v in self.gamma_by_n.items()},
            "kappa_by_n": {str(n): list(k) for n, k in self.kappa_by_n.items()},
        }


def char_function_check(
    cfg: ExperimentConfig, t_grid: Sequence[float]
) -> CfReport:
    """Empirical characteristic function against the adjusted-normal transform.

    The envelope at each t is (|t| + |t|**(k + 4)) (beta + gamma); ratio
    summaries skip t = 0 where the envelope vanishes.
    """
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise ConfigError("t_grid must be nonempty")
    if any(abs(t) > 6.0 for t in t_grid):
        raise ConfigError("t_grid entries must satisfy |t| <= 6")
    _adjusted_only(cfg, "cf-check")
    rows = []
    max_ratio_by_n: dict[int, float] = {}
    max_ratio_se_by_n: dict[int, float] = {}
    beta_by_n: dict[int, float] = {}
    gamma_by_n: dict[int, float] = {}
    kappa_by_n: dict[int, tuple[float, ...]] = {}
    for d, adj, values, _ in _replicates(cfg, _adjusted):
        n, k = d.n, d.order
        kappa_by_n[n] = hoeffding.kappa_vector(d)
        beta_by_n[n] = beta_n = hoeffding.beta(d)
        gamma_by_n[n] = gamma_n = hoeffding.gamma_var(d)
        m = values.size
        best_ratio = 0.0
        best_se = 0.0
        for t in t_grid:
            cos_vals = np.cos(t * values)
            sin_vals = np.sin(t * values)
            emp = complex(cos_vals.mean(), sin_vals.mean())
            target = complex(approx.adjusted_cf(adj, t))
            gap = abs(emp - target)
            se = math.sqrt(
                (cos_vals.var(ddof=1) + sin_vals.var(ddof=1)) / m
            )
            envelope = (abs(t) + abs(t) ** (k + 4)) * (beta_n + gamma_n)
            rows.append(CfRow(n, t, emp, target, gap, se, envelope))
            if envelope > 0.0 and gap / envelope > best_ratio:
                best_ratio = gap / envelope
                best_se = se / envelope
        max_ratio_by_n[n] = best_ratio
        max_ratio_se_by_n[n] = best_se
    return CfReport(
        cfg,
        tuple(rows),
        max_ratio_by_n,
        max_ratio_se_by_n,
        beta_by_n,
        gamma_by_n,
        kappa_by_n,
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _atomic_write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; use force to overwrite")
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def rate_csv_text(report: RateReport) -> str:
    lines = ["n,distance,se,dropped"]
    for r in report.rows:
        lines.append(f"{r.n},{r.distance!r},{r.se!r},{r.dropped}")
    return "\n".join(lines) + "\n"


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_rate_report(
    report: RateReport, csv_path: str | Path, force: bool = False
) -> tuple[Path, Path]:
    """Write the CSV table and its JSON sidecar; returns both paths."""
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
    _atomic_write_text(csv_path, rate_csv_text(report), force)
    _atomic_write_text(json_path, json_text(report.to_json()), force)
    return csv_path, json_path


def write_json_report(payload: dict, path: str | Path, force: bool = False) -> Path:
    path = Path(path)
    _atomic_write_text(path, json_text(payload), force)
    return path
