"""Monte Carlo experiment driver: ECDF rate studies and comparator checks.

Replicates are drawn and evaluated in fixed chunks of ``CHUNK_REPLICATES``.
Chunk ``c`` at sample size ``n`` is the first ``m * n`` draws of stream
index ``c`` of the counter-based generator, read as ``m`` rows of ``n``;
replicate ``c * CHUNK_REPLICATES + j`` is row ``j``.  So the chunk at every
smaller n is a prefix of the chunk at the largest n: a chunk's stream is
drawn once, to the largest n of the grid, and every n reads its rows from
that one pass, in row blocks within the ``model.ROW_BLOCK_CELLS`` budget,
so a chunk's memory does not grow with ``n``.  An experiment scores its
chunks in one thread pool, one task per chunk over the whole grid, with at
most one worker per chunk; once every chunk is done, each n's values are
joined in chunk order and handed on in grid order.  Neither the values,
the chunk size, the block size nor the layout depends on the worker count,
so reports are byte-identical for any number of threads.
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
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from . import approx, hoeffding, model, studentize
from .errors import (
    ConfigError,
    FitError,
    IncompatibleOptions,
    InsufficientSample,
    PresetError,
    ValidationError,
    ZeroVarianceEstimate,
)
from .payload import SCHEMA_VERSION, Payload, encode  # tests read exper.SCHEMA_VERSION

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
class ExperimentConfig(Payload):
    schema = True

    kernel: str
    dist: str
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    reps: int = DEFAULT_REPS
    seed: int = 0
    estimator: str = "standardized"
    target: TargetSpec = field(default_factory=TargetSpec)
    # an execution detail, left out so that reports from different worker
    # counts stay byte-identical
    threads: int = field(default=1, metadata={"payload": False})

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

def _row_jackknife_stats(
    kernel: model.Kernel, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(U-statistic, jackknife variance of the linear scale) per row.

    Order-2 kernels only.  ``rows`` is overwritten, as by ``kernel.rows``.
    """
    n = rows.shape[1]
    if n < 3:
        raise InsufficientSample("jackknife variance needs n >= 3")
    u, ss = kernel.rows.jackknife(rows)
    return u, studentize.jackknife_from_means(u, ss, n)


def _chunk_bounds(reps: int) -> list[tuple[int, int]]:
    return [
        (lo, min(lo + CHUNK_REPLICATES, reps))
        for lo in range(0, reps, CHUNK_REPLICATES)
    ]


def _score_chunk(
    decs: Sequence[hoeffding.DecomposedStatistic],
    bounds: tuple[int, int],
    seed: int,
    estimator: str,
) -> list[tuple[np.ndarray, int]]:
    """(statistic values, rows dropped) of one chunk of replicates at each n.

    ``decs`` are the decompositions of the grid, in grid order; the chunk's
    stream is drawn once, to the grid's largest n.
    """
    lo, hi = bounds
    studentized = estimator == "studentized"
    u = {d.n: np.empty(hi - lo) for d in decs}
    var_hat = {d.n: np.empty(hi - lo) if studentized else None for d in decs}
    kernel = decs[0].kernel
    # rows are drawn and scored a block at a time; the row forms take each
    # block as scratch, since row_blocks refills it for the next
    blocks = model.row_blocks(
        decs[0].dist, hi - lo, [d.n for d in decs], seed, lo // CHUNK_REPLICATES
    )
    for n, first, rows in blocks:
        part = slice(first, first + rows.shape[0])
        if studentized:
            u[n][part], var_hat[n][part] = _row_jackknife_stats(kernel, rows)
        else:
            u[n][part] = kernel.rows.u(rows)
    return [_statistic_values(d, u[d.n], var_hat[d.n]) for d in decs]


def _statistic_values(
    d: hoeffding.DecomposedStatistic, u: np.ndarray, var_hat: Optional[np.ndarray]
) -> tuple[np.ndarray, int]:
    """(statistic values, rows dropped) from the rows' U-statistics at ``d.n``."""
    n = d.n
    if var_hat is None:
        return math.sqrt(n) * (u - d.theta) / (d.kernel.order * d.sigma_g), 0
    keep = var_hat > 0.0
    dropped = int(var_hat.size - np.count_nonzero(keep))
    s = math.sqrt(n) * (u[keep] - d.theta) / (2.0 * np.sqrt(var_hat[keep]))
    return s, dropped


def _gather(parts: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """The chunks of one n joined in chunk order, and their dropped rows."""
    values = np.concatenate([p[0] for p in parts])
    if values.size == 0:
        raise ZeroVarianceEstimate("every replicate had a zero variance estimate")
    return values, sum(p[1] for p in parts)


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


def _target(
    d: hoeffding.DecomposedStatistic, cfg: ExperimentConfig
) -> approx.AdjustedNormal:
    """The reference law of ``cfg.target`` at ``d.n``.

    The adjusted law is truncated to the order that ``order`` or ``alpha``
    sets; the other targets refuse those rather than ignore them.
    """
    kind = cfg.target.kind
    if kind != "adjusted" and (cfg.target.order, cfg.target.alpha) != (None, None):
        raise IncompatibleOptions(
            f"--order and --target-alpha set the adjusted target; {kind} takes neither"
        )
    if kind == "phi":
        return approx.AdjustedNormal()
    if kind == "adjusted":
        return approx.AdjustedNormal(hoeffding.kappa_vector(d)[: _adjusted_order(cfg, d.order)])
    e_gg_eta, e_g3, sigma_g = hoeffding.order2_edgeworth_inputs(d)
    return approx.edgeworth2(e_gg_eta, e_g3, sigma_g, d.n)


def _adjusted_only(cfg: ExperimentConfig, command: str) -> ExperimentConfig:
    """``cfg`` with the adjusted target kind that ``command`` scores against.

    The studentized estimator and the Edgeworth target are refused rather
    than ignored; ``order`` and ``alpha`` are kept, since they shape the law.
    """
    if cfg.estimator == "studentized" or cfg.target.kind == "edgeworth2":
        raise IncompatibleOptions(
            f"{command} scores the standardized statistic against the adjusted "
            "law; it takes neither the studentized estimator nor the edgeworth2 target"
        )
    return replace(cfg, target=replace(cfg.target, kind="adjusted"))


def _replicates(
    cfg: ExperimentConfig,
) -> Iterator[tuple[hoeffding.DecomposedStatistic, approx.AdjustedNormal, np.ndarray, int]]:
    """``(d, _target(d, cfg), values, dropped)`` at each n, in grid order.

    Every target is built before any replicate is drawn, so a target the
    configuration cannot have fails without sampling.  One pool of
    ``min(threads, chunks)`` workers takes one task per chunk, which scores
    the chunk at every n of the grid from one pass over its stream; the n
    are yielded once every chunk is done.
    """
    resolved = _resolve(cfg)
    targets = {n: _target(d, cfg) for n, d in resolved.items()}
    decs = list(resolved.values())
    bounds = _chunk_bounds(cfg.reps)
    pool = ThreadPoolExecutor(max_workers=min(cfg.threads, len(bounds)))
    try:
        chunks = [pool.submit(_score_chunk, decs, b, cfg.seed, cfg.estimator) for b in bounds]
        parts = [f.result() for f in chunks]
    finally:
        # after a chunk that fails, chunks not yet started are dropped
        # rather than scored
        pool.shutdown(cancel_futures=True)
    for i, d in enumerate(decs):
        yield d, targets[d.n], *_gather([p[i] for p in parts])


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
class RateFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class RateReport(Payload):
    schema = True

    config: ExperimentConfig
    theta: float
    sigma_g: float
    rows: tuple[RateRow, ...]
    kappa_by_n: dict[int, tuple[float, ...]]
    fit: Optional[RateFit]

    @property
    def slope(self) -> Optional[float]:
        return None if self.fit is None else self.fit.slope


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
    for d, target, values, dropped in _replicates(cfg):
        kappa_by_n[d.n] = hoeffding.kappa_vector(d)
        distance = approx.kolmogorov_distance(
            values, lambda x: approx.adjusted_cdf(target, x)
        )
        rows.append(RateRow(d.n, distance, approx.dkw_se(values.size), dropped))
    fit = None
    usable = [r for r in rows if r.distance > 0.0]
    if len(usable) >= 3:
        fit = RateFit(*fit_rate([r.n for r in usable], [r.distance for r in usable]))
    return RateReport(cfg, d.theta, d.sigma_g, tuple(rows), kappa_by_n, fit)


# ---------------------------------------------------------------------------
# Quadratic-kernel comparator study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparatorStudy(Payload):
    """Distances of one Gaussian quadratic-kernel run to both reference laws."""

    schema = True

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
    cfg = ExperimentConfig(
        f"quadratic:{float(eps)!r}", "normal", (n,), reps, seed, target=TargetSpec("adjusted"),
        threads=threads,
    )
    ((d, adj, values, _),) = _replicates(cfg)
    values = np.sort(values)
    dist_phi = approx.kolmogorov_distance(values, approx.normal_cdf)
    dist_adjusted = approx.kolmogorov_distance(
        values, lambda x: approx.adjusted_cdf(adj, x)
    )
    return ComparatorStudy(
        eps,
        n,
        reps,
        seed,
        adj.kappa[1],
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
class PerturbedNormalReport(Payload):
    schema = True

    a: float
    neg_moment: float
    rows: tuple[PerturbationRow, ...]
    exponent: float
    exponent_bound: float
    satisfies_bound: bool


def _bisect_increasing(
    fn: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    for _ in range(100):
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


def _perturbed_sup_distance(eps: float, a: float) -> float:
    scale = (eps * a) ** (1.0 / (1.0 + a))
    z_star = -scale
    peak = z_star - eps * scale ** (-a) + eps * model.gaussian_abs_moment(-a)

    def gap(x: np.ndarray) -> np.ndarray:
        return np.abs(perturbed_normal_cdf(x, eps, a) - approx.normal_cdf(x))

    xs = np.unique(
        np.concatenate(
            [
                np.linspace(-8.0, 8.0, 2001),
                np.linspace(-10.0 * scale, 10.0 * scale, 2001),
                peak + scale * np.linspace(-3.0, 3.0, 2001),
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
    """A test integrand with its derivative sup-norms and, in closed form,
    its mean ``adjusted_mean(adj)`` under the adjusted law ``adj``."""

    ident: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv_norm: Callable[[int], float]
    adjusted_mean: Callable[[approx.AdjustedNormal], float]


def _gauss_adjusted_mean(adj: approx.AdjustedNormal) -> float:
    """Mean of exp(-x^2/2) under the adjusted law.

    The adjusted density is phi(x) (1 + sum_s kappa_s He_(s+1)(x)), and
    exp(-x^2/2) phi(x) is 1/sqrt(2) times the N(0, 1/2) density, under
    which He_(s+1) has mean (-1/2)^((s+1)/2) s!! at odd s and 0 at even s.
    """
    total = 1.0
    for s in range(1, adj.order + 1, 2):
        hermite_mean = (-0.5) ** ((s + 1) // 2) * math.prod(range(s, 0, -2))
        total += hermite_mean * adj.kappa[s - 1]
    return total / math.sqrt(2.0)


def smooth_test_function(ident: str) -> SmoothFunction:
    """Built-in test integrands with known derivative sup-norms.

    ``cos:omega`` has m-th derivative sup-norm omega**m and adjusted mean
    Re ``adjusted_cf(adj, omega)``; ``gauss`` is the unnormalized Gaussian
    bump with sup-norms taken from a dense grid; ``const:c`` is constant
    with all derivatives zero.
    """
    base, _, arg = ident.partition(":")

    def parameter(default: float) -> float:
        if not arg:
            return default
        try:
            value = float(arg)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise PresetError(
                f"smooth test function {ident!r}: the parameter after ':' must be a finite number"
            )
        return value

    if base == "cos":
        omega = parameter(1.0)
        if omega <= 0.0:
            raise PresetError("cos frequency must be positive")
        return SmoothFunction(
            ident,
            lambda x, w=omega: np.cos(w * x),
            lambda m, w=omega: w**m,
            lambda adj, w=omega: float(approx.adjusted_cf(adj, w).real),
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

        return SmoothFunction(
            ident, lambda x: np.exp(-0.5 * x * x), norm, _gauss_adjusted_mean
        )
    if base == "const":
        level = parameter(1.0)
        return SmoothFunction(
            ident,
            lambda x, c=level: np.full_like(np.asarray(x, dtype=float), c),
            lambda m, c=level: abs(c) if m == 0 else 0.0,
            lambda adj, c=level: c,
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
class SmoothReport(Payload):
    schema = True

    config: ExperimentConfig
    function: str
    deriv_const: float
    rows: tuple[SmoothRow, ...]


def smooth_function_check(cfg: ExperimentConfig, f_ident: str) -> SmoothReport:
    """Gap between the sampled mean of f(S) and its exact adjusted-normal mean.

    The reported scale is beta + gamma; the derivative constant sums the
    sup-norms of orders 2 through k + 4.  A function whose constant
    overflows is refused before any sampling, and one whose sampled mean or
    SE is not finite once they are taken.
    """
    f = smooth_test_function(f_ident)
    cfg = _adjusted_only(cfg, "smooth-check")
    order = model.kernel_preset(cfg.kernel).order
    try:
        deriv_const = math.fsum(f.deriv_norm(m) for m in range(2, order + 5))
    except OverflowError:
        raise PresetError(
            f"smooth test function {f.ident!r}: its derivative sup-norms overflow"
        ) from None
    rows = []
    for d, adj, values, _ in _replicates(cfg):
        target = f.adjusted_mean(adj)
        fvals = np.asarray(f.fn(values), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(fvals.mean())
            se = float(fvals.std(ddof=1) / math.sqrt(fvals.size))
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise ValidationError(
                f"smooth test function {f.ident!r}: its sample mean or its SE is not finite"
            )
        lhs = abs(mean - target)
        scale = hoeffding.beta(d) + hoeffding.gamma_var(d)
        rows.append(SmoothRow(d.n, lhs, scale, lhs / scale, se))
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
class CfReport(Payload):
    schema = True

    config: ExperimentConfig
    rows: tuple[CfRow, ...]
    max_ratio_by_n: dict[int, float]
    max_ratio_se_by_n: dict[int, float]
    beta_by_n: dict[int, float]
    gamma_by_n: dict[int, float]
    kappa_by_n: dict[int, tuple[float, ...]]


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
    cfg = _adjusted_only(cfg, "cf-check")
    rows = []
    max_ratio_by_n: dict[int, float] = {}
    max_ratio_se_by_n: dict[int, float] = {}
    beta_by_n: dict[int, float] = {}
    gamma_by_n: dict[int, float] = {}
    kappa_by_n: dict[int, tuple[float, ...]] = {}
    for d, adj, values, _ in _replicates(cfg):
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
        cfg, tuple(rows), max_ratio_by_n, max_ratio_se_by_n, beta_by_n, gamma_by_n, kappa_by_n
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def refuse_existing(paths: Sequence[Path], force: bool) -> None:
    """Raise FileExistsError for the first of ``paths`` that exists, unless ``force``."""
    for path in paths:
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; use force to overwrite")


def _atomic_write_text(path: Path, text: str, force: bool) -> None:
    refuse_existing([path], force)
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


def json_text(payload: Any) -> str:
    """``payload`` (a report, or any value ``encode`` takes) as strict
    JSON text (RFC 8259), which has no NaN or Infinity."""
    try:
        return json.dumps(encode(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"payload is not strict JSON: {exc}") from exc


def rate_report_paths(csv_path: str | Path) -> tuple[Path, Path]:
    """The CSV table of a rate report and its JSON sidecar, which must differ."""
    csv_path = Path(csv_path)
    json_path = csv_path.with_suffix(".json")
    if json_path == csv_path:
        raise ValidationError(f"{csv_path} would be both the CSV table and its JSON sidecar")
    return csv_path, json_path


def write_rate_report(
    report: RateReport, csv_path: str | Path, force: bool = False
) -> tuple[Path, Path]:
    """Write the CSV table and its JSON sidecar; returns both paths."""
    csv_path, json_path = rate_report_paths(csv_path)
    # the JSON text is made first, so a payload it refuses writes neither file
    text = json_text(report)
    _atomic_write_text(csv_path, rate_csv_text(report), force)
    _atomic_write_text(json_path, text, force)
    return csv_path, json_path


def write_json_report(payload: Any, path: str | Path, force: bool = False) -> Path:
    """Write ``payload`` (a report, or any value ``encode`` takes) as JSON."""
    path = Path(path)
    _atomic_write_text(path, json_text(payload), force)
    return path
