"""Hoeffding decomposition of U-statistics and its moment functionals.

For a symmetric kernel h of order k with mean theta, the marginal kernels
are ``h_p(x_1..x_p) = E h(x_1..x_p, X_(p+1)..X_k)`` and the degenerate
components follow by inclusion-exclusion:

    t_p(x_1..x_p) = sum over B subset of {1..p} of (-1)^(p-|B|) h_|B|(x_B).

Writing g = t_1 and sigma_g^2 = var g(X), the standardized statistic

    S = sqrt(n) (U_n - theta) / (k sigma_g)

splits as S = L + T where L sums the scaled linear terms
``L_i = g(X_i) / (sqrt(n) sigma_g)`` (so var L = 1) and T collects the
scaled degenerate components of orders 2..k:

    T_(i_1..i_p) = sqrt(n) C(k,p) t_p(X_(i_1)..X_(i_p)) / (k sigma_g C(n,p)).

Moment functionals of the split:

* ``beta``  = n E|L_1|^3, the scaled third absolute moment of one linear term;
* ``gamma`` = var T = sum_p C(n,p) E T_(1..p)^2;
* ``gamma_alpha`` replaces the square by an alpha-th absolute power;
* ``kappa_p`` = C(n,p) E[L_1 .. L_p T_(1..p)], the aligned cross moment
  between the linear part and the order-p component (degeneracy kills every
  non-aligned term in E[L_1..L_p T]).

Four evaluation strategies are supported:

* ``exact``: weighted sums over the atoms of a finite law;
* ``analytic``: closed forms for kernels that declare ``Kernel.quad_coefs``
  (their degenerate part is ``c * (x - mu)(y - mu)``; the name never
  selects them);
* ``quadrature``: for continuous laws with a quantile function Q, the
  ``QUADRATURE_NODES``-point Gauss-Legendre rule on the quantile scale, i.e.
  the nodes Q((u_i + 1)/2) with weights w_i/2, used exactly like atoms;
* ``monte-carlo``: nested Monte Carlo with common random numbers for the
  inner expectations.

``exact`` and ``quadrature`` share one code path: the kernel is evaluated
once on the product grid of the nodes, and theta, g, t_p and every moment
integral are weighted sums over tables built from that grid.

The projection does not depend on n.  It computes each raw integral
(E|g|^q, E|t_p|^alpha, E[g(x_1)..g(x_p) t_p]) once, together with its error
bar: the Monte Carlo standard error, or for quadrature the gap
|Q_N - Q_(N/2)| to the same rule at half the nodes.  The functionals above
only scale those integrals to a sample size; decompositions that differ only
in n can share one projection.  Error bars are reported by
:func:`moment_summary`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import model
from .errors import (
    BudgetError,
    DegenerateKernel,
    InsufficientSample,
    ValidationError,
)
from .model import Continuous, Distribution, FiniteDiscrete, Kernel

MAX_DECOMPOSE_ORDER = 5
DEGENERACY_RATIO = 1e-12
DEFAULT_INNER_REPS = 10_000
DEFAULT_SUBSET_BUDGET = model.DEFAULT_SUBSET_BUDGET

# On finite support the nested plug-in draws (theta, sigma_g, inner pool)
# cost O(atoms) per draw batch via multinomial counts, so they get many more
# draws than the outer loop; this keeps the reported standard errors honest,
# since they only track the outer-loop noise.
PLUGIN_DRAW_FACTOR = 4096

# Stream indices reserved for internal draws so they never collide with
# experiment chunk streams (which use small nonnegative integers).
STREAM_INNER = 1 << 40
STREAM_THETA = (1 << 40) + 1
STREAM_SIGMA = (1 << 40) + 2
STREAM_MOMENT_BASE = 1 << 41

# Monte Carlo moment integrals by kind: (fixed, per_order).  The order-p
# integral draws its p-tuples with ``ProjectionSet._draw`` from stream
# STREAM_MOMENT_BASE + fixed + per_order * p (column j from that stream + j on
# continuous laws, one multinomial from it on finite support).  The order-2
# Edgeworth input E[g g t_2] is the "aligned" integral at p = 2, so it shares
# kappa_2's tuples; "g3" owns its stream.
_MOMENT_STREAMS = {
    "abs_g": (0, 0),
    "abs_t": (0, 16),
    "aligned": (0, 64),
    "g3": (256, 0),
}

_CHUNK_CELLS = 4_000_000

# Gauss-Legendre nodes of the quadrature strategy.  The same rule at half as
# many nodes gives each integral's reported error |Q_N - Q_(N/2)|.  The
# kernel is tabulated on the N^k node grid, which must fit one chunk of cells.
QUADRATURE_NODES = 1024

STRATEGIES = ("exact", "analytic", "quadrature", "monte-carlo")


# ---------------------------------------------------------------------------
# Closed forms for separable degenerate parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableForms:
    """Closed-form pieces for order-2 kernels with t_2 = coef*(x-mu)(y-mu)."""

    theta: float
    mu: float
    g_fn: Callable[[np.ndarray], np.ndarray]
    t2_coef: float
    var_g: float
    var_h: float
    e_g3: float
    e_g_centered: float


def separable_forms(kernel: Kernel, dist: Distribution) -> Optional[SeparableForms]:
    """Closed forms from the kernel's ``quad_coefs``, or None without them.

    For h = a(x+y) + b(x^2+y^2) + c*x*y and z = x - mu, the projection is
    g = lin*z + b(z^2 - s2) with lin = a + (2b+c)*mu, and t_2 = c*z*w, so
    every moment is a polynomial in the central moments s2, m3, .., m6.
    """
    if kernel.quad_coefs is None:
        return None
    a, b, c = kernel.quad_coefs
    mu = model.mean(dist)
    s2 = model.variance(dist)
    m3 = model.central_moment(dist, 3)
    m4 = model.central_moment(dist, 4)
    m5 = model.central_moment(dist, 5)
    m6 = model.central_moment(dist, 6)
    sq = 2.0 * b + c
    lin = a + sq * mu
    var_g = lin * lin * s2 + 2.0 * lin * b * m3 + b * b * (m4 - s2 * s2)
    return SeparableForms(
        theta=2.0 * a * mu + sq * mu * mu + 2.0 * b * s2,
        mu=mu,
        g_fn=lambda x: lin * (x - mu) + b * (np.square(x - mu) - s2),
        t2_coef=c,
        var_g=var_g,
        # Hoeffding's orthogonality: var h = 2 var g + var t_2
        var_h=2.0 * var_g + c * c * s2 * s2,
        e_g3=(
            lin**3 * m3
            + 3.0 * lin * lin * b * (m4 - s2 * s2)
            + 3.0 * lin * b * b * (m5 - 2.0 * s2 * m3)
            + b**3 * (m6 - 3.0 * s2 * m4 + 2.0 * s2**3)
        ),
        e_g_centered=lin * s2 + b * m3,
    )


# ---------------------------------------------------------------------------
# Projection strategies
# ---------------------------------------------------------------------------

def _node_grid(
    points: np.ndarray, weights: np.ndarray, p: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Product grid over points^p as ravelled columns plus cell weights."""
    cols = [g.ravel() for g in np.meshgrid(*([points] * p), indexing="ij")]
    w = np.prod(np.meshgrid(*([weights] * p), indexing="ij"), axis=0).ravel()
    return cols, w


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule moved to (0, 1), as read-only arrays."""
    from numpy.polynomial.legendre import leggauss

    u, w = leggauss(m)
    nodes, weights = (u + 1.0) / 2.0, w / 2.0
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _quadrature_nodes(dist: Continuous, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m Gauss-Legendre nodes on the quantile scale and their weights."""
    u, w = _gauss_legendre(m)
    return np.asarray(dist.ppf(u), dtype=float), w


def _inclusion_exclusion(
    out: np.ndarray, p: int, term: Callable[[tuple[int, ...]], np.ndarray | float]
) -> np.ndarray:
    """``out`` plus the sum over B of (-1)^(p-|B|) term(B), B a subset of range(p).

    With ``term(B)`` = h_|B| on the arguments B this is t_p.
    """
    for size in range(p + 1):
        sign = 1.0 if (p - size) % 2 == 0 else -1.0
        for subset in itertools.combinations(range(p), size):
            out = out + sign * term(subset)
    return out


def _contract(table: np.ndarray, v: np.ndarray) -> float:
    """Sum of ``table`` weighted by ``v`` along every axis."""
    while table.ndim:
        table = table @ v
    return float(table)


class _NodeTables:
    """Hoeffding tables of one kernel on one weighted node set.

    The kernel is evaluated once on the k-fold product grid of the nodes.
    Each marginal h_p is that grid contracted with the weights along its
    last k - p axes, and t_p follows from them by inclusion-exclusion on the
    p-fold grid, so every moment integral is a weighted sum over one table.
    """

    def __init__(self, kernel: Kernel, points: np.ndarray, weights: np.ndarray) -> None:
        k = kernel.order
        s = points.size
        # broadcasting puts the nodes on axis i of the (s,)*k grid
        axes = [points.reshape((s,) + (1,) * (k - 1 - i)) for i in range(k)]
        h = np.broadcast_to(model.kernel_values(kernel, axes), (s,) * k)
        marg = [h]
        for _ in range(k):
            marg.append(marg[-1] @ weights)
        marg.reverse()  # marg[p] is h_p on the p-fold grid
        self.w = weights
        self.theta = float(marg[0])
        self.g = marg[1] - self.theta
        self.var_g = _contract(np.square(self.g), weights)
        self.var_h = _contract(np.square(h), weights) - self.theta**2
        # h_|B| placed on the axes B of the p-fold grid
        self.t = {
            p: _inclusion_exclusion(
                np.zeros((s,) * p),
                p,
                lambda b, p=p: marg[len(b)].reshape([s if i in b else 1 for i in range(p)]),
            )
            for p in range(2, k + 1)
        }

    def moment(self, kind: str, p: int, exponent: float) -> float:
        if kind == "abs_g":
            return _contract(np.abs(self.g) ** exponent, self.w)
        if kind == "g3":
            return _contract(self.g**3, self.w)
        t = self.t[p]
        if kind == "abs_t":
            return _contract(np.abs(t) ** exponent, self.w)
        # "aligned": E[g(x_1)..g(x_p) t_p]
        return _contract(t, self.w * self.g)


def _count_stats(counts: np.ndarray, vals: np.ndarray) -> tuple[float, float, float]:
    """Mean, ddof=1 variance, and SE of the mean of values drawn ``counts`` times."""
    m = int(counts.sum())
    vals = np.asarray(vals, dtype=float)
    mean = float(np.dot(counts, vals) / m)
    var = float(np.dot(counts, np.square(vals - mean)) / (m - 1))
    var = max(var, 0.0)
    return mean, var, math.sqrt(var / m)


def _weighted_marginal(
    kernel: Kernel,
    cols: Sequence[np.ndarray],
    tail_cols: Sequence[np.ndarray],
    weights: np.ndarray,
) -> np.ndarray:
    """E over the tail coordinates, vectorized over the leading columns."""
    lead = [np.asarray(c, dtype=float) for c in cols]
    n_pts = lead[0].size
    n_tail = weights.size
    out = np.empty(n_pts)
    step = max(1, _CHUNK_CELLS // max(1, n_tail))
    for lo in range(0, n_pts, step):
        hi = min(n_pts, lo + step)
        args = [c[lo:hi, None] for c in lead] + [t[None, :] for t in tail_cols]
        out[lo:hi] = model.kernel_values(kernel, args) @ weights
    return out


def _fits_quadrature(kernel: Kernel) -> bool:
    return QUADRATURE_NODES**kernel.order <= _CHUNK_CELLS


class ProjectionSet:
    """Marginal kernels h_p and degenerate components t_p for one pair.

    ``strategy`` is one of ``"exact"`` (finite support), ``"analytic"``
    (separable closed forms), ``"quadrature"`` (a Gauss-Legendre rule on the
    quantile scale of a continuous law with a ``ppf``), or ``"monte-carlo"``
    (nested integration with ``inner_reps`` common-random-number draws
    shared by every evaluation).  ``"auto"`` picks the first that applies,
    in that order; quadrature applies to kernels whose node grid of
    ``QUADRATURE_NODES**order`` cells fits the cell budget, which every
    order-2 kernel does.  ``inner_reps`` matters only for Monte Carlo.

    Monte Carlo draws every tuple set (the inner pool, theta, var g, each
    moment integral) with ``_draw`` and scores it with ``_count_stats``.
    """

    def __init__(
        self,
        kernel: Kernel,
        dist: Distribution,
        strategy: str = "auto",
        inner_reps: int = DEFAULT_INNER_REPS,
        seed: int = 0,
    ) -> None:
        k = kernel.order
        if k > MAX_DECOMPOSE_ORDER:
            raise ValidationError(
                f"decomposition supports kernel order <= {MAX_DECOMPOSE_ORDER}"
            )
        forms = None
        if strategy == "auto":
            if isinstance(dist, FiniteDiscrete):
                strategy = "exact"
            else:
                forms = separable_forms(kernel, dist)
                if forms is not None:
                    strategy = "analytic"
                elif dist.ppf is not None and _fits_quadrature(kernel):
                    strategy = "quadrature"
                else:
                    strategy = "monte-carlo"
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
        if strategy == "exact" and not isinstance(dist, FiniteDiscrete):
            raise ValidationError("exact strategy requires finite support")
        if strategy == "quadrature":
            if isinstance(dist, FiniteDiscrete) or dist.ppf is None:
                raise ValidationError(
                    "quadrature strategy requires a continuous law with a ppf"
                )
            if not _fits_quadrature(kernel):
                raise BudgetError(
                    f"quadrature grid of {QUADRATURE_NODES}^{k} cells exceeds "
                    f"budget {_CHUNK_CELLS}"
                )
        self.kernel = kernel
        self.dist = dist
        self.strategy = strategy
        self.inner_reps = int(inner_reps)
        self.seed = int(seed)
        self.forms: Optional[SeparableForms] = None
        self._moments: dict[tuple, tuple[float, Optional[float]]] = {}
        # node-set strategies: the tables of each rule, finest first, and the
        # finest (points, weights) for marginals at arbitrary points
        self._tables: list[_NodeTables] = []
        self._nodes: Optional[tuple[np.ndarray, np.ndarray]] = None
        # Monte Carlo moment tuple sets (columns, counts, h_1s) by (stream, p)
        self._draws: dict[tuple[int, int], tuple] = {}
        if strategy == "analytic":
            forms = forms or separable_forms(kernel, dist)
            if forms is None:
                raise ValidationError(
                    f"no analytic forms for kernel {kernel.ident!r} under {dist.ident!r}"
                )
            self.forms = forms
            self.theta = forms.theta
            self.var_g = forms.var_g
            self.var_h = forms.var_h
        elif strategy in ("exact", "quadrature"):
            if strategy == "exact":
                node_sets = [(dist.atoms, dist.probs)]
            else:
                node_sets = [
                    _quadrature_nodes(dist, m)
                    for m in (QUADRATURE_NODES, QUADRATURE_NODES // 2)
                ]
            self._nodes = node_sets[0]
            self._tables = [_NodeTables(kernel, *nodes) for nodes in node_sets]
            fine = self._tables[0]
            self.theta, self.var_g, self.var_h = fine.theta, fine.var_g, fine.var_h
            if strategy == "quadrature":
                self.theta_se = abs(fine.theta - self._tables[1].theta)
        else:
            if self.inner_reps < 2:
                raise ValidationError("monte-carlo strategy needs inner_reps >= 2")
            m = self.inner_reps
            if isinstance(dist, FiniteDiscrete):
                m *= PLUGIN_DRAW_FACTOR
            # the inner pool: tuples of the k - 1 tail arguments, weighted
            cols, counts = self._draw(STREAM_INNER, max(1, k - 1), m)
            self._pool = (cols, counts / m)
            cols, counts = self._draw(STREAM_THETA, k, m)
            self.theta, self.var_h, self.theta_se = _count_stats(
                counts, model.kernel_values(kernel, cols)
            )
            cols, counts = self._draw(STREAM_SIGMA, 1, m)
            _, self.var_g, _ = _count_stats(counts, self.g_values(cols[0]))

    # -- evaluation ---------------------------------------------------------

    def moment(
        self, kind: str, p: int, exponent: float = 1.0
    ) -> tuple[float, Optional[float]]:
        """One n-free moment integral and its error bar (None when exact).

        ``kind`` is ``"abs_g"`` (E|g|^exponent, p = 1), ``"abs_t"``
        (E|t_p|^exponent), ``"aligned"`` (E[g(x_1)..g(x_p) t_p], at p = 2 also
        the order-2 Edgeworth input E[g g t_2]) or ``"g3"`` (E g^3, p = 1).
        The error bar is the Monte Carlo SE, or |Q_N - Q_(N/2)|
        under quadrature.  Each integral is computed once per projection;
        callers scale it to a sample size.
        """
        key = (kind, p, exponent)
        if key not in self._moments:
            self._moments[key] = self._integrate(kind, p, exponent)
        return self._moments[key]

    def _integrate(self, kind: str, p: int, exponent: float) -> tuple[float, Optional[float]]:
        forms = self.forms
        if forms is not None:
            if kind == "abs_g":
                val = model.expectation(
                    self.dist, lambda x: np.abs(self.g_values(x)) ** exponent
                )
            elif kind == "abs_t":
                abs_centered = model.expectation(
                    self.dist, lambda x: np.abs(x - forms.mu) ** exponent
                )
                val = abs(forms.t2_coef) ** exponent * abs_centered**2
            elif kind == "g3":
                val = forms.e_g3
            else:  # "aligned": E[g g t_2] for order-2 kernels
                # adding 0.0 turns an exact -0.0 into 0.0
                val = forms.t2_coef * forms.e_g_centered**2 + 0.0
            return val, None
        if self._tables:
            vals = [tables.moment(kind, p, exponent) for tables in self._tables]
            return vals[0], abs(vals[0] - vals[1]) if len(vals) > 1 else None
        return self._monte_carlo(kind, p, exponent)

    def _monte_carlo(self, kind: str, p: int, exponent: float) -> tuple[float, float]:
        """Monte Carlo estimate and SE over ``inner_reps`` draws.

        The draws come from the streams starting at ``STREAM_MOMENT_BASE``
        plus the kind's offset in ``_MOMENT_STREAMS``; each tuple set and
        h_1 on its columns are made once and shared by every exponent.
        """
        fixed, per_order = _MOMENT_STREAMS[kind]
        key = (STREAM_MOMENT_BASE + fixed + per_order * p, p)
        if key not in self._draws:
            cols, counts = self._draw(*key, self.inner_reps)
            self._draws[key] = (cols, counts, [self.marginal_values(1, [c]) for c in cols])
        cols, counts, h1s = self._draws[key]
        mean, _, se = _count_stats(counts, self._integrand(kind, exponent, cols, h1s))
        return mean, se

    def _draw(self, stream: int, p: int, m: int) -> tuple[list[np.ndarray], np.ndarray]:
        """m sampled p-tuples as parallel columns and a count per tuple.

        On finite support the columns are the atoms^p grid and the counts one
        multinomial of m from ``stream``: the same information as m raw
        tuples at O(atoms^p) evaluation cost.  Otherwise column j holds m
        draws from stream ``stream + j`` and every count is 1.
        """
        dist = self.dist
        if isinstance(dist, FiniteDiscrete):
            cols, w = _node_grid(dist.atoms, dist.probs, p)
            return cols, model.stream_generator(self.seed, stream).multinomial(m, w)
        return [model.sample(dist, m, self.seed, stream + j) for j in range(p)], np.ones(m)

    def _integrand(
        self,
        kind: str,
        exponent: float,
        cols: Sequence[np.ndarray],
        h1s: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The integrand of ``kind`` on parallel columns, given h_1 on each."""
        g = [h1 - self.theta for h1 in h1s]
        if kind == "abs_g":
            return np.abs(g[0]) ** exponent
        if kind == "g3":
            return g[0] ** 3
        t = self._component(len(cols), cols, h1s)
        if kind == "abs_t":
            return t * t if exponent == 2.0 else np.abs(t) ** exponent
        for gc in g:
            t = t * gc
        return t

    def marginal_values(self, p: int, cols: Sequence[np.ndarray]) -> np.ndarray:
        """h_p on parallel argument columns."""
        k = self.kernel.order
        if not 0 <= p <= k:
            raise ValidationError(f"marginal order must lie in [0, {k}]")
        cols = [np.asarray(c, dtype=float) for c in cols]
        if len(cols) != p:
            raise ValidationError(f"expected {p} columns, got {len(cols)}")
        if p == 0:
            return np.full(1, self.theta)
        if p == k:
            return model.kernel_values(self.kernel, cols)
        if self.strategy == "analytic":
            forms = self.forms
            assert forms is not None and k == 2 and p == 1
            return forms.g_fn(cols[0]) + forms.theta
        if self._nodes is not None:
            grid, w = _node_grid(*self._nodes, k - p)
        else:  # the inner pool's tuples, read up to the tail's length
            grid, w = self._pool
        return _weighted_marginal(self.kernel, cols, grid[: k - p], w)

    def marginal(self, p: int, points: Sequence[float]) -> float:
        pts = [np.asarray([float(v)]) for v in points]
        return float(self.marginal_values(p, pts)[0])

    def g_values(self, x: np.ndarray) -> np.ndarray:
        """Linear projection g = h_1 - theta on an array of points."""
        if self.strategy == "analytic":
            assert self.forms is not None
            return np.asarray(self.forms.g_fn(np.asarray(x, dtype=float)), dtype=float)
        return self.marginal_values(1, [x]) - self.theta

    def component_values(self, p: int, cols: Sequence[np.ndarray]) -> np.ndarray:
        """Degenerate component t_p on parallel argument columns."""
        k = self.kernel.order
        if not 1 <= p <= k:
            raise ValidationError(f"component order must lie in [1, {k}]")
        cols = [np.asarray(c, dtype=float) for c in cols]
        if len(cols) != p:
            raise ValidationError(f"expected {p} columns, got {len(cols)}")
        if p == 1:
            return self.g_values(cols[0])
        if self.strategy == "analytic" and p == 2:
            forms = self.forms
            assert forms is not None
            return forms.t2_coef * (cols[0] - forms.mu) * (cols[1] - forms.mu)
        return self._component(p, cols, [self.marginal_values(1, [c]) for c in cols])

    def _component(
        self, p: int, cols: Sequence[np.ndarray], h1s: Sequence[np.ndarray]
    ) -> np.ndarray:
        """t_p on parallel columns, given h_1 on each column."""

        def term(subset: tuple[int, ...]):
            if not subset:
                return self.theta
            if len(subset) == 1:
                return h1s[subset[0]]
            return self.marginal_values(len(subset), [cols[i] for i in subset])

        return _inclusion_exclusion(np.zeros(cols[0].size), p, term)

    def component(self, p: int, points: Sequence[float]) -> float:
        pts = [np.asarray([float(v)]) for v in points]
        return float(self.component_values(p, pts)[0])


# ---------------------------------------------------------------------------
# Decomposed statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecomposedStatistic:
    """Standardized U-statistic S = L + T for one (kernel, dist, n) triple."""

    projection: ProjectionSet
    n: int
    theta: float
    sigma_g: float

    @property
    def kernel(self) -> Kernel:
        return self.projection.kernel

    @property
    def dist(self) -> Distribution:
        return self.projection.dist

    @property
    def order(self) -> int:
        return self.projection.kernel.order

    @property
    def l_scale(self) -> float:
        return 1.0 / (math.sqrt(self.n) * self.sigma_g)

    def t_scale(self, p: int) -> float:
        k = self.order
        if not 1 <= p <= k:
            raise ValidationError(f"component order must lie in [1, {k}]")
        return (
            math.sqrt(self.n)
            * math.comb(k, p)
            / (k * self.sigma_g * math.comb(self.n, p))
        )

    def _check_sample(self, data: np.ndarray) -> np.ndarray:
        x = np.asarray(data, dtype=float)
        if x.shape != (self.n,):
            raise ValidationError(f"sample must have length n = {self.n}")
        return x

    def linear_values(self, data: np.ndarray) -> np.ndarray:
        """Per-observation linear terms L_i."""
        x = self._check_sample(data)
        return self.projection.g_values(x) * self.l_scale

    def linear_part(self, data: np.ndarray) -> float:
        """L = sum of the linear terms."""
        return float(np.sum(self.linear_values(data)))

    def component_sum(self, data: np.ndarray, p: int, budget: int = DEFAULT_SUBSET_BUDGET) -> float:
        """Sum of scaled order-p components over all index subsets."""
        x = self._check_sample(data)
        if math.comb(self.n, p) > budget:
            raise BudgetError(f"C({self.n},{p}) subsets exceed budget {budget}")
        idx = np.array(list(itertools.combinations(range(self.n), p)))
        cols = [x[idx[:, c]] for c in range(p)]
        vals = self.projection.component_values(p, cols)
        return float(np.sum(vals) * self.t_scale(p))

    def remainder(self, data: np.ndarray, budget: int = DEFAULT_SUBSET_BUDGET) -> float:
        """T = sum of all degenerate component sums of order 2..k."""
        return float(
            sum(self.component_sum(data, p, budget) for p in range(2, self.order + 1))
        )

    def value(self, data: np.ndarray, budget: int = DEFAULT_SUBSET_BUDGET) -> float:
        """S via the direct path sqrt(n) (U_n - theta) / (k sigma_g)."""
        x = self._check_sample(data)
        u = model.u_statistic(self.kernel, x, budget=budget)
        return math.sqrt(self.n) * (u - self.theta) / (self.order * self.sigma_g)

    def value_via_parts(self, data: np.ndarray, budget: int = DEFAULT_SUBSET_BUDGET) -> float:
        """S via L + T; agrees with :meth:`value` up to rounding."""
        return self.linear_part(data) + self.remainder(data, budget)


def decompose(
    kernel: Kernel,
    dist: Distribution,
    n: int,
    strategy: str = "auto",
    inner_reps: int = DEFAULT_INNER_REPS,
    seed: int = 0,
) -> DecomposedStatistic:
    """Build the standardized decomposition for sample size ``n``.

    Raises :class:`DegenerateKernel` when var g is not positive relative to
    var h (threshold ``var_g <= 1e-12 * var_h``), since the standardization
    then divides by (numerical) zero.
    """
    if n < kernel.order:
        raise InsufficientSample("n must be >= kernel order")
    proj = ProjectionSet(kernel, dist, strategy=strategy, inner_reps=inner_reps, seed=seed)
    if proj.var_g <= DEGENERACY_RATIO * max(proj.var_h, 0.0):
        raise DegenerateKernel(
            f"var g = {proj.var_g:.3e} is degenerate relative to var h = {proj.var_h:.3e}"
        )
    return DecomposedStatistic(
        projection=proj,
        n=int(n),
        theta=proj.theta,
        sigma_g=math.sqrt(proj.var_g),
    )


# ---------------------------------------------------------------------------
# Moment functionals
# ---------------------------------------------------------------------------

def _scaled(
    raw: tuple[float, Optional[float]], scale: Callable[[float], float]
) -> tuple[float, Optional[float]]:
    """Apply one n-dependent scale to a raw integral and to its error bar."""
    val, se = raw
    return scale(val), None if se is None else scale(se)


def _linear_moment(d: DecomposedStatistic, q: float) -> tuple[float, Optional[float]]:
    if q < 0:
        raise ValidationError("q must be nonnegative")
    return _scaled(
        d.projection.moment("abs_g", 1, q),
        lambda v: d.n ** (1.0 - q / 2.0) * v / d.sigma_g**q,
    )


def scaled_linear_moment(d: DecomposedStatistic, q: float) -> float:
    """n E|L_1|^q, the q-th absolute moment of one linear term times n."""
    return _linear_moment(d, q)[0]


def beta(d: DecomposedStatistic) -> float:
    """n E|L_1|^3."""
    return scaled_linear_moment(d, 3.0)


def _gamma_terms(d: DecomposedStatistic, alpha: float) -> list[tuple[float, Optional[float]]]:
    """(C(n,p) E|T_(1..p)|^alpha, its error bar) for p = 1..k."""
    if not 1.0 <= alpha <= 2.0:
        raise ValidationError("alpha must lie in [1, 2]")
    out: list[tuple[float, Optional[float]]] = [(0.0, 0.0)]
    for p in range(2, d.order + 1):
        scale = math.comb(d.n, p) * d.t_scale(p) ** alpha
        out.append(_scaled(d.projection.moment("abs_t", p, alpha), lambda v: scale * v))
    return out


def gamma_components(d: DecomposedStatistic, alpha: float = 2.0) -> tuple[float, ...]:
    """C(n,p) E|T_(1..p)|^alpha for p = 1..k.

    The order-1 entry is identically zero: the decomposition routes the
    whole order-1 component into the linear part.
    """
    return tuple(val for val, _ in _gamma_terms(d, alpha))


def gamma_alpha(d: DecomposedStatistic, alpha: float) -> float:
    """gamma^(alpha) = sum_p C(n,p) E|T_(1..p)|^alpha."""
    return float(sum(gamma_components(d, alpha)))


def gamma_var(d: DecomposedStatistic) -> float:
    """var T; identical code path to ``gamma_alpha(d, 2.0)``."""
    return gamma_alpha(d, 2.0)


def _kappa(d: DecomposedStatistic, p: int) -> tuple[float, Optional[float]]:
    if not 1 <= p <= d.order:
        raise ValidationError(f"p must lie in [1, {d.order}]")
    if p == 1:
        return 0.0, None
    factor = math.comb(d.n, p) * d.l_scale**p * d.t_scale(p)
    return _scaled(d.projection.moment("aligned", p), lambda v: factor * v)


def kappa(d: DecomposedStatistic, p: int) -> float:
    """Aligned cross moment kappa_p = C(n,p) E[L_1..L_p T_(1..p)].

    kappa_1 vanishes identically for decomposed statistics (the remainder
    carries no order-1 component) and is returned as exact zero.
    """
    return _kappa(d, p)[0]


def kappa_vector(d: DecomposedStatistic) -> tuple[float, ...]:
    """(kappa_1, ..., kappa_k)."""
    return tuple(kappa(d, p) for p in range(1, d.order + 1))


def order2_edgeworth_inputs(d: DecomposedStatistic) -> tuple[float, float, float]:
    """(E[g1 g2 t2], E[g^3], sigma_g) for order-2 Edgeworth comparators."""
    if d.order != 2:
        raise ValidationError("Edgeworth comparator inputs need an order-2 kernel")
    e_gg_eta, _ = d.projection.moment("aligned", 2)
    e_g3, _ = d.projection.moment("g3", 1)
    return e_gg_eta, e_g3, d.sigma_g


def cross_moment_mc(
    d: DecomposedStatistic, p: int, reps: int, seed: int, stream_base: int = 0
) -> tuple[float, float]:
    """Direct Monte Carlo estimate of E[L^p T] over full-sample replicates.

    This is the O(n^k)-per-replicate cross-check path for :func:`kappa`;
    unlike the aligned formula it also picks up repeated-index terms, e.g.
    E[L^2 T] = 2 kappa_2 when the remainder is a pure order-2 sum.  All
    replicates are drawn as one ``(reps, n)`` block from stream
    ``stream_base``.
    """
    if reps < 2:
        raise ValidationError("reps must be at least 2")
    rows = model.sample(d.dist, reps * d.n, seed, stream_base).reshape(reps, d.n)
    vals = np.array([d.linear_part(x) ** p * d.remainder(x) for x in rows])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(reps))


# ---------------------------------------------------------------------------
# Moment summary and inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSummary:
    """All moment functionals of one decomposition at one alpha."""

    n: int
    kernel_order: int
    alpha: float
    beta: float
    gamma: float
    gamma_components: tuple[float, ...]
    gamma_alpha: float
    gamma_alpha_components: tuple[float, ...]
    kappa: tuple[float, ...]
    method: str
    beta_se: Optional[float] = None
    gamma_se: Optional[float] = None
    gamma_alpha_se: Optional[float] = None
    kappa_se: Optional[tuple[Optional[float], ...]] = None

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "kernel_order": self.kernel_order,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "gamma_components": list(self.gamma_components),
            "gamma_alpha": self.gamma_alpha,
            "gamma_alpha_components": list(self.gamma_alpha_components),
            "kappa": list(self.kappa),
            "method": self.method,
        }
        if self.beta_se is not None:
            out["beta_se"] = self.beta_se
            out["gamma_se"] = self.gamma_se
            out["gamma_alpha_se"] = self.gamma_alpha_se
            out["kappa_se"] = list(self.kappa_se or ())
        return out


def moment_summary(d: DecomposedStatistic, alpha: float = 2.0) -> MomentSummary:
    """Compute beta, gamma, gamma^(alpha), and the kappa vector.

    Under the monte-carlo and quadrature strategies the summary also carries
    their error bars (Monte Carlo SEs, or |Q_N - Q_(N/2)|), scaled from the
    same integrals as the estimates.
    """
    b, b_se = _linear_moment(d, 3.0)
    terms2 = _gamma_terms(d, 2.0)
    terms_a = _gamma_terms(d, alpha)
    kap = [_kappa(d, p) for p in range(1, d.order + 1)]
    ses: dict = {}
    if b_se is not None:
        ses = dict(
            beta_se=b_se,
            gamma_se=float(math.sqrt(sum(se * se for _, se in terms2))),
            gamma_alpha_se=float(math.sqrt(sum(se * se for _, se in terms_a))),
            kappa_se=tuple(se for _, se in kap),
        )
    comps2 = tuple(val for val, _ in terms2)
    comps_a = tuple(val for val, _ in terms_a)
    return MomentSummary(
        n=d.n,
        kernel_order=d.order,
        alpha=alpha,
        beta=b,
        gamma=float(sum(comps2)),
        gamma_components=comps2,
        gamma_alpha=float(sum(comps_a)),
        gamma_alpha_components=comps_a,
        kappa=tuple(val for val, _ in kap),
        method=d.projection.strategy,
        **ses,
    )


@dataclass(frozen=True)
class InequalityItem:
    label: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class MomentInequalityReport:
    alpha: float
    items: tuple[InequalityItem, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "all_passed": self.all_passed,
            "items": [
                {
                    "label": it.label,
                    "lhs": it.lhs,
                    "rhs": it.rhs,
                    "passed": it.passed,
                }
                for it in self.items
            ],
        }


def moment_inequalities(
    d: DecomposedStatistic,
    alpha: float = 1.8,
    tol: float = 1e-12,
) -> MomentInequalityReport:
    """Check the structural inequalities tying beta, gamma, and kappa.

    Items, with q ranging over {2, 2.5, 3} and s over the component orders:

    * ``a``      : 1 <= sqrt(n) beta;
    * ``b:q``    : n E|L_1|^q <= beta^(q-2);
    * ``c:s``    : |kappa_s| <= sqrt(gamma_s) and gamma_s <= gamma;
    * ``d:s``    : |kappa_s| <= beta^(delta s) + gamma_s^(alpha) with
      delta = (2 - alpha)/(alpha - 1), evaluated for 3/2 < alpha < 2 and
      1 <= s < min(1/delta, k).

    ``tol`` is the additive slack accepted on each comparison.
    """
    b = beta(d)
    comps2 = gamma_components(d, 2.0)
    g_total = float(sum(comps2))
    kap = kappa_vector(d)
    items: list[InequalityItem] = []

    lhs = 1.0
    rhs = math.sqrt(d.n) * b
    items.append(InequalityItem("a", lhs, rhs, lhs <= rhs + tol))

    for q in (2.0, 2.5, 3.0):
        lhs = scaled_linear_moment(d, q)
        rhs = b ** (q - 2.0)
        items.append(InequalityItem(f"b:{q:g}", lhs, rhs, lhs <= rhs + tol))

    for s in range(1, d.order + 1):
        lhs = abs(kap[s - 1])
        rhs = math.sqrt(max(comps2[s - 1], 0.0))
        items.append(InequalityItem(f"c:{s}", lhs, rhs, lhs <= rhs + tol))
        items.append(
            InequalityItem(f"c:{s}:total", comps2[s - 1], g_total, comps2[s - 1] <= g_total + tol)
        )

    if 1.5 < alpha < 2.0:
        delta = (2.0 - alpha) / (alpha - 1.0)
        comps_a = gamma_components(d, alpha)
        s_limit = min(1.0 / delta, float(d.order))
        for s in range(1, d.order + 1):
            if not s < s_limit:
                continue
            lhs = abs(kap[s - 1])
            rhs = b ** (delta * s) + comps_a[s - 1]
            items.append(InequalityItem(f"d:{s}", lhs, rhs, lhs <= rhs + tol))

    return MomentInequalityReport(alpha=alpha, items=tuple(items))
