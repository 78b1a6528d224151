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
  (the name never selects them), on laws that state the moments they read:
  theta, var g, var h, h_1 and the moment integrals.  E|t_2|^alpha, and
  E|g|^q where g is linear, come from the law's E|X - mu|^r
  (``model.abs_central_moment``); E|g|^q of a kernel with a square term is
  scored on tuple sets, the atoms or, on a continuous law, quadrature's two
  graded rules on the pieces between the roots of g, with the graded bar;
* ``quadrature``: order-2 kernels on continuous laws with ``ppf``, ``isf``
  and ``cdf``, by a graded rule on the quantile scale: Gauss-Legendre t
  mapped by u = t^4 / (t^4 + (1 - t)^4), with 1 - u carried separately.
  h_1 at any point x is split at F(x) into two graded sub-rules; order-1
  integrals are sums over the nodes, and order-2 integrals run over the
  ordered triangle u < v with u = v s;
* ``monte-carlo``: nested Monte Carlo with common random numbers for the
  inner expectations.

The strategies differ only in how a projection is built and how it
integrates.  Point evaluations take one path: h_1 of an order-2 kernel is
the analytic closed form, the split sub-rules of quadrature, or the
``Kernel.pool_mean`` form (gini) prepared once on the atoms or the Monte
Carlo inner pool; every other marginal averages the kernel over a weighted
tail (the atom grid or the inner pool, each built once per projection) in
blocks of cells; g and t_p follow from the marginals.  Every integral
without a closed form is scored on weighted tuple sets, with the integrands
from one function: the atom grid with its probabilities, where h_q is read
off h_q on the atom q-grid; quadrature's graded nodes and ordered triangle,
and analytic's graded pieces, in a fine and a half rule with a weight
vector per axis; or sampled tuples with their draw counts.  One
axis-by-axis contraction sums every grid, and one function scores it.

The projection does not depend on n.  It computes each raw integral
(E|g|^q, E|t_p|^alpha, E[g(x_1)..g(x_p) t_p]) once, together with its error
bar: the Monte Carlo standard error, or for a graded rule the gap
|Q_N - Q_(N/2)| to the rule at half the nodes (quadrature's triangle keeps
48 nodes where the fine rule's has 64), floored at a few machine epsilons
of the integral's absolute scale.  The functionals above only scale those
integrals to a sample size; decompositions that differ only in n can share
one projection.  Error bars are reported by :func:`moment_summary`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
from .payload import OMIT_NONE, Payload

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
# experiment chunk streams (which use small nonnegative integers).  On
# continuous laws a p-tuple reads p consecutive streams, so the setup draws
# are 8 apart: the inner pool (k - 1 columns) and theta (k columns) stay
# disjoint up to order 8, past MAX_DECOMPOSE_ORDER.
STREAM_INNER = 1 << 40
STREAM_THETA = (1 << 40) + 8
STREAM_SIGMA = (1 << 40) + 16
STREAM_MOMENT_BASE = 1 << 41

# Monte Carlo moment integrals by kind: (fixed, per_order).  The order-p
# integral draws its p-tuples with ``ProjectionSet._sample`` from stream
# STREAM_MOMENT_BASE + fixed + per_order * p (column j from that stream + j on
# continuous laws, one multinomial from it on finite support).  The order-2
# Edgeworth input E[g g t_2] is the "aligned" integral at p = 2, so it shares
# kappa_2's tuples; "g3" owns its stream, past the last "aligned" column at
# order MAX_DECOMPOSE_ORDER.
_MOMENT_STREAMS = {
    "abs_g": (0, 0),
    "abs_t": (0, 16),
    "aligned": (0, 64),
    "g3": (512, 0),
}

# The kernel-cell scale of the row blocks of ``_split_marginal`` and of
# ``_weighted_marginal``, which evaluates the marginals of kernels without a
# pool form and of orders 3 and up.  Both keep each temporary to a quarter of
# it, 64 KiB at 8 bytes a cell, unless 4 rows are longer.  Larger blocks
# fault in fresh pages and cost far more.  On the Monte Carlo ``moments`` run
# of |x - y| under the exponential law, before gini took its pool form (5k
# inner draws, 1 BLAS thread), blocks of 60k cells took 1.0 s, with 0.7-0.8 s
# of system time and 500k faults; blocks of 4M cells took 0.6-1.0 s, with
# 0.25-0.5 s of system time and 34k-53k faults.  Blocks of up to 32k cells
# were trimmed and faulted in again depending on the row length: the six
# marginals of the variance kernel's Monte Carlo moments took 70k faults and
# 0.18 s at 2k inner draws, and 279k faults and 0.49 s at 4k, against 2
# faults and 0.07 and 0.16 s in blocks of at most 8k cells, or 4 rows.
_BLOCK_CELLS = 32_768

# Graded nodes of the quadrature strategy: its fine rule sums order-1
# integrals over 2N nodes and splits h_1 at each point into pieces of N/2.
# The same rule at half the nodes gives each integral's reported error
# |Q_N - Q_(N/2)|, and both rules together must fit the cell budget.
QUADRATURE_NODES = 96
# Nodes per axis of the fine rule's ordered triangle.  Its order-1 rule and
# 48-node pieces limit the accuracy: they leave theta of gini on the
# exponential law 2.3e-13 off, while a triangle of 64 nodes misses E t_2^2
# by 2e-16 and E[g g t_2] by 2.7e-14 (1e-16 and 5e-14 at 96 nodes), and
# the fine rule takes 46% of the cells it took at 96.  The half rule keeps
# N/2 = 48.
_TRIANGLE_NODES = 64
# (N, triangle nodes) of the fine rule and of the half rule
_GRADED_RULES = (
    (QUADRATURE_NODES, _TRIANGLE_NODES),
    (QUADRATURE_NODES // 2, QUADRATURE_NODES // 2),
)
# every Gauss-Legendre size those rules use, built together
_GRADED_SIZES = frozenset(m for n, tri in _GRADED_RULES for m in (2 * n, tri, n // 2))
_QUADRATURE_CELLS = 4_000_000
# The least length at which a marginal's sub-rule piece places its nodes:
# times the smallest graded node it stays a normal float.
_MIN_PIECE = 1e-200
# No graded rule's error bar reads below this many machine epsilons times the
# integral's absolute scale, the weighted sum of |integrand|: where both
# rules reach rounding their gap can read exactly 0.
_ROUNDING_EPS = 16

STRATEGIES = ("exact", "analytic", "quadrature", "monte-carlo")


# ---------------------------------------------------------------------------
# Closed forms for separable degenerate parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableForms:
    """Closed-form pieces for order-2 kernels with t_2 = coef*(x-mu)(y-mu).

    g = lin*(x-mu) + b((x-mu)^2 - var); ``b`` is the kernel's own.
    """

    theta: float
    mu: float
    lin: float
    b: float
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
    every moment is a polynomial in the central moments s2, m3, .., m6.  A
    continuous law must state those, E|X - mu|^r and, if b != 0, the ppf,
    isf and cdf that E|g|^q is integrated with; else this is None too.
    """
    if kernel.quad_coefs is None:
        return None
    a, b, c = kernel.quad_coefs
    if isinstance(dist, Continuous) and not (
        set(range(2, 7)) <= dist.central_moments.keys()
        and dist.abs_central_moment is not None
        and (b == 0.0 or _has_quantiles(dist))
    ):
        return None
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
        lin=lin,
        b=b,
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


def _legendre_pairs(
    ms: Sequence[int], xs: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(P_m(x), P_(m-1)(x)) for each m in ``ms`` and its x in ``xs``.

    One pass of the three-term Legendre recurrence runs over every x at
    once, and each pair is read off at step m of that pass.  Every element
    sees the same operations as in a pass of its own, so the values do not
    depend on which other rules share the pass.
    """
    x = np.concatenate(xs)
    ends = np.cumsum([a.size for a in xs])
    pairs = {}
    prev, cur = np.ones_like(x), x
    j = 1  # cur holds P_j
    for i in sorted(range(len(ms)), key=ms.__getitem__):
        while j < ms[i]:
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
            j += 1
        piece = slice(ends[i] - xs[i].size, ends[i])
        pairs[i] = cur[piece], prev[piece]
    return [pairs[i] for i in range(len(ms))]


def _gauss_legendre_rules(ms: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The m-point Gauss-Legendre rule moved to (0, 1) for each m in ``ms``.

    The roots x >= 0 of P_m come from Newton steps on the three-term
    recurrence, vectorised over the nodes and started from Tricomi's guess
    (1 - (m - 1) / (8 m^3)) cos(pi (4k - 1) / (4m + 2)); a rule stops once
    none of its roots moves by 1e-10, after three steps at most.  Each
    Newton step, and the weights, take one pass of the recurrence
    (:func:`_legendre_pairs`) shared by every rule still moving, so the
    rules cost max(ms) Python-level steps a pass, not sum(ms), and come out
    bit-identical to rules built alone.  The recurrence is exactly odd or
    even in x, so the roots x < 0 are their mirror image and for odd m the
    middle root is 0.  The weights are 2(1 - x)(1 + x) /
    (m (x P_m(x) - P_(m-1)(x)))^2, which keeps the P_m(x) term that vanishes
    at an exact root: near the ends of the interval dropping it costs about
    m / (1 - x^2) times the root's rounding error.  That is O(m^2) work
    where the Golub-Welsch eigenvalue solve of
    ``numpy.polynomial.legendre.leggauss`` is O(m^3) (Hale & Townsend, SIAM
    J. Sci. Comput. 35 (2013) A652-A674).  At m = 512 and 1024 the nodes are
    within 1.2e-16 of a 40-digit Newton reference and the weights within
    1.1e-11 relative, against about 1.5e-9 for ``leggauss``'s end weights.
    The arrays are read-only.
    """
    xs = []
    for m in ms:
        k = np.arange(1, (m + 1) // 2 + 1)
        xs.append(
            (1.0 - (m - 1) / (8.0 * m**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * m + 2.0))
        )
    moving = list(range(len(ms)))
    for _ in range(3):
        pairs = _legendre_pairs([ms[i] for i in moving], [xs[i] for i in moving])
        still = []
        for i, (p, q) in zip(moving, pairs):
            x = xs[i]
            step = p * (x * x - 1.0) / (ms[i] * (x * p - q))
            xs[i] = x - step
            if np.max(np.abs(step)) >= 1e-10:
                still.append(i)
        moving = still
        if not moving:
            break
    for m, x in zip(ms, xs):
        if m % 2:
            x[-1] = 0.0
    rules = []
    for m, x, (p, q) in zip(ms, xs, _legendre_pairs(ms, xs)):
        half = (1.0 - x) * (1.0 + x) / np.square(m * (x * p - q))
        # x decreases in k, so (1 - x) / 2 puts the nodes in increasing
        # order; the mirror images of the roots before the middle one follow
        # in reverse
        nodes = np.concatenate(((1.0 - x) / 2.0, (1.0 + x[: m // 2][::-1]) / 2.0))
        weights = np.concatenate((half, half[: m // 2][::-1]))
        nodes.setflags(write=False)
        weights.setflags(write=False)
        rules.append((nodes, weights))
    return rules


# the graded rules built so far, by node count
_GRADED: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _graded_rule(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m-point sigmoidal graded rule on (0, 1): nodes u, 1 - u and weights.

    Gauss-Legendre t is mapped by u = t^4 / (t^4 + (1 - t)^4), with the
    Jacobian 4 t^3 (1 - t)^3 / (t^4 + (1 - t)^4)^2 folded into the weights
    (Davis & Rabinowitz, *Methods of Numerical Integration*, 2nd ed., 1984,
    section 2.9).  The Jacobian vanishes like t^3 at t = 0 and (1 - t)^3 at
    t = 1, so integrands with a log or mild power singularity at an end,
    such as the exponential or normal quantile, still converge fast.  The rule is
    symmetric: 1 - t is the mirror node, so 1 - u is the reversed u and
    keeps its digits near u = 1.  The first call builds the Gauss-Legendre
    rules of m and of every size in ``_GRADED_SIZES`` together.
    """
    if m not in _GRADED:
        sizes = [k for k in {m, *_GRADED_SIZES} if k not in _GRADED]
        for k, (t, w) in zip(sizes, _gauss_legendre_rules(sizes)):
            up, down = t**4, t[::-1] ** 4
            total = up + down
            u = up / total
            weights = w * 4.0 * (t * t[::-1]) ** 3 / np.square(total)
            for a in (u, weights):
                a.setflags(write=False)
            _GRADED[k] = (u, u[::-1], weights)
    return _GRADED[m]


def _has_quantiles(dist: Distribution) -> bool:
    return isinstance(dist, Continuous) and None not in (dist.ppf, dist.isf, dist.cdf)


def _quantile(dist: Continuous, u: np.ndarray, ubar: np.ndarray) -> np.ndarray:
    """Q(u) given u and 1 - u: ``ppf(u)`` for u <= 1/2, ``isf(1 - u)`` above.

    Nodes all on one side take one call; a piece across u = 1/2 takes both,
    on arguments clipped at 1/2, and ``np.where`` picks.
    """
    lower = u <= 0.5
    if lower.all():
        return dist.ppf(u)
    if not lower.any():
        return dist.isf(ubar)
    return np.where(lower, dist.ppf(np.minimum(u, 0.5)), dist.isf(np.minimum(ubar, 0.5)))


def _split_marginal(
    kernel: Kernel,
    dist: Continuous,
    x: np.ndarray,
    a: np.ndarray,
    abar: np.ndarray,
    m: int,
) -> np.ndarray:
    """h_1 of an order-2 kernel at points x with F(x) = a and 1 - F(x) = abar.

    E h(x, Y) is split at v = a into m-point graded sub-rules on [0, a] and
    [a, 1], so a kink of h at y = x (gini's) falls on their ends.  On the
    first piece v = a s with 1 - v = (1 - a) + a (1 - s), on the second
    1 - v = (1 - a)(1 - s).  Far out in a tail F(x) rounds to 0 or 1; each
    piece then places its nodes as if it were ``_MIN_PIECE`` long, so that
    every quantile stays finite, and still weighs its true length.  Points
    go in blocks of a multiple of 4 rows (see :func:`_weighted_marginal`)
    and at most ``_BLOCK_CELLS / 2`` kernel cells, 2m a point.  Each piece
    is evaluated on its own, so that no temporary passes 64 KiB, half of
    glibc's default mmap and trim thresholds.  Taking both pieces at once
    cost 38 ns a cell against 12 (gini on the exponential law, one thread),
    and temporaries just under 128 KiB were trimmed off the heap and
    faulted in again on every block when they landed at its top, which
    depends on earlier allocations: a cold gini/exponential ``simulate
    --target adjusted`` took 653 page faults, or 2,829 as other modules grew.
    """
    s, sbar, w = _graded_rule(m)
    out = np.empty(x.size)
    step = 4 * max(1, _BLOCK_CELLS // (16 * m))
    for lo in range(0, x.size, step):
        xs, ab, ba = x[lo:lo + step, None], a[lo:lo + step], abar[lo:lo + step]
        la, lb = np.maximum(ab, _MIN_PIECE)[:, None], np.maximum(ba, _MIN_PIECE)[:, None]

        def piece(v: np.ndarray, vbar: np.ndarray) -> np.ndarray:
            return model.kernel_values(kernel, [xs, _quantile(dist, v, vbar)]) @ w

        below = piece(la * s, ba[:, None] + la * sbar)
        above = piece(ab[:, None] + lb * s, lb * sbar)
        out[lo:lo + step] = below * ab + above * ba
    return out


def _point_marginal(kernel: Kernel, dist: Continuous) -> Callable[[np.ndarray], np.ndarray]:
    """h_1 at arbitrary points, split at F(x) by the fine rule's sub-rules."""

    def h1(x: np.ndarray) -> np.ndarray:
        a = np.asarray(dist.cdf(x), dtype=float)
        return _split_marginal(kernel, dist, x, a, 1.0 - a, QUADRATURE_NODES // 2)

    return h1


def _integrand(
    kind: str, exponent: float, g: Sequence[np.ndarray], t: Optional[np.ndarray]
) -> np.ndarray:
    """The integrand of moment ``kind``, given g on each argument and t_p.

    ``kind`` is as in :meth:`ProjectionSet.moment`; ``t`` is unused (and may
    be None) for the order-1 kinds ``"abs_g"`` and ``"g3"``.
    """
    if kind == "abs_g":
        return np.abs(g[0]) ** exponent
    if kind == "g3":
        return g[0] ** 3
    if kind == "abs_t":
        return t * t if exponent == 2.0 else np.abs(t) ** exponent
    # "aligned": g(x_1)..g(x_p) t_p, in one fresh array
    out = t * g[0]
    for gc in g[1:]:
        out *= gc
    return out


def _graded_sets(
    kernel: Kernel, dist: Continuous, n: int, tri: int
) -> tuple[tuple, dict[int, tuple]]:
    """The graded rule of n nodes for an order-2 kernel: theta's set (h_1 on
    the order-1 nodes, with their weights) and the weighted tuple sets by
    order, each (a weight vector per axis, g on each argument, t_p).

    h_1 is split at each point (:func:`_split_marginal`, n/2 nodes a piece).
    The order-1 set is the 2n graded nodes: they cost n cells a node, and
    the quantile tail of E g^3 on the exponential law still misses 5/6 by
    5e-12 at 96 nodes (2e-13 at 192).  The order-2 set is the tri^2 points
    of the ordered triangle u < v, where u = v s for graded v and s of
    ``tri`` nodes each (Duffy, SIAM J. Numer. Anal. 19 (1982) 1260-1262):
    for a symmetric integrand F the integral is
    2 sum_j W_j v_j sum_i W_i F(v_j s_i, v_j), so axis 0 (v) weighs
    2 W_j v_j and axis 1 (s) weighs W_i, and a kink of h at x = y lies on
    the edge s = 1.  1 - v s is carried as (1 - v) + v (1 - s).  The point
    v_j s_i = u_j u_i is symmetric in (i, j), so its quantile and h_1 are
    computed once, on the tri(tri+1)/2 points j >= i, and mirrored: g_in is
    exactly symmetric, and its upper half differs from a direct evaluation
    only by the rounding of 1 - u_i u_j.  The fine rule's triangle takes
    ``_TRIANGLE_NODES`` a side, fewer than its order-1 rule, which limits
    its accuracy together with the pieces.
    """
    u, ubar, w = _graded_rule(2 * n)
    h1 = _split_marginal(kernel, dist, _quantile(dist, u, ubar), u, ubar, n // 2)
    theta = _grid_sum([w], h1)
    order1 = ([w], [h1 - theta], None)
    # the triangle: v = u_j on axis 0, s = u_i on axis 1; its points j >= i
    u, ubar, tri_w = _graded_rule(tri)
    x = _quantile(dist, u, ubar)
    j, i = np.tril_indices(tri)
    low_u = u[j] * u[i]
    low_bar = ubar[j] + u[j] * ubar[i]
    low_x = _quantile(dist, low_u, low_bar)
    low_h1 = _split_marginal(kernel, dist, low_x, low_u, low_bar, n // 2)
    tri_x, g_in = np.empty((tri, tri)), np.empty((tri, tri))
    for out, low in ((tri_x, low_x), (g_in, low_h1 - theta)):
        out[j, i] = low
        out[i, j] = low
    g_out = (_split_marginal(kernel, dist, x, u, ubar, n // 2) - theta)[:, None]
    # tri^2 cells, within _BLOCK_CELLS for tri up to 181
    h = model.kernel_values(kernel, [tri_x, x[:, None]])
    order2 = ([2.0 * tri_w * u, tri_w], [g_in, g_out], h - g_in - g_out - theta)
    return ([w], h1), {1: order1, 2: order2}


def _abs_g_sets(forms: SeparableForms, dist: Distribution) -> list[tuple]:
    """Analytic E|g|^q's order-1 tuple sets: the atoms with their probabilities,
    or on a continuous law, where g = lin z + b(z^2 - var) with b != 0 and
    |g|^q is kinked at z = (-lin +- sqrt(lin^2 + 4 b^2 var)) / (2b), one set
    per rule of ``_GRADED_RULES``.  Its axis 0 holds the non-empty pieces of
    [0, 1] cut at F of each root, weighted by their lengths, and axis 1 the
    2n graded nodes of a piece, placed as :func:`_split_marginal` places its
    pieces, with 1 - u carried."""
    if isinstance(dist, FiniteDiscrete):
        return [([dist.probs], [forms.g_fn(dist.atoms)], None)]
    lin, b = forms.lin, forms.b
    disc = math.sqrt(lin * lin + 4.0 * b * b * dist.var)
    roots = np.sort([(-lin - disc) / (2.0 * b), (-lin + disc) / (2.0 * b)]) + forms.mu
    cut = np.concatenate(([0.0], dist.cdf(roots), [1.0]))
    keep = np.diff(cut) > 0.0
    lo, hi = cut[:-1][keep, None], cut[1:][keep, None]
    sets = []
    for n, _ in _GRADED_RULES:
        s, sbar, w = _graded_rule(2 * n)
        x = _quantile(dist, lo + (hi - lo) * s, (1.0 - hi) + (hi - lo) * sbar)
        sets.append(([(hi - lo)[:, 0], w], [forms.g_fn(x)], None))
    return sets


def _count_stats(counts: np.ndarray, vals: np.ndarray) -> tuple[float, float, float]:
    """Mean, ddof=1 variance, and SE of the mean of values drawn ``counts`` times."""
    m = int(counts.sum())
    vals = np.asarray(vals, dtype=float)
    mean = float(np.dot(counts, vals) / m)
    var = float(np.dot(counts, np.square(vals - mean)) / (m - 1))
    var = max(var, 0.0)
    return mean, var, math.sqrt(var / m)


def _grid_sum(weights: Sequence[np.ndarray], vals: np.ndarray) -> float:
    """The sum of ``vals`` on a grid, an axis per argument, under the product of
    ``weights[i]`` on axis i, weighted one axis at a time from the last."""
    for w in reversed(weights):
        vals = vals @ w
    return float(vals)


def _grid_score(weights: Sequence[np.ndarray], vals: np.ndarray, *half) -> tuple:
    """The weighted sum of ``vals`` on a grid, with no spread: exact, so no bar,
    or given the half rule's (weights, vals) the graded rule's bar
    |Q_N - Q_(N/2)|, floored at ``_ROUNDING_EPS`` epsilons of the grid's sum
    of |vals|."""
    val = _grid_sum(weights, vals)
    if not half:
        return val, None, None
    floor = _ROUNDING_EPS * np.finfo(float).eps * _grid_sum(weights, np.abs(vals))
    return val, None, max(abs(val - _grid_sum(*half)), floor)


def _weighted_marginal(
    kernel: Kernel,
    cols: Sequence[np.ndarray],
    tail_cols: Sequence[np.ndarray],
    weights: np.ndarray,
) -> np.ndarray:
    """E over the tail coordinates, vectorized over the leading columns.

    The kernel is evaluated on blocks of whole rows (one row per leading
    point) of at most ``_BLOCK_CELLS / 4`` cells, so that no temporary passes
    64 KiB (see :func:`_split_marginal`), or 4 rows when one row is longer
    than a quarter of that.  Each block is a whole multiple of 4 rows:
    OpenBLAS's gemv sums rows in groups of four, so the sums do not depend on
    the block size, while blocks of 1, 2, 3 or 6 rows move results by an
    ulp.  A trailing block of one row is a dot product and can move its
    value by an ulp too.
    """
    lead = [np.asarray(c, dtype=float) for c in cols]
    n_pts = lead[0].size
    n_tail = weights.size
    out = np.empty(n_pts)
    step = 4 * max(1, _BLOCK_CELLS // (16 * max(1, n_tail)))
    for lo in range(0, n_pts, step):
        hi = min(n_pts, lo + step)
        args = [c[lo:hi, None] for c in lead] + [t[None, :] for t in tail_cols]
        out[lo:hi] = model.kernel_values(kernel, args) @ weights
    return out


def _quadrature_cells(order: int) -> int:
    """Kernel cells of the graded rule and its half rule at kernel order ``order``.

    A rule of n nodes and a triangle of T nodes a side spends n cells (n/2 a
    piece) on h_1 at each of its 2n order-1 nodes, T triangle nodes and
    T(T+1)/2 distinct triangle points, and one more at each of the T^2
    triangle points: (2n + T) n + T(T+1)/2 n + T^2 cells, 228,352 for the
    fine rule (n = 96, T = 64) and 65,664 for the half rule (n = T = 48).  On
    the ordered k-simplex the same count, with the C(T + k - 1, k) points
    distinct up to the order of their coordinates each taking a
    (k - 1)-fold sub-rule of n^(k-1) cells, is far past the budget from
    order 3 on, so only order 2 takes this rule.
    """
    return sum(
        (2 * n + tri + math.comb(tri + order - 1, order)) * n ** (order - 1) + tri**order
        for n, tri in _GRADED_RULES
    )


def _fits_quadrature(kernel: Kernel) -> bool:
    return _quadrature_cells(kernel.order) <= _QUADRATURE_CELLS


class ProjectionSet:
    """Marginal kernels h_p and degenerate components t_p for one pair.

    ``strategy`` is one of ``"exact"`` (finite support), ``"analytic"``
    (separable closed forms), ``"quadrature"`` (a graded rule on the
    quantile scale of a continuous law with ``ppf``, ``isf`` and ``cdf``), or
    ``"monte-carlo"`` (nested integration with ``inner_reps``
    common-random-number draws shared by every evaluation).  ``"auto"``
    picks the first that applies, in that order; quadrature applies to
    kernels whose rule fits the cell budget, which order-2 kernels do and
    higher orders do not.  ``inner_reps`` matters only for Monte Carlo.

    Only ``__init__`` and ``_integrate`` test the strategy, and
    ``_integrate`` only to take the closed forms.  Every other integral takes
    one weighted-tuple path: ``_tuple_sets`` gives a moment's tuple sets
    with g and t_p on them (the atom grid with its probabilities, the fine
    and half graded rules of quadrature or of analytic E|g|^q, or sampled
    tuples with their counts), and ``_score`` weighs them.
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
                elif _has_quantiles(dist) and _fits_quadrature(kernel):
                    strategy = "quadrature"
                else:
                    strategy = "monte-carlo"
        if strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {strategy!r}")
        if strategy == "exact" and not isinstance(dist, FiniteDiscrete):
            raise ValidationError("exact strategy requires finite support")
        if strategy == "quadrature":
            if not _has_quantiles(dist):
                raise ValidationError(
                    "quadrature strategy requires a continuous law with ppf, isf and cdf"
                )
            if not _fits_quadrature(kernel):
                raise BudgetError(
                    f"quadrature rule of {_quadrature_cells(k)} cells at order {k} "
                    f"exceeds budget {_QUADRATURE_CELLS}"
                )
        self.kernel = kernel
        self.dist = dist
        self.strategy = strategy
        self.inner_reps = int(inner_reps)
        self.seed = int(seed)
        self.forms: Optional[SeparableForms] = None
        # the error bar of theta: None where theta is exact
        self.theta_se: Optional[float] = None
        self._moments: dict[tuple, tuple[float, Optional[float]]] = {}
        # exact's (atoms, probs), whose grids are its tails
        self._nodes: Optional[tuple[np.ndarray, np.ndarray]] = None
        # the tuple sets of each moment, each (weights, g on each argument, t_p):
        # Monte Carlo's by (stream, p), exact's and quadrature's by p
        self._draws: dict = {}
        # the weighted tail tuples of each marginal by tail length, and h_1 of
        # an order-2 kernel: the pool form prepared on the length-1 tail, or
        # under quadrature the split sub-rules
        self._tails: dict[int, tuple[list[np.ndarray], np.ndarray]] = {}
        self._h1: Optional[Callable[[np.ndarray], np.ndarray]] = None
        if strategy == "analytic":
            forms = forms or separable_forms(kernel, dist)
            if forms is None:
                raise ValidationError(
                    f"no analytic forms for kernel {kernel.ident!r} under {dist.ident!r}"
                )
            self.forms = forms
            self._h1 = lambda x: forms.g_fn(x) + forms.theta
            self.theta, self.var_g, self.var_h = forms.theta, forms.var_g, forms.var_h
            self._tuple_sets, self._score = self._abs_g_set, _grid_score
        elif strategy == "quadrature":
            self._h1 = _point_marginal(kernel, dist)
            (h1_fine, fine), (h1_half, half) = [
                _graded_sets(kernel, dist, n, tri) for n, tri in _GRADED_RULES
            ]
            self.theta, _, self.theta_se = _grid_score(*h1_fine, *h1_half)
            self._draws = {p: [fine[p], half[p]] for p in fine}
            self._tuple_sets, self._score = lambda stream, p, m: self._draws[p], _grid_score
        elif strategy == "exact":
            s, probs = dist.atoms.size, dist.probs
            self._nodes = (dist.atoms, probs)
            self._prepare_pool_mean()
            # h_q on the atom q-grid: the kernel's k-grid weighted on its last k - q axes
            axes = [dist.atoms.reshape((s,) + (1,) * (k - 1 - i)) for i in range(k)]
            self._tables = {k: np.broadcast_to(model.kernel_values(kernel, axes), (s,) * k)}
            for q in range(k - 1, 0, -1):
                self._tables[q] = self._tables[q + 1] @ probs
            self.theta = float(self._tables[1] @ probs)
            self._tuple_sets, self._score = self._grid_set, _grid_score
        else:
            m = self.inner_reps
            if m < 2:
                raise ValidationError("monte-carlo strategy needs inner_reps >= 2")
            if isinstance(dist, FiniteDiscrete):
                m *= PLUGIN_DRAW_FACTOR
            # the inner pool: tuples of the k - 1 tail arguments, weighted
            cols, counts = self._sample(STREAM_INNER, max(1, k - 1), m)
            self._pool = (cols, counts / m)
            self._prepare_pool_mean()
            cols, w = self._sample(STREAM_THETA, k, m)
            h = model.kernel_values(kernel, cols)
            self.theta, self.var_h, self.theta_se = _count_stats(w, h)
            cols, w = self._sample(STREAM_SIGMA, 1, m)
            _, self.var_g, _ = _count_stats(w, self.g_values(cols[0]))
            self._tuple_sets, self._score = self._sampled_set, _count_stats
        if strategy in ("exact", "quadrature"):
            # Hoeffding's orthogonality: var h = sum_p C(k, p) E t_p^2, t_1 = g.
            # Under quadrature h^2 itself grows like the square of the quantile's
            # log at the corner v = 1, and a 64-node triangle misses var h of
            # gini on the exponential law by 5e-12 where this misses it by 2e-13
            sq = [self.moment("abs_t" if p > 1 else "abs_g", p, 2.0)[0] for p in range(1, k + 1)]
            self.var_g, self.var_h = sq[0], sum(math.comb(k, p) * v for p, v in enumerate(sq, 1))

    def _tail(self, length: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Weighted tuples over which a marginal averages its last ``length`` arguments:
        the atom grid, or the inner pool read up to ``length`` columns, built once."""
        if length not in self._tails:
            if self._nodes is not None:
                self._tails[length] = _node_grid(*self._nodes, length)
            else:
                cols, w = self._pool
                self._tails[length] = cols[:length], w
        return self._tails[length]

    def _prepare_pool_mean(self) -> None:
        if self.kernel.pool_mean is not None:
            (pool,), w = self._tail(1)
            self._h1 = self.kernel.pool_mean(pool, w)

    # -- evaluation ---------------------------------------------------------

    def moment(
        self, kind: str, p: int, exponent: float = 1.0
    ) -> tuple[float, Optional[float]]:
        """One n-free moment integral and its error bar (None when exact).

        ``kind`` is ``"abs_g"`` (E|g|^exponent, p = 1), ``"abs_t"``
        (E|t_p|^exponent), ``"aligned"`` (E[g(x_1)..g(x_p) t_p], at p = 2 also
        the order-2 Edgeworth input E[g g t_2]), both for 2 <= p <= k, or
        ``"g3"`` (E g^3, p = 1); any other kind or p is refused.  The error
        bar is the Monte Carlo SE, or of a graded rule |Q_N - Q_(N/2)| with a
        rounding floor.  Each integral is computed once per projection;
        callers scale it to a sample size.
        """
        key = (kind, p, exponent)
        if key not in self._moments:
            k, order1 = self.kernel.order, kind in ("abs_g", "g3")
            if kind not in _MOMENT_STREAMS or not (p == 1 if order1 else 2 <= p <= k):
                raise ValidationError(f"no {kind!r} moment at p = {p} for kernel order k = {k}")
            self._moments[key] = self._integrate(kind, p, exponent)
        return self._moments[key]

    def _integrate(self, kind: str, p: int, exponent: float) -> tuple[float, Optional[float]]:
        forms, dist = self.forms, self.dist
        if forms is None or (kind == "abs_g" and forms.b != 0.0):
            return self._tuple_moment(kind, p, exponent)
        if kind == "abs_g":
            # g = lin*(x - mu)
            val = abs(forms.lin) ** exponent * model.abs_central_moment(dist, exponent)
        elif kind == "abs_t":
            abs_centered = model.abs_central_moment(dist, exponent)
            val = abs(forms.t2_coef) ** exponent * abs_centered**2
        elif kind == "g3":
            val = forms.e_g3
        else:  # "aligned": E[g g t_2] for order-2 kernels
            # adding 0.0 turns an exact -0.0 into 0.0
            val = forms.t2_coef * forms.e_g_centered**2 + 0.0
        return val, None

    def _tuple_moment(self, kind: str, p: int, exponent: float) -> tuple[float, Optional[float]]:
        """The integrand's mean over the p-tuple sets, scored by ``_score``, and its bar.
        Monte Carlo draws its set from stream ``STREAM_MOMENT_BASE`` plus the
        kind's offset in ``_MOMENT_STREAMS``; exact and quadrature ignore it."""
        fixed, per_order = _MOMENT_STREAMS[kind]
        stream = STREAM_MOMENT_BASE + fixed + per_order * p
        sets = self._tuple_sets(stream, p, self.inner_reps)
        # each set's weights and integrand, in one argument list
        args = [a for w, g, t in sets for a in (w, _integrand(kind, exponent, g, t))]
        mean, _, bar = self._score(*args)
        return mean, bar

    def _abs_g_set(self, stream: int, p: int, m: int) -> list[tuple]:
        """Analytic: E|g|^q's sets (:func:`_abs_g_sets`), built on first use."""
        if p not in self._draws:
            self._draws[p] = _abs_g_sets(self.forms, self.dist)
        return self._draws[p]

    def _grid_set(self, stream: int, p: int, m: int) -> list[tuple]:
        """Exact: the atom p-grid's probabilities on each axis, g on each axis and
        t_p as (s,)*p tables; h_q on the axes B is ``_tables[q]`` spread over them."""
        if p not in self._draws:
            s = self.dist.atoms.size
            h = lambda b: self._tables[len(b)].reshape([s if i in b else 1 for i in range(p)])
            t = None if p == 1 else self._component(p, h)
            g = [h((i,)) - self.theta for i in range(p)]
            self._draws[p] = [([self.dist.probs] * p, g, t)]
        return self._draws[p]

    def _sampled_set(self, stream: int, p: int, m: int) -> list[tuple]:
        """Monte Carlo: m sampled p-tuples with their counts, g on each column and t_p."""
        if (stream, p) not in self._draws:
            cols, w = self._sample(stream, p, m)
            h1s = [self.marginal_values(1, [c]) for c in cols]
            t = None if p == 1 else self._component(
                p, lambda b: h1s[b[0]] if len(b) == 1 else self._on_columns(cols, b)
            )
            self._draws[stream, p] = [(w, [h1 - self.theta for h1 in h1s], t)]
        return self._draws[stream, p]

    def _sample(self, stream: int, p: int, m: int) -> tuple[list[np.ndarray], np.ndarray]:
        """m sampled p-tuples as columns and a count each: on finite support the atoms^p
        grid with one multinomial of m from ``stream``, else column j from ``stream + j``."""
        dist = self.dist
        if isinstance(dist, FiniteDiscrete):
            cols, w = _node_grid(dist.atoms, dist.probs, p)
            return cols, model.stream_generator(self.seed, stream).multinomial(m, w)
        return [model.sample(dist, m, self.seed, stream + j) for j in range(p)], np.ones(m)

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
        if self._h1 is not None:  # p = 1 of an order-2 kernel
            return self._h1(cols[0])
        grid, w = self._tail(k - p)
        return _weighted_marginal(self.kernel, cols, grid, w)

    def marginal(self, p: int, points: Sequence[float]) -> float:
        pts = [np.asarray([float(v)]) for v in points]
        return float(self.marginal_values(p, pts)[0])

    def g_values(self, x: np.ndarray) -> np.ndarray:
        """Linear projection g = h_1 - theta on an array of points."""
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
        return self._component(p, lambda b: self._on_columns(cols, b))

    def _on_columns(self, cols: Sequence[np.ndarray], b: tuple[int, ...]) -> np.ndarray:
        """h_|b| on the columns b."""
        return self.marginal_values(len(b), [cols[i] for i in b])

    def _component(self, p: int, h: Callable[[tuple[int, ...]], np.ndarray]) -> np.ndarray:
        """t_p on parallel columns, given ``h(B)`` = h_|B| on the columns B:
        the sum over the subsets B of range(p) of (-1)^(p-|B|) h_|B|."""
        out = 0.0
        for size in range(p + 1):
            for b in itertools.combinations(range(p), size):
                term = h(b) if b else self.theta
                out = out + term if (p - size) % 2 == 0 else out - term
        return out

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
        x = model.check_sample(data)
        if x.size != self.n:
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
        total = math.fsum(
            float(np.sum(self.projection.component_values(p, x[idx])))
            for idx in model.subset_blocks(self.n, p, budget)
        )
        return total * self.t_scale(p)

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


# ---------------------------------------------------------------------------
# Moment summary and inequality checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSummary(Payload):
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
    beta_se: Optional[float] = field(default=None, metadata=OMIT_NONE)
    gamma_se: Optional[float] = field(default=None, metadata=OMIT_NONE)
    gamma_alpha_se: Optional[float] = field(default=None, metadata=OMIT_NONE)
    kappa_se: Optional[tuple[Optional[float], ...]] = field(default=None, metadata=OMIT_NONE)


def moment_summary(d: DecomposedStatistic, alpha: float = 2.0) -> MomentSummary:
    """Compute beta, gamma, gamma^(alpha), and the kappa vector.

    Where beta has an error bar (Monte Carlo SEs, |Q_N - Q_(N/2)| of the
    graded rule) the summary carries every bar, scaled from the same
    integrals as the estimates; an exact term (None) adds 0 to a sum.
    """
    b, b_se = _linear_moment(d, 3.0)
    terms2 = _gamma_terms(d, 2.0)
    terms_a = _gamma_terms(d, alpha)
    kap = [_kappa(d, p) for p in range(1, d.order + 1)]
    ses: dict = {}
    if b_se is not None:
        ses = dict(
            beta_se=b_se,
            gamma_se=float(math.sqrt(sum(se * se for _, se in terms2 if se is not None))),
            gamma_alpha_se=float(math.sqrt(sum(se * se for _, se in terms_a if se is not None))),
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
class MomentInequalityReport(Payload):
    alpha: float
    items: tuple[InequalityItem, ...]
    all_passed: bool


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

    ``tol`` is the additive slack accepted on each comparison.  A non-finite
    ``alpha`` is refused; a finite one outside (3/2, 2) skips the ``d:s`` items.
    """
    if not math.isfinite(alpha):
        raise ValidationError(f"inequality alpha must be finite, got {alpha!r}")
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

    return MomentInequalityReport(alpha, tuple(items), all(item.passed for item in items))
