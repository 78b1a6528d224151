"""Sampling model: distributions, symmetric kernels, and U-statistics.

Design notes
------------
* Observations are scalar floats; a sample is a 1-d float array.
* Sampling is counter-based: every call builds a fresh Philox generator
  keyed by ``(seed, stream)``, so the value of draw ``i`` in stream ``s``
  is a pure function of ``(seed, s, i)``.  Distinct streams never share
  state and regenerating any prefix of a stream reproduces it exactly.
* A generator is built per block of draws, not per replicate.  Monte Carlo
  experiments draw a whole chunk of replicates from one stream: stream ``c``
  holds chunk ``c`` (see ``exper``), so chunk streams are small integers.
  The rows of a chunk at size n are the stream's first rows * n draws, so
  the rows of every smaller n are a prefix of those of the largest n.
  ``row_blocks`` draws the chunk's stream once, to the largest n of a grid,
  in turn into one reused buffer, and hands every n its rows in row blocks
  read from that one pass, so a chunk never holds all of its draws at once.
  Streams from ``1 << 40`` upward are reserved for the inner draws and
  moment estimates of ``hoeffding``.
* Built-in kernels are written so that evaluation is exactly (bit-for-bit)
  invariant under argument permutation.
* Kernel closed forms (``Kernel.quad_coefs``, ``Kernel.rows`` and
  ``Kernel.pool_mean``) are set only by the preset constructors, never
  inferred from ``ident``; other kernels take the exact, quadrature or Monte
  Carlo paths.  A quadratic kernel states its closed form once, as
  ``quad_coefs``: its ``rows`` are generated from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
# numpy loads numpy.random on first use; load it with the package, so that
# the first command that samples does not pay for it
import numpy.random

from . import approx
from .errors import (
    ArityError,
    BudgetError,
    InsufficientSample,
    PresetError,
    ValidationError,
)

DEFAULT_SUBSET_BUDGET = 10**8
# index subsets per block of subset_blocks: a block of order-k index columns
# and the kernel values on it stay a few MB
SUBSET_BLOCK = 32768
# draws per block of row_blocks: a 1 MiB budget of float64, split between
# the stream buffer and the scratch that smaller n are copied into, so each
# block stays in cache while the row forms make their passes over it
ROW_BLOCK_CELLS = 131072

_UINT64_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Counter-based random streams
# ---------------------------------------------------------------------------

def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for one ``(seed, stream)`` pair.

    The 128-bit Philox key is ``seed`` in the high word and ``stream`` in
    the low word, so streams are disjoint by construction and the mapping
    is stable across runs and thread counts.
    """
    key = ((int(seed) & _UINT64_MASK) << 64) | (int(stream) & _UINT64_MASK)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteDiscrete:
    """Distribution with finite support given by ``atoms`` and ``probs``."""

    ident: str
    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if atoms.ndim != 1 or probs.shape != atoms.shape or atoms.size == 0:
            raise ValidationError("atoms and probs must be matching 1-d arrays")
        if not np.all(np.isfinite(atoms)):
            raise ValidationError("support values must be finite")
        # sorted neighbours, not np.unique, which loads numpy.ma on first use
        srt = np.sort(atoms)
        if np.any(srt[1:] == srt[:-1]):
            raise ValidationError(f"duplicate support values in {self.ident!r}")
        if np.any(probs <= 0.0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValidationError("probs must be positive and sum to 1")


@dataclass(frozen=True, eq=False)
class Continuous:
    """Absolutely continuous distribution with an analytic moment table.

    ``sampler(gen, out)`` fills the float64 array ``out`` with draws from
    ``gen``, in order, and returns nothing that callers read; filling ``a``
    and then ``b`` draws the same values as filling their concatenation.
    ``central_moments[p]`` stores the p-th central moment for p up to 6,
    and ``abs_central_moment(r)`` gives E|X - mean|^r for real r >= 0; the
    analytic projection in ``hoeffding`` needs them all, and a law missing
    one takes quadrature or Monte Carlo instead.  When they are known,
    ``ppf`` is the quantile function on (0, 1), ``isf(q)`` the upper-tail
    quantile Q(1 - q) and ``cdf`` the distribution function.  The quadrature
    projection in ``hoeffding`` needs all three: it carries 1 - u next to
    each node u and takes Q(u) from ``ppf(u)`` for u <= 1/2 and from
    ``isf(1 - u)`` above, so nodes near u = 1 keep their digits (``ppf``
    alone rounds them to u = 1 and returns inf).  ``cdf`` places the kinks
    of graded sub-rules: a point's in h_1, the roots of g in E|g|^q.
    """

    ident: str
    sampler: Callable[[np.random.Generator, np.ndarray], object]
    mean: float
    var: float
    central_moments: dict[int, float] = field(default_factory=dict)
    ppf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    abs_central_moment: Optional[Callable[[float], float]] = None
    isf: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None


Distribution = FiniteDiscrete | Continuous


def _fill(dist: Distribution, gen: np.random.Generator, out: np.ndarray) -> None:
    """Overwrite ``out`` with the next ``out.size`` draws of ``gen``."""
    if isinstance(dist, FiniteDiscrete):
        gen.random(out=out)
        idx = np.searchsorted(np.cumsum(dist.probs), out, side="right")
        # clip takes an index past the last edge (a rounded cumsum) to the last atom
        np.take(dist.atoms, idx, out=out, mode="clip")
    else:
        dist.sampler(gen, out)


def sample(dist: Distribution, n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw ``n`` iid observations for stream ``stream`` of ``seed``.

    The result is a fresh array, which the caller may overwrite.
    """
    if n < 0:
        raise ValidationError("sample size must be nonnegative")
    out = np.empty(n)
    _fill(dist, stream_generator(seed, stream), out)
    return out


def row_blocks(
    dist: Distribution, rows: int, ns: Sequence[int], seed: int, stream: int = 0
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``rows`` rows of each n of ``ns`` from one pass over stream ``stream``.

    Row j at size n is draws ``j*n`` to ``(j+1)*n`` of the stream, so the
    rows of every n are a prefix of the rows of the largest n, and the
    stream is drawn once, ``rows * max(ns)`` draws, into one buffer of
    whole rows of the largest n, refilled block by block.  Yields
    ``(n, first_row, block)``, where ``block`` is an ``(m, n)`` view that
    the caller uses, may overwrite, and keeps none of: each smaller n's
    rows are copied out of the buffer into one scratch buffer (a row that
    straddles two buffer fills is carried over), and the largest n is
    yielded last, in place.  The buffer and the scratch share
    ``ROW_BLOCK_CELLS`` cells, half each (the buffer takes them all for a
    one-element grid); either holds one row if a row is longer.  For each
    n, the blocks join to exactly
    ``sample(dist, rows * n, seed, stream).reshape(rows, n)``.
    """
    ns = tuple(int(n) for n in ns)
    if rows < 0 or not ns or ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValidationError("row_blocks needs rows >= 0 and increasing sizes n >= 1")
    *smaller, top = ns
    cells = ROW_BLOCK_CELLS // 2 if smaller else ROW_BLOCK_CELLS
    caps = {n: max(1, min(rows, cells // n)) for n in smaller}
    scratch = np.empty(max((caps[n] * n for n in smaller), default=0))
    carry = {n: np.empty(n) for n in smaller}
    gen = stream_generator(seed, stream)
    step = max(1, min(rows, cells // top))
    buf = np.empty((step, top))
    flat = buf.reshape(-1)
    for first in range(0, rows, step):
        m = min(step, rows - first)
        _fill(dist, gen, flat[: m * top])
        lo, hi = first * top, (first + m) * top  # the draws in the buffer
        for n in smaller:
            end = min(hi, rows * n)
            pos = lo - lo % n  # where the row under way at lo began
            while pos < end:
                # the first k draws of the row at pos came in the last fill
                k = max(0, lo - pos)
                take = min(caps[n], (end - pos) // n) * n
                if take == 0:  # part of a row: carry it to the next fill
                    carry[n][k : end - pos] = flat[pos + k - lo : end - lo]
                    break
                out = scratch[:take]
                out[:k] = carry[n][:k]
                out[k:] = flat[pos + k - lo : pos + take - lo]
                yield n, pos // n, out.reshape(-1, n)
                pos += take
        yield top, first, buf[:m]


def mean(dist: Distribution) -> float:
    if isinstance(dist, FiniteDiscrete):
        return float(np.dot(dist.atoms, dist.probs))
    return dist.mean


def variance(dist: Distribution) -> float:
    if isinstance(dist, FiniteDiscrete):
        mu = mean(dist)
        return float(np.dot((dist.atoms - mu) ** 2, dist.probs))
    return dist.var


def central_moment(dist: Distribution, p: int) -> float:
    """p-th central moment, exact or from the analytic table."""
    if p < 0:
        raise ValidationError("moment order must be nonnegative")
    if p == 0:
        return 1.0
    if p == 1:
        return 0.0
    if isinstance(dist, FiniteDiscrete):
        mu = mean(dist)
        return float(np.dot((dist.atoms - mu) ** p, dist.probs))
    if p not in dist.central_moments:
        raise ValidationError(f"{dist.ident!r} states no central moment of order {p}")
    return dist.central_moments[p]


def abs_central_moment(dist: Distribution, r: float) -> float:
    """E|X - mean|^r for real r >= 0, exact or from the law's closed form."""
    if r < 0:
        raise ValidationError("moment order must be nonnegative")
    if isinstance(dist, FiniteDiscrete):
        mu = mean(dist)
        return float(np.dot(np.abs(dist.atoms - mu) ** r, dist.probs))
    if dist.abs_central_moment is None:
        raise ValidationError(f"{dist.ident!r} states no absolute central moment")
    return dist.abs_central_moment(r)


def gaussian_abs_moment(r: float) -> float:
    """``E|Z|^r`` for a standard normal Z, valid for all r > -1."""
    if r <= -1:
        raise ValidationError("E|Z|^r diverges for r <= -1")
    if r % 2 == 0:
        # (r - 1)!!, exact where the gamma form rounds (it gives E Z^2 = 1 + 2^-52)
        return float(math.prod(range(int(r) - 1, 0, -2)))
    return 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)


def _exponential_abs_moment(r: float) -> float:
    """E|X - 1|^r for a standard exponential X.

    The mass above 1 gives Gamma(r + 1)/e; below 1 it is
    e^-1 int_0^1 u^r e^u du = e^-1 sum_k 1/(k! (k + r + 1)).  The terms
    after k = 23 sum to less than 2/24! < 1e-23, far below an ulp of the
    result, which is at least min Gamma / e > 0.3.
    """
    series = math.fsum(1.0 / (math.factorial(k) * (k + r + 1.0)) for k in range(24))
    return (math.gamma(r + 1.0) + series) / math.e


def _make_normal() -> Continuous:
    return Continuous(
        ident="normal",
        sampler=lambda gen, out: gen.standard_normal(out=out),
        mean=0.0,
        var=1.0,
        central_moments={2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0},
        ppf=approx.normal_ppf,
        abs_central_moment=gaussian_abs_moment,
        isf=lambda q: -approx.normal_ppf(q),
        cdf=approx.normal_cdf,
    )


def _make_exponential() -> Continuous:
    return Continuous(
        ident="exponential",
        sampler=lambda gen, out: gen.standard_exponential(out=out),
        mean=1.0,
        var=1.0,
        central_moments={2: 1.0, 3: 2.0, 4: 9.0, 5: 44.0, 6: 265.0},
        ppf=lambda u: -np.log1p(-u),
        abs_central_moment=_exponential_abs_moment,
        isf=lambda q: -np.log(q),
        cdf=lambda x: -np.expm1(-np.maximum(x, 0.0)),
    )


def _make_uniform01() -> Continuous:
    return Continuous(
        ident="uniform",
        sampler=lambda gen, out: gen.random(out=out),
        mean=0.5,
        var=1.0 / 12.0,
        central_moments={2: 1.0 / 12.0, 3: 0.0, 4: 1.0 / 80.0, 5: 0.0, 6: 1.0 / 448.0},
        ppf=lambda u: np.asarray(u, dtype=float),
        abs_central_moment=lambda r: 0.5**r / (r + 1.0),
        isf=lambda q: 1.0 - np.asarray(q, dtype=float),
        cdf=lambda x: np.clip(x, 0.0, 1.0),
    )


def bernoulli(p: float) -> FiniteDiscrete:
    if not 0.0 < p < 1.0:
        raise ValidationError("bernoulli parameter must lie in (0, 1)")
    return FiniteDiscrete(f"bernoulli:{p:g}", np.array([0.0, 1.0]), np.array([1.0 - p, p]))


def uniform_atoms(values: Sequence[float]) -> FiniteDiscrete:
    atoms = np.asarray(list(values), dtype=float)
    probs = np.full(atoms.size, 1.0 / atoms.size)
    ident = "uniform-atoms:" + ",".join(f"{v:g}" for v in atoms)
    return FiniteDiscrete(ident, atoms, probs)


def rademacher() -> FiniteDiscrete:
    return FiniteDiscrete("rademacher", np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def distribution_preset(ident: str) -> Distribution:
    """Resolve a distribution id such as ``bernoulli:0.3`` or ``normal``."""
    spec = ident.strip()
    if spec.startswith("dist:"):
        spec = spec[len("dist:"):]
    name, _, arg = spec.partition(":")
    try:
        if name == "bernoulli":
            return bernoulli(float(arg))
        if name == "uniform-atoms":
            return uniform_atoms([float(v) for v in arg.split(",") if v != ""])
        if name == "rademacher" and not arg:
            return rademacher()
        if name == "normal" and not arg:
            return _make_normal()
        if name == "exponential" and not arg:
            return _make_exponential()
        if name == "uniform" and not arg:
            return _make_uniform01()
    except (ValueError, ValidationError) as exc:
        raise PresetError(f"bad distribution preset {ident!r}: {exc}") from exc
    raise PresetError(f"unknown distribution preset {ident!r}")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowForms:
    """Closed forms over the rows of an ``(m, n)`` block of samples.

    ``u(rows)`` returns the U-statistic of each row.  ``jackknife(rows)``
    returns ``(u, ss)`` per row, where ss = sum_i (q_i - u)^2 over the
    leave-one-out means q_i, the mean of h(x_i, x_j) over j != i.  Both
    take the block as scratch: they shift or sort it in place, so a caller
    that reads ``rows`` afterwards passes a copy.
    """

    u: Callable[[np.ndarray], np.ndarray]
    jackknife: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _quadratic_rows(a: float, b: float, c: float) -> RowForms:
    """Row forms of h = a(x+y) + b(x^2+y^2) + c*x*y.

    Each row is shifted by its first point m.  With z = x - m the kernel is
    k0 + a'(z + w) + b(z^2 + w^2) + c*z*w, where a' = a + (2b + c)m and
    k0 = h(m, m) = 2am + (2b + c)m^2, so every sum over pairs reduces to
    S1 = sum z and S2 = sum z^2.  The shift keeps the sums at the scale of
    the row's spread however far the data sit from 0 (the sample variance
    loses no digits to an offset), and since m is a data point, data on a
    small integer grid such as 0/1 laws give every intermediate exactly.
    """

    def shifted(rows):
        # (k0, a', S1, S2) of each row, with the rows shifted in place to z;
        # einsum sums short rows several times faster than sum(axis=1)
        m = rows[:, 0].copy()  # the shift zeroes column 0
        rows -= m[:, None]
        slope = a + (2.0 * b + c) * m
        return (a + slope) * m, slope, np.einsum("ij->i", rows), np.einsum("ij,ij->i", rows, rows)

    def u_from(n, k0, slope, s1, s2):
        # k0 + (2(a' S1 + b S2)(n-1) + c(S1^2 - S2)) / (n(n-1))
        return k0 + (2.0 * (n - 1) * (slope * s1 + b * s2)
                     + c * (np.square(s1) - s2)) / (n * (n - 1))

    def u(rows):
        return u_from(rows.shape[1], *shifted(rows))

    def jackknife(rows):
        # (n-1)(q_i - u) = (A z + B) z - (A S2 + B S1)/n with A = b(n-2) - c
        # and B = a'(n-2) + c S1: the z-free terms of q_i sum to n of its mean
        n = rows.shape[1]
        k0, slope, s1, s2 = shifted(rows)
        big_a = b * (n - 2) - c
        big_b = slope * (n - 2) + c * s1
        dev = big_a * rows
        dev += big_b[:, None]
        dev *= rows
        dev -= ((big_a * s2 + big_b * s1) / n)[:, None]
        ss = np.einsum("ij,ij->i", dev, dev) / (n - 1) ** 2
        return u_from(n, k0, slope, s1, s2), ss

    return RowForms(u, jackknife)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Symmetric kernel of ``order`` scalar arguments.

    ``fn`` must accept ``order`` numpy-broadcastable arguments.  Nothing
    dispatches on ``ident``.  ``quad_coefs = (a, b, c)`` states that an
    order-2 kernel is h = a(x+y) + b(x^2+y^2) + c*x*y; its ``rows`` are then
    generated from them and may not be given too.  ``rows`` holds the
    per-row closed forms of any other kernel that has them: the U-statistic
    ``u`` and the ``jackknife`` sums of each row of a block, which both
    overwrite the block they are given (see :class:`RowForms`).
    ``pool_mean(pool, weights)`` prepares a weighted pool of points once and
    returns the function x -> sum_j weights_j h(x, pool_j) of an order-2
    kernel.  All three stay None unless a preset constructor knows them.
    """

    ident: str
    order: int
    fn: Callable[..., np.ndarray]
    quad_coefs: Optional[tuple[float, float, float]] = None
    rows: Optional[RowForms] = None
    pool_mean: Optional[
        Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]
    ] = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValidationError("kernel order must be at least 1")
        if self.pool_mean is not None and self.order != 2:
            raise ValidationError("pool_mean describes order-2 kernels only")
        if self.quad_coefs is not None:
            if self.order != 2:
                raise ValidationError("quad_coefs describe order-2 kernels only")
            if self.rows is not None:
                raise ValidationError("rows of a kernel with quad_coefs come from them")
            object.__setattr__(self, "rows", _quadratic_rows(*self.quad_coefs))


def eval_kernel(kernel: Kernel, points: Sequence[float]) -> float:
    """Evaluate the kernel at one tuple of scalar observations."""
    pts = np.asarray(points, dtype=float)
    if pts.shape != (kernel.order,):
        raise ArityError(
            f"kernel {kernel.ident!r} takes {kernel.order} points, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValidationError("kernel arguments must be finite")
    return float(kernel.fn(*pts))


def kernel_values(kernel: Kernel, columns: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized kernel evaluation over parallel argument columns."""
    if len(columns) != kernel.order:
        raise ArityError(
            f"kernel {kernel.ident!r} takes {kernel.order} columns, got {len(columns)}"
        )
    return np.asarray(kernel.fn(*columns), dtype=float)


def _variance_fn(x, y):
    return 0.5 * np.square(x - y)


def _gini_fn(x, y):
    return np.abs(x - y)


def _product_fn(x, y):
    return x * y


def variance_kernel() -> Kernel:
    """h(x, y) = (x - y)^2 / 2; its U-statistic is the sample variance."""
    return Kernel("variance", 2, _variance_fn, quad_coefs=(0.0, 0.5, -1.0))


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """[0, a_0, a_0 + a_1, ...] to within about an ulp of each exact sum.

    ``cumsum`` alone drifts by up to ``a.size`` ulps.  Every partial sum is
    known once it has run, so the rounding error of each addition comes out
    exactly by Knuth's TwoSum, vectorised, and the running total of those
    errors is added back.
    """
    s = np.cumsum(a)
    prev = np.concatenate(([0.0], s[:-1]))
    back = s - prev
    err = (prev - (s - back)) + (a - back)
    return np.concatenate(([0.0], s + np.cumsum(err)))


def gini_kernel() -> Kernel:
    """h(x, y) = |x - y|, the mean absolute difference kernel."""

    def u(rows):
        n = rows.shape[1]
        rows.sort(axis=1)
        coef = 2.0 * np.arange(1, n + 1) - n - 1
        # einsum, not a matmul: on a sorted (4096, 256) block gemv took 6.2 ms
        # and einsum 0.4 ms
        return np.einsum("ij,j->i", rows, coef) * (2.0 / (n * (n - 1)))

    def jackknife(rows):
        # q = (srt (2i - n) + s1 - 2 pre) / (n - 1) over the sorted row,
        # shifted by its smallest point: the formula is shift-invariant, the
        # sums stay at the scale of the row's spread and a constant row gives
        # exact 0s
        n = rows.shape[1]
        q = rows
        q.sort(axis=1)
        q -= q[:, :1]
        pre = np.cumsum(q, axis=1)
        q *= 2.0 * np.arange(1, n + 1) - n
        q += pre[:, -1:]
        pre *= 2.0
        q -= pre
        q /= n - 1
        u = q.mean(axis=1)
        q -= u[:, None]
        return u, np.sum(np.square(q, out=q), axis=-1)

    def pool_mean(pool, weights):
        # E|x - Y| = z (2 W_k - W) - 2 S_k + S over the sorted pool v, where
        # z = x - c and v = y - c for the smallest pool point c, W_k and S_k
        # are prefix sums of w and w v, and k counts the pool points <= z.
        # Shifting by c keeps the sums at the scale of the law's spread.
        order = np.argsort(pool, kind="stable")
        c = pool[order[0]]
        v = pool[order] - c
        w = weights[order]
        w_pre = _prefix_sums(w)
        s_pre = _prefix_sums(w * v)
        w_all, s_all = w_pre[-1], s_pre[-1]

        def mean(x):
            # the keys are searched in sorted order, which takes less than
            # half the time of an unsorted search, and k is scattered back
            z = x - c
            keys = np.ravel(z)
            at = np.argsort(keys)
            k = np.empty(keys.size, dtype=np.intp)
            k[at] = np.searchsorted(v, keys[at], side="right")
            k = k.reshape(np.shape(z))
            return z * (2.0 * w_pre[k] - w_all) - 2.0 * s_pre[k] + s_all

        return mean

    return Kernel("gini", 2, _gini_fn, rows=RowForms(u, jackknife), pool_mean=pool_mean)


def product_kernel() -> Kernel:
    """h(x, y) = x * y; fully degenerate under centered distributions."""
    return Kernel("product", 2, _product_fn, quad_coefs=(0.0, 0.0, 1.0))


def quadratic_kernel(eps: float) -> Kernel:
    """h(x, y) = (x + y)/2 + eps * x * y.

    Under a centered distribution the linear projection is x/2 and the
    degenerate part is exactly ``eps * x * y``, which makes the size of
    the remainder directly tunable through ``eps``.
    """
    if not math.isfinite(eps):
        raise ValidationError("eps must be finite")

    def fn(x, y):
        return 0.5 * (x + y) + eps * (x * y)

    return Kernel(
        f"quadratic:{eps:g}", 2, fn, quad_coefs=(0.5, 0.0, float(eps))
    )


def kernel_preset(ident: str) -> Kernel:
    """Resolve a kernel id such as ``variance`` or ``quadratic:0.5``."""
    spec = ident.strip()
    if spec.startswith("kernel:"):
        spec = spec[len("kernel:"):]
    name, _, arg = spec.partition(":")
    try:
        if name == "variance" and not arg:
            return variance_kernel()
        if name == "gini" and not arg:
            return gini_kernel()
        if name == "product" and not arg:
            return product_kernel()
        if name == "quadratic":
            return quadratic_kernel(float(arg) if arg else 0.0)
    except (ValueError, ValidationError) as exc:
        raise PresetError(f"bad kernel preset {ident!r}: {exc}") from exc
    raise PresetError(f"unknown kernel preset {ident!r}")


def symmetrize(fn: Callable[..., np.ndarray], order: int, ident: str = "symmetrized") -> Kernel:
    """Average an arbitrary kernel over all argument permutations.

    Supported up to order 6 (6! = 720 evaluations per call).
    """
    if not 1 <= order <= 6:
        raise ValidationError("symmetrize supports orders 1 through 6")
    perms = list(itertools.permutations(range(order)))
    weight = 1.0 / len(perms)

    def sym_fn(*args):
        if len(args) != order:
            raise ArityError(f"expected {order} arguments, got {len(args)}")
        total = fn(*args)
        for perm in perms[1:]:
            total = total + fn(*(args[i] for i in perm))
        return weight * total

    return Kernel(ident, order, sym_fn)


# ---------------------------------------------------------------------------
# U-statistic evaluation
# ---------------------------------------------------------------------------

def subset_blocks(
    n: int, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> Iterator[np.ndarray]:
    """Every increasing k-subset of ``range(n)``, in lexicographic order.

    Yields ``(k, m)`` arrays of index columns, ``m <= SUBSET_BLOCK``, so no
    more than one block of subsets is held at a time.  Raises
    :class:`BudgetError` at the call when C(n, k) exceeds ``budget``.
    """
    count = math.comb(n, k)
    if count > budget:
        raise BudgetError(f"C({n},{k}) = {count} subsets exceeds budget {budget}")
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    sizes = (min(SUBSET_BLOCK, count - lo) for lo in range(0, count, SUBSET_BLOCK))
    return (np.fromiter(flat, np.intp, k * m).reshape(m, k).T for m in sizes)


def check_sample(data: np.ndarray) -> np.ndarray:
    """``data`` as a float array, refused unless it is 1-d and finite."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValidationError("sample must be a 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValidationError("sample values must be finite")
    return x


def u_statistic(
    kernel: Kernel,
    data: np.ndarray,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> float:
    """Average of the kernel over all increasing index subsets."""
    x = check_sample(data)
    n = x.size
    k = kernel.order
    if n < k:
        raise InsufficientSample("n must be >= kernel order")
    blocks = subset_blocks(n, k, budget)
    total = math.fsum(float(np.sum(kernel_values(kernel, x[idx]))) for idx in blocks)
    return total / math.comb(n, k)
