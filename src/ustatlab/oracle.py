"""Exact finite-sample distribution of a standardized U-statistic.

For a finite-support distribution with ``s`` atoms, U, S, L and every T_p
are symmetric functions of the sample, so their joint law depends only on
how often each atom occurs.  The oracle works on the ``C(n+s-1, s-1)``
count vectors (type classes), weighted by their multinomial probabilities,
instead of walking all ``s^n`` outcome tuples, and sums each statistic over
multisets of atoms rather than subsets of sample positions.  The law of S
and all cross moments between the linear part and the degenerate component
sums are exact up to rounding.  This is the ground truth used to validate
the analytic moment formulas and every Monte Carlo estimator in the package.

Two evaluation routes are kept separate:

* moment functionals (beta, gamma, kappa) are weighted sums over the
  ``support^p`` atom grid, by the exact strategy of the decomposition;
* ``e_tt_full``, ``cov_l_t`` and friends come from evaluating L and T on
  whole samples of size n, through ``component_values`` on atom multisets.

Both routes sum t_p by ``ProjectionSet._component``, on h_q contracted from
the kernel's atom grid and on h_q from ``marginal_values`` at the atoms, so
their agreement checks those marginals, the sums and the scaling.  The
independent checks are the U route, whose var S, from the law of U alone,
must be 1 + gamma, and the analytic closed forms of ``quad_coefs`` kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import hoeffding, model
from .approx import AdjustedNormal, adjusted_cdf, edgeworth2, step_function_distance
from .errors import BudgetError, InsufficientSample, ValidationError
from .model import FiniteDiscrete, Kernel
from .payload import Payload

DEFAULT_TUPLE_BUDGET = 10**7

_GROUP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ExactReport(Payload):
    """Exact law and moment functionals for one (kernel, dist, n) triple."""

    kernel: str
    dist: str
    n: int
    tuples: int
    type_classes: int
    alpha: float
    theta: float
    sigma_g: float
    s_atoms: np.ndarray
    s_probs: np.ndarray
    u_atoms: np.ndarray
    u_probs: np.ndarray
    beta: float
    gamma: float
    gamma_components: tuple[float, ...]
    gamma_alpha: float
    gamma_alpha_components: tuple[float, ...]
    kappa: tuple[float, ...]
    e_gg_eta: Optional[float]
    e_g3: float
    mean_s: float
    var_s: float
    e_tt_full: float
    cov_l_t: float
    component_cross: dict[tuple[int, int], float]
    linear_component_cross: dict[int, float]
    power_cross: dict[int, float]
    prob_total: float
    dist_phi: float
    dist_adjusted: float
    dist_edgeworth2: Optional[float]

    def distance_to(self, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
        """Kolmogorov distance from the exact law of S to ``cdf``."""
        return step_function_distance(self.s_atoms, np.cumsum(self.s_probs), cdf)


def _group_atoms(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge numerically equal outcome values, summing their weights."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    if v.size == 0:
        raise ValidationError("no outcomes to group")
    tol = _GROUP_TOL * (1.0 + np.maximum(np.abs(v[1:]), np.abs(v[:-1])))
    new_group = np.concatenate(([True], np.diff(v) > tol))
    starts = np.flatnonzero(new_group)
    probs = np.add.reduceat(w, starts)
    # Representative value: probability-weighted mean of each group.
    sums = np.add.reduceat(v * w, starts)
    return sums / probs, probs


def enumeration_size(dist: FiniteDiscrete, n: int) -> tuple[int, int]:
    """``(tuples, type_classes)`` for samples of size ``n`` from ``dist``.

    ``tuples`` counts the ``s^n`` ordered outcomes, ``type_classes`` the
    ``C(n+s-1, s-1)`` count vectors that group them.
    """
    s = dist.atoms.size
    return s**n, math.comb(n + s - 1, s - 1)


def _type_classes(dist: FiniteDiscrete, n: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, probability)`` with one row per type class, one count per atom.

    The budget counts the ``s^n`` tuples the classes stand for.
    """
    s = dist.atoms.size
    tuples, classes = enumeration_size(dist, n)
    if tuples > budget:
        raise BudgetError(f"{s}^{n} = {tuples} tuples exceeds budget {budget}")
    # stars and bars: s - 1 bars among n + s - 1 slots cut n stars into s counts
    bars = np.array(list(itertools.combinations(range(n + s - 1), s - 1)), dtype=np.intp)
    counts = np.diff(bars, axis=1, prepend=-1, append=n + s - 1) - 1
    # n! / prod c_a! = prod_a C(c_0 + ... + c_a, c_a), exact in Python ints at any n
    multinomial = np.frompyfunc(math.comb, 2, 1)(counts.cumsum(axis=1), counts).prod(axis=1)
    return counts, multinomial.astype(float) * (dist.probs**counts).prod(axis=1)


def _subset_sum(
    f: Callable[[list[np.ndarray]], np.ndarray], atoms: np.ndarray, counts: np.ndarray, p: int
) -> np.ndarray:
    """Sum of ``f`` over every p-subset of sample positions, per count vector.

    ``f`` is called once, on the ``C(s+p-1, p)`` multisets of p atoms; a multiset
    with ``m_a`` copies of each atom ``a`` fills ``prod_a C(c_a, m_a)`` subsets.
    """
    combos = np.array(list(itertools.combinations_with_replacement(range(atoms.size), p)))
    # m_a at the first copy of each atom in a sorted multiset, 0 at the others
    picks = (combos[:, :, None] == combos[:, None, :]).sum(axis=2)
    picks[:, 1:][combos[:, 1:] == combos[:, :-1]] = 0
    values = f([atoms[col] for col in combos.T])
    binom = _binomial_table(int(counts.max()), p)
    # blocks of at most 32k binomials bound memory when atoms outnumber the sample
    blocks = np.array_split(counts, 1 + counts.shape[0] * combos.size // 32_768)
    return np.concatenate([binom[c[:, combos], picks].prod(axis=2) @ values for c in blocks])


def _binomial_table(n: int, p: int) -> np.ndarray:
    """``C(k, m)`` as floats for 0 <= k <= n, 0 <= m <= p (0 where m > k)."""
    return np.array([[math.comb(k, m) for m in range(p + 1)] for k in range(n + 1)], dtype=float)


def _u_rows(kernel: Kernel, dist: FiniteDiscrete, n: int, budget: int) -> tuple[np.ndarray, ...]:
    """``(counts, probability, U)`` per type class."""
    if not isinstance(dist, FiniteDiscrete):
        raise ValidationError("exact enumeration requires finite support")
    if n < kernel.order:
        raise InsufficientSample("n must be >= kernel order")
    counts, w = _type_classes(dist, n, budget)
    u_sum = _subset_sum(partial(model.kernel_values, kernel), dist.atoms, counts, kernel.order)
    return counts, w, u_sum / math.comb(n, kernel.order)


def exact_u_distribution(
    kernel: Kernel,
    dist: FiniteDiscrete,
    n: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact law of the raw U-statistic: ``(u_atoms, u_probs, theta)``.

    No standardization is involved, so this stays well defined for
    degenerate configurations where :func:`exact_distribution` refuses.
    ``budget`` caps the ``s^n`` outcome tuples, not the type classes that
    are actually evaluated.
    """
    _, w, u_rows = _u_rows(kernel, dist, n, budget)
    u_atoms, u_probs = _group_atoms(u_rows, w)
    return u_atoms, u_probs, float(np.dot(u_rows, w))


def exact_distribution(
    kernel: Kernel,
    dist: FiniteDiscrete,
    n: int,
    alpha: float = 2.0,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ExactReport:
    """Report the exact law of S with moments, one row per type class.

    ``budget`` caps the ``s^n`` outcome tuples, not the type classes that
    are actually evaluated.
    """
    counts, w, u_rows = _u_rows(kernel, dist, n, budget)
    k = kernel.order
    d = hoeffding.decompose(kernel, dist, n, strategy="exact")
    proj = d.projection
    theta = d.theta
    sigma_g = d.sigma_g
    s_scale = math.sqrt(n) / (k * sigma_g)
    s_rows = s_scale * (u_rows - theta)
    # t_scale(1) is l_scale and t_1 is g, so p = 1 gives L
    t_p_rows = {
        p: d.t_scale(p) * _subset_sum(partial(proj.component_values, p), dist.atoms, counts, p)
        for p in range(1, k + 1)
    }
    l_rows = t_p_rows.pop(1)
    t_rows = sum(t_p_rows.values(), np.zeros(w.size))

    def mean(x: np.ndarray) -> float:
        return float(np.dot(x, w))

    mean_s = mean(s_rows)
    s_atoms, s_probs = _group_atoms(s_rows, w)
    summary = hoeffding.moment_summary(d, alpha=alpha)
    kappa_vec = summary.kappa

    laws = {"phi": AdjustedNormal(), "adjusted": AdjustedNormal(kappa_vec)}
    e_gg_eta: Optional[float] = None
    if k == 2:
        e_gg_eta, e_g3, _ = hoeffding.order2_edgeworth_inputs(d)
        laws["edgeworth2"] = edgeworth2(e_gg_eta, e_g3, sigma_g, n)
    else:
        e_g3, _ = proj.moment("g3", 1)
    cum = np.cumsum(s_probs)
    dists = {
        name: step_function_distance(s_atoms, cum, lambda x, law=law: adjusted_cdf(law, x))
        for name, law in laws.items()
    }

    tuples, type_classes = enumeration_size(dist, n)
    return ExactReport(
        kernel=kernel.ident,
        dist=dist.ident,
        n=n,
        tuples=tuples,
        type_classes=type_classes,
        alpha=alpha,
        theta=theta,
        sigma_g=sigma_g,
        s_atoms=s_atoms,
        s_probs=s_probs,
        u_atoms=theta + s_atoms / s_scale,
        u_probs=s_probs,
        beta=summary.beta,
        gamma=summary.gamma,
        gamma_components=summary.gamma_components,
        gamma_alpha=summary.gamma_alpha,
        gamma_alpha_components=summary.gamma_alpha_components,
        kappa=kappa_vec,
        e_gg_eta=e_gg_eta,
        e_g3=e_g3,
        mean_s=mean_s,
        var_s=mean(s_rows**2) - mean_s**2,
        e_tt_full=mean(t_rows**2),
        cov_l_t=mean(l_rows * t_rows) - mean(l_rows) * mean(t_rows),
        component_cross={
            (p, q): mean(t_p_rows[p] * t_p_rows[q])
            for p in range(2, k + 1)
            for q in range(p + 1, k + 1)
        },
        linear_component_cross={p: mean(l_rows * tp) for p, tp in t_p_rows.items()},
        power_cross={p: mean(l_rows**p * t_rows) for p in t_p_rows},
        prob_total=float(np.sum(w)),
        dist_phi=dists["phi"],
        dist_adjusted=dists["adjusted"],
        dist_edgeworth2=dists.get("edgeworth2"),
    )
