"""Exact finite-sample distribution of a standardized U-statistic.

For a finite-support distribution with ``s`` atoms, U, S, L and every T_p
are symmetric functions of the sample, so their joint law depends only on
how often each atom occurs.  The oracle evaluates one sorted representative
tuple per count vector (type class), ``C(n+s-1, s-1)`` of them, weighted by
its multinomial probability, instead of walking all ``s^n`` outcome tuples.
The law of S and all cross moments between the linear part and the
degenerate component sums are exact up to rounding.  This is the ground
truth used to validate the analytic moment formulas and every Monte Carlo
estimator in the package.

Two independent evaluation routes are kept deliberately separate:

* moment functionals (beta, gamma, kappa) come from ``support^p`` sums via
  the decomposition machinery;
* ``e_tt_full``, ``cov_l_t`` and friends come from evaluating L and T on
  whole samples of size n, one representative per type class.

Their agreement is an end-to-end check of the decomposition algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import hoeffding, model
from .approx import AdjustedNormal, adjusted_cdf, edgeworth2, step_function_distance
from .errors import BudgetError, InsufficientSample, ValidationError
from .model import FiniteDiscrete, Kernel

DEFAULT_TUPLE_BUDGET = 10**7

_GROUP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ExactReport:
    """Exact law and moment functionals for one (kernel, dist, n) triple."""

    kernel_id: str
    dist_id: str
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

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel_id,
            "dist": self.dist_id,
            "n": self.n,
            "tuples": self.tuples,
            "type_classes": self.type_classes,
            "alpha": self.alpha,
            "theta": self.theta,
            "sigma_g": self.sigma_g,
            "s_atoms": self.s_atoms.tolist(),
            "s_probs": self.s_probs.tolist(),
            "u_atoms": self.u_atoms.tolist(),
            "u_probs": self.u_probs.tolist(),
            "beta": self.beta,
            "gamma": self.gamma,
            "gamma_components": list(self.gamma_components),
            "gamma_alpha": self.gamma_alpha,
            "gamma_alpha_components": list(self.gamma_alpha_components),
            "kappa": list(self.kappa),
            "e_gg_eta": self.e_gg_eta,
            "e_g3": self.e_g3,
            "mean_s": self.mean_s,
            "var_s": self.var_s,
            "e_tt_full": self.e_tt_full,
            "cov_l_t": self.cov_l_t,
            "component_cross": {f"{p},{q}": v for (p, q), v in self.component_cross.items()},
            "linear_component_cross": {str(p): v for p, v in self.linear_component_cross.items()},
            "power_cross": {str(p): v for p, v in self.power_cross.items()},
            "prob_total": self.prob_total,
            "dist_phi": self.dist_phi,
            "dist_adjusted": self.dist_adjusted,
            "dist_edgeworth2": self.dist_edgeworth2,
        }


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


def _type_classes(
    dist: FiniteDiscrete, n: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """One sorted representative tuple per count vector, with its probability.

    The budget counts the ``s^n`` tuples the classes stand for.
    """
    s = dist.atoms.size
    tuples, classes = enumeration_size(dist, n)
    if tuples > budget:
        raise BudgetError(f"{s}^{n} = {tuples} tuples exceeds budget {budget}")
    combos = itertools.combinations_with_replacement(range(s), n)
    idx = np.fromiter(itertools.chain.from_iterable(combos), np.intp, classes * n)
    idx = idx.reshape(classes, n)
    # Extending a sorted prefix of length j by the r-th copy of an atom
    # multiplies its multinomial coefficient by (j + 1) / r, which stays an
    # integer; Python ints keep it exact at any n.
    multinomial = np.ones(classes, dtype=object)
    copy_no = np.ones(classes, dtype=np.int64)
    for j in range(1, n):
        copy_no = np.where(idx[:, j] == idx[:, j - 1], copy_no + 1, 1)
        multinomial = multinomial * (j + 1) // copy_no
    return dist.atoms[idx], multinomial.astype(float) * dist.probs[idx].prod(axis=1)


def _subset_sum(
    f: Callable[[list[np.ndarray]], np.ndarray], vals: np.ndarray, p: int
) -> np.ndarray:
    """Sum of ``f`` over every p-subset of the columns, for each row of ``vals``."""
    out = np.zeros(vals.shape[0])
    for combo in itertools.combinations(range(vals.shape[1]), p):
        out += f([vals[:, c] for c in combo])
    return out


def _check_inputs(kernel: Kernel, dist: FiniteDiscrete, n: int) -> None:
    if not isinstance(dist, FiniteDiscrete):
        raise ValidationError("exact enumeration requires finite support")
    if n < kernel.order:
        raise InsufficientSample("n must be >= kernel order")


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
    _check_inputs(kernel, dist, n)
    vals, w = _type_classes(dist, n, budget)
    k = kernel.order
    u_rows = _subset_sum(functools.partial(model.kernel_values, kernel), vals, k)
    u_rows /= math.comb(n, k)
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
    _check_inputs(kernel, dist, n)
    k = kernel.order
    d = hoeffding.decompose(kernel, dist, n, strategy="exact")
    proj = d.projection
    theta = d.theta
    sigma_g = d.sigma_g
    s_scale = math.sqrt(n) / (k * sigma_g)

    vals, w = _type_classes(dist, n, budget)
    u_sum = _subset_sum(functools.partial(model.kernel_values, kernel), vals, k)
    s_rows = s_scale * (u_sum / math.comb(n, k) - theta)
    l_rows = proj.g_values(vals.ravel()).reshape(vals.shape).sum(axis=1) * d.l_scale
    t_p_rows = {
        p: d.t_scale(p) * _subset_sum(functools.partial(proj.component_values, p), vals, p)
        for p in range(2, k + 1)
    }
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
        kernel_id=kernel.ident,
        dist_id=dist.ident,
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
