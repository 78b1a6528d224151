"""The benchmark's workloads: the CLI commands each one runs and their checks.

Each workload is a fixed list of ``ustatlab`` commands.  The seed goes to
every command as ``--seed``; the replicate counts below are sized so that one
repetition takes roughly 4 to 12 seconds on a 2-vCPU machine and every check
passes at any seed (30k replicates keep the rate slopes more than 3 standard
deviations inside their gate).

- ``mc-rate`` spends most of its time building one Philox generator per
  replicate in ``model``; it bypasses the ``hoeffding`` integrals (analytic
  strategy) and ``oracle``.
- ``mc-moments`` spends most of its time evaluating kernel cells inside the
  Monte Carlo marginal integrals of ``hoeffding``, and draws a few large
  samples instead of many tiny ones.
- ``exact-oracle`` spends nearly all of its time enumerating tuples in
  ``oracle`` and does no sampling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

RATE_GRID = "8,16,32,64,128,256"
RATE_REPS = 30_000
COUNTEREXAMPLE_REPS = 50_000
SLOPE_RANGE = (-0.65, -0.35)

MOMENTS_GRID = "16,64,256"
MOMENTS_REPS = 1_000
# Inner draws of the moments command; its cost grows with their square.
MOMENTS_INNER_REPS = 5_000

ORACLE_TOL = 1e-10

# Gini kernel |x - y| under the standard exponential law: theta = E|X - Y| = 1
# and g(x) = x - 2 + 2 exp(-x), so var g = 1/3 and E g^4 = 149/45.  The
# standard error of a sample variance of m draws is sqrt((E g^4 - var^2) / m).
GINI_EXP_THETA = 1.0
GINI_EXP_VAR_G = 1.0 / 3.0
GINI_EXP_G4 = 149.0 / 45.0

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Command:
    """One CLI call of a workload.

    ``name`` is the per-command metric it is timed as, ``payload`` the JSON
    file the checks read, and ``outputs`` every file the command writes.
    """

    name: str
    argv: tuple[str, ...]
    payload: str
    outputs: tuple[str, ...]
    check: Check
    replicates: int = 0
    tuples: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    work_metric: str
    commands: tuple[Command, ...] = field(default_factory=tuple)

    @property
    def work(self) -> int:
        """Work units of one repetition: replicates scored, or logical tuples."""
        return sum(c.replicates + c.tuples for c in self.commands)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _dkw_se(reps: int) -> float:
    return math.sqrt(0.25 / reps)


def check_rate_slope(payload: dict) -> list[str]:
    fit = payload.get("fit") or {}
    slope = fit.get("slope")
    lo, hi = SLOPE_RANGE
    if not _finite(slope) or not lo <= slope <= hi:
        return [f"fitted slope {slope!r} outside [{lo}, {hi}]"]
    return []


def check_counterexample(payload: dict) -> list[str]:
    phi, adj, se = (payload.get(k) for k in ("dist_phi", "dist_adjusted", "se"))
    if not all(_finite(v) for v in (phi, adj, se)):
        return [f"non-numeric distances {phi!r}, {adj!r}, se {se!r}"]
    need = 3.0 * math.sqrt(2.0) * se
    if not phi - adj > need:
        return [f"margin dist_phi - dist_adjusted = {phi - adj!r} <= 3*sqrt(2)*se = {need!r}"]
    return []


def check_moment_ses(payload: dict) -> list[str]:
    m = payload.get("moments") or {}
    ses = [("beta_se", m.get("beta_se")), ("gamma_se", m.get("gamma_se")),
           ("gamma_alpha_se", m.get("gamma_alpha_se"))]
    kappa_se = m.get("kappa_se")
    if not isinstance(kappa_se, list) or len(kappa_se) < 2:
        return [f"kappa_se {kappa_se!r} is not a list of at least two entries"]
    problems = []
    # kappa_1 of an order-2 kernel is exactly 0, so it alone carries no SE.
    if kappa_se[0] is not None:
        problems.append(f"kappa_se[0] = {kappa_se[0]!r} is not null")
    ses += [(f"kappa_se[{i}]", v) for i, v in enumerate(kappa_se) if i > 0]
    return problems + [f"{k} = {v!r} is not finite and positive" for k, v in ses
                       if not (_finite(v) and v > 0.0)]


def check_adjusted_rate(payload: dict, inner_reps: int | None = None) -> list[str]:
    """theta, var g and every row of the gini/exponential adjusted-target run.

    ``inner_reps`` defaults to the package's inner draw count, which
    ``simulate`` uses for its Monte Carlo projection.  The fitted slope is
    deliberately not gated: centering noise makes it wrong for this pair
    (ROADMAP item 3), and the benchmark only records it.
    """
    if inner_reps is None:
        from ustatlab.hoeffding import DEFAULT_INNER_REPS as inner_reps
    problems = []
    theta, sigma_g = payload.get("theta"), payload.get("sigma_g")
    if not (_finite(theta) and _finite(sigma_g)):
        return [f"non-numeric theta {theta!r} or sigma_g {sigma_g!r}"]
    tol = 4.0 / math.sqrt(inner_reps)
    if abs(theta - GINI_EXP_THETA) > tol:
        problems.append(f"theta {theta!r} not within {tol!r} of {GINI_EXP_THETA}")
    var_se = math.sqrt((GINI_EXP_G4 - GINI_EXP_VAR_G**2) / inner_reps)
    if abs(sigma_g**2 - GINI_EXP_VAR_G) > 4.0 * var_se:
        problems.append(f"sigma_g^2 {sigma_g**2!r} not within 4 SE ({var_se!r}) of 1/3")
    reps = (payload.get("config") or {}).get("reps")
    rows = payload.get("rows")
    if not isinstance(reps, int) or not isinstance(rows, list) or not rows:
        return problems + [f"missing reps {reps!r} or rows"]
    want_se = _dkw_se(reps)
    for row in rows:
        d, se = row.get("distance"), row.get("se")
        if not (_finite(d) and 0.0 <= d <= 1.0):
            problems.append(f"n={row.get('n')}: distance {d!r} outside [0, 1]")
        if not (_finite(se) and math.isclose(se, want_se, rel_tol=1e-12)):
            problems.append(f"n={row.get('n')}: se {se!r} != dkw_se({reps})")
        if row.get("dropped") != 0:
            problems.append(f"n={row.get('n')}: dropped {row.get('dropped')!r} != 0")
    return problems


def check_oracle(payload: dict) -> list[str]:
    r = payload.get("report") or {}
    gamma = r.get("gamma")
    kappa = r.get("kappa") or [None]
    if not _finite(gamma):
        return [f"non-numeric gamma {gamma!r}"]
    expect = {
        "prob_total": (r.get("prob_total"), 1.0),
        "mean_s": (r.get("mean_s"), 0.0),
        "var_s": (r.get("var_s"), 1.0 + gamma),
        "e_tt_full": (r.get("e_tt_full"), gamma),
        "kappa[0]": (kappa[0], 0.0),
        "cov_l_t": (r.get("cov_l_t"), 0.0),
    }
    for group in ("component_cross", "linear_component_cross"):
        for key, v in (r.get(group) or {}).items():
            expect[f"{group}[{key}]"] = (v, 0.0)
    return [f"{k} = {v!r}, expected {want!r}" for k, (v, want) in expect.items()
            if not (_finite(v) and abs(v - want) <= ORACLE_TOL)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

NAMES = ("mc-rate", "mc-moments", "exact-oracle")


def build(name: str, seed: int, threads: int, outdir: str) -> Workload:
    """The workload ``name`` at ``seed``, writing its payloads under ``outdir``.

    ``threads`` is the worker count of ``mc-rate``; the other two workloads
    always run on one thread.
    """

    def out(stem: str, suffix: str = ".json") -> str:
        return os.path.join(outdir, stem + suffix)

    s = str(seed)
    if name == "mc-rate":
        t = str(threads)
        rate = ("simulate", "--kernel", "variance", "--dist", "exponential",
                "--n-grid", RATE_GRID, "--reps", str(RATE_REPS), "--seed", s,
                "--threads", t)
        rate_reps = RATE_REPS * len(RATE_GRID.split(","))
        commands = (
            Command("simulate_s", rate + ("--out", out("std", ".csv")), out("std"),
                    (out("std", ".csv"), out("std")), check_rate_slope, rate_reps),
            Command("studentized_s",
                    rate + ("--estimator", "studentized", "--out", out("stu", ".csv")),
                    out("stu"), (out("stu", ".csv"), out("stu")), check_rate_slope,
                    rate_reps),
            Command("counterexample_s",
                    ("counterexample", "--eps", "0.5", "--n", "25", "--reps",
                     str(COUNTEREXAMPLE_REPS), "--seed", s, "--threads", t,
                     "--out", out("cex")),
                    out("cex"), (out("cex"),), check_counterexample,
                    COUNTEREXAMPLE_REPS),
        )
        return Workload(name, threads, "replicates_per_s", commands)
    if name == "mc-moments":
        commands = (
            Command("moments_s",
                    ("moments", "--kernel", "gini", "--dist", "exponential",
                     "--n", "64", "--strategy", "monte-carlo",
                     "--inner-reps", str(MOMENTS_INNER_REPS), "--seed", s,
                     "--out", out("mom")),
                    out("mom"), (out("mom"),), check_moment_ses),
            Command("simulate_s",
                    ("simulate", "--kernel", "gini", "--dist", "exponential",
                     "--n-grid", MOMENTS_GRID, "--reps", str(MOMENTS_REPS),
                     "--target", "adjusted", "--seed", s, "--threads", "1",
                     "--out", out("adj", ".csv")),
                    out("adj"), (out("adj", ".csv"), out("adj")),
                    check_adjusted_rate,
                    MOMENTS_REPS * len(MOMENTS_GRID.split(","))),
        )
        return Workload(name, 1, "replicates_per_s", commands)
    if name == "exact-oracle":
        # The oracle has no randomness; the seed only names the run.
        commands = (
            Command("oracle_variance_s",
                    ("oracle", "--kernel", "variance", "--dist",
                     "uniform-atoms:-1,0,1", "--n", "12", "--out", out("orv")),
                    out("orv"), (out("orv"),), check_oracle, tuples=3**12),
            Command("oracle_gini_s",
                    ("oracle", "--kernel", "gini", "--dist", "bernoulli:0.3",
                     "--n", "16", "--out", out("org")),
                    out("org"), (out("org"),), check_oracle, tuples=2**16),
        )
        return Workload(name, 1, "tuples_per_s", commands)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
