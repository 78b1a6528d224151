"""Command line interface for decompositions, oracles, and experiments.

Exit codes: 0 on success, 1 on runtime errors (validation, degenerate
configurations, refused overwrites), 2 on usage errors.  JSON payloads go to
--out when given, else to stdout; one-line summaries go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import approx, exper, hoeffding, model, oracle, studentize
from .errors import ConfigError, IncompatibleOptions, UStatError

THREADS_ENV_VAR = "USTATLAB_THREADS"

_PRESETS = {
    "quadratic": ("quadratic", "normal"),
    "sec63": ("quadratic", "normal"),
}

DEFAULT_T_GRID = tuple(round(float(t), 10) for t in np.linspace(-3.0, 3.0, 25))


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}"
        ) from exc


def _ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


def _default_threads() -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _resolve_threads(flag_value: Optional[int]) -> int:
    return flag_value if flag_value is not None else _default_threads()


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _emit(payload: dict, out: Optional[str], force: bool) -> None:
    if out is None:
        sys.stdout.write(exper.json_text(payload))
    else:
        exper.write_json_report(payload, out, force=force)


def _kernel_dist_ids(args: argparse.Namespace) -> tuple[str, str]:
    """Resolve --kernel/--dist, honoring --preset and --eps shorthands."""
    kernel_id = args.kernel
    dist_id = args.dist
    if getattr(args, "preset", None) is not None:
        base_kernel, preset_dist = _PRESETS[args.preset]
        eps = args.eps if args.eps is not None else 0.0
        kernel_id = f"{base_kernel}:{eps!r}"
        dist_id = dist_id or preset_dist
    if kernel_id is None or dist_id is None:
        raise ConfigError("need --kernel and --dist, or --preset")
    return kernel_id, dist_id


def _experiment_config(args: argparse.Namespace) -> exper.ExperimentConfig:
    kernel_id, dist_id = _kernel_dist_ids(args)
    if args.n_grid is not None:
        n_grid = tuple(args.n_grid)
    elif args.n is not None:
        n_grid = (args.n,)
    else:
        n_grid = exper.DEFAULT_N_GRID
    target = exper.TargetSpec(
        kind=args.target, order=args.order, alpha=args.target_alpha
    )
    return exper.ExperimentConfig(
        kernel=kernel_id,
        dist=dist_id,
        n_grid=n_grid,
        reps=args.reps,
        seed=args.seed,
        estimator=args.estimator,
        target=target,
        threads=_resolve_threads(args.threads),
    )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_decompose(args: argparse.Namespace) -> int:
    kernel = model.kernel_preset(args.kernel)
    dist = model.distribution_preset(args.dist)
    d = hoeffding.decompose(
        kernel,
        dist,
        args.n,
        strategy=args.strategy,
        inner_reps=args.inner_reps,
        seed=args.seed,
    )
    payload = {
        "schema": exper.SCHEMA_VERSION,
        "config": {
            "kernel": args.kernel,
            "dist": args.dist,
            "n": args.n,
            "strategy": d.projection.strategy,
            "inner_reps": args.inner_reps,
            "seed": args.seed,
        },
        "theta": d.theta,
        "sigma_g": d.sigma_g,
        "kappa": list(hoeffding.kappa_vector(d)),
        "linear_scale": d.l_scale,
        "component_scales": {str(p): d.t_scale(p) for p in range(2, d.order + 1)},
    }
    if args.data is not None:
        x = np.asarray(args.data, dtype=float)
        payload["evaluation"] = {
            "data": [float(v) for v in x],
            "value": d.value(x),
            "linear_part": d.linear_part(x),
            "remainder": d.remainder(x),
        }
    _emit(payload, args.out, args.force)
    _summary(
        f"decompose kernel={args.kernel} dist={args.dist} n={args.n} "
        f"theta={d.theta!r} sigma_g={d.sigma_g!r}"
    )
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    kernel = model.kernel_preset(args.kernel)
    dist = model.distribution_preset(args.dist)
    d = hoeffding.decompose(
        kernel,
        dist,
        args.n,
        strategy=args.strategy,
        inner_reps=args.inner_reps,
        seed=args.seed,
    )
    summary = hoeffding.moment_summary(d, alpha=args.alpha)
    payload = {
        "schema": exper.SCHEMA_VERSION,
        "config": {
            "kernel": args.kernel,
            "dist": args.dist,
            "n": args.n,
            "alpha": args.alpha,
            "strategy": d.projection.strategy,
            "inner_reps": args.inner_reps,
            "seed": args.seed,
        },
        "moments": summary.to_json(),
    }
    if args.inequalities:
        report = hoeffding.moment_inequalities(d, alpha=args.inequality_alpha)
        payload["inequalities"] = report.to_json()
    _emit(payload, args.out, args.force)
    _summary(
        f"moments kernel={args.kernel} dist={args.dist} n={args.n} "
        f"beta={summary.beta!r} gamma={summary.gamma!r}"
    )
    return 0


def _cmd_approx_eval(args: argparse.Namespace) -> int:
    adj = approx.AdjustedNormal(tuple(args.kappa))
    xs = np.asarray(args.x, dtype=float)
    cdf = approx.adjusted_cdf(adj, xs)
    density = approx.adjusted_density(adj, xs)
    payload = {
        "schema": exper.SCHEMA_VERSION,
        "config": {"kappa": list(args.kappa)},
        "points": [
            {"x": float(x), "cdf": float(c), "density": float(p)}
            for x, c, p in zip(xs, np.atleast_1d(cdf), np.atleast_1d(density))
        ],
    }
    if args.t is not None:
        rows = []
        for t in args.t:
            v = approx.adjusted_cf(adj, float(t))
            rows.append(
                {"t": float(t), "re": float(np.real(v)), "im": float(np.imag(v))}
            )
        payload["characteristic"] = rows
    if args.select_alpha is not None:
        payload["selected_order"] = approx.select_correction_order(
            args.select_alpha, args.kernel_order
        )
    _emit(payload, args.out, args.force)
    _summary(f"approx-eval kappa={list(args.kappa)} points={len(args.x)}")
    return 0


def _cmd_studentize(args: argparse.Namespace) -> int:
    kernel = model.kernel_preset(args.kernel)
    if args.data is not None:
        x = np.asarray(args.data, dtype=float)
    else:
        x = np.loadtxt(args.data_file, ndmin=1)
    st = studentize.studentized_ustat(kernel, x, args.theta)
    payload = {
        "schema": exper.SCHEMA_VERSION,
        "config": {"kernel": args.kernel, "theta": args.theta, "n": st.n},
        "u_stat": st.u_stat,
        "sigma_hat_g": st.sigma_hat_g,
        "value": st.value,
    }
    _emit(payload, args.out, args.force)
    _summary(
        f"studentize kernel={args.kernel} n={st.n} u={st.u_stat!r} value={st.value!r}"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    kernel = model.kernel_preset(args.kernel)
    dist = model.distribution_preset(args.dist)
    config = {
        "kernel": args.kernel,
        "dist": args.dist,
        "n": args.n,
        "alpha": args.alpha,
        "budget": args.budget,
    }
    if args.u_only:
        atoms, probs, theta = oracle.exact_u_distribution(
            kernel, dist, args.n, budget=args.budget
        )
        tuples, type_classes = oracle.enumeration_size(dist, args.n)
        payload = {
            "schema": exper.SCHEMA_VERSION,
            "config": config,
            "tuples": tuples,
            "type_classes": type_classes,
            "theta": theta,
            "u_atoms": [float(v) for v in atoms],
            "u_probs": [float(v) for v in probs],
        }
        _emit(payload, args.out, args.force)
        _summary(
            f"oracle kernel={args.kernel} dist={args.dist} n={args.n} "
            f"tuples={tuples} type_classes={type_classes} atoms={atoms.size} (raw U law)"
        )
        return 0
    report = oracle.exact_distribution(
        kernel, dist, args.n, alpha=args.alpha, budget=args.budget
    )
    payload = {
        "schema": exper.SCHEMA_VERSION,
        "config": config,
        "report": report.to_json(),
    }
    _emit(payload, args.out, args.force)
    _summary(
        f"oracle kernel={args.kernel} dist={args.dist} n={args.n} "
        f"tuples={report.tuples} type_classes={report.type_classes} "
        f"kappa1={report.kappa[0]!r} dist_phi={report.dist_phi!r}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    report = exper.run_ecdf_experiment(cfg)
    if args.out is not None:
        csv_path, json_path = exper.write_rate_report(report, args.out, force=args.force)
        where = f"out={csv_path},{json_path}"
    else:
        sys.stdout.write(exper.json_text(report.to_json()))
        where = "out=stdout"
    max_distance = max(r.distance for r in report.rows)
    slope = "none" if report.slope is None else repr(report.slope)
    _summary(
        f"simulate kernel={cfg.kernel} dist={cfg.dist} reps={cfg.reps} "
        f"max_distance={max_distance!r} slope={slope} {where}"
    )
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    study = exper.quadratic_counterexample(
        args.eps,
        args.n,
        reps=args.reps,
        seed=args.seed,
        threads=_resolve_threads(args.threads),
    )
    _emit(study.to_json(), args.out, args.force)
    _summary(
        f"counterexample eps={args.eps} n={args.n} dist_phi={study.dist_phi!r} "
        f"dist_adjusted={study.dist_adjusted!r}"
    )
    return 0


def _cmd_example1(args: argparse.Namespace) -> int:
    eps_grid = tuple(args.eps_grid) if args.eps_grid else exper.DEFAULT_EPS_GRID
    report = exper.perturbed_normal_study(args.a, eps_grid=eps_grid)
    _emit(report.to_json(), args.out, args.force)
    _summary(
        f"example1 a={args.a} exponent={report.exponent!r} "
        f"bound={report.exponent_bound!r} ok={report.satisfies_bound}"
    )
    return 0


def _cmd_cf_check(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    t_grid = tuple(args.t_grid) if args.t_grid else DEFAULT_T_GRID
    report = exper.char_function_check(cfg, t_grid)
    _emit(report.to_json(), args.out, args.force)
    ratios = " ".join(
        f"n={n}:{v!r}" for n, v in sorted(report.max_ratio_by_n.items())
    )
    _summary(f"cf-check kernel={cfg.kernel} dist={cfg.dist} max_ratio {ratios}")
    return 0


def _cmd_smooth_check(args: argparse.Namespace) -> int:
    cfg = _experiment_config(args)
    report = exper.smooth_function_check(cfg, args.function)
    _emit(report.to_json(), args.out, args.force)
    worst = max(r.ratio for r in report.rows)
    _summary(
        f"smooth-check kernel={cfg.kernel} dist={cfg.dist} f={args.function} "
        f"max_ratio={worst!r}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout JSON)")
    p.add_argument(
        "--force", action="store_true", help="overwrite an existing output file"
    )


def _add_projection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True, help="kernel preset id")
    p.add_argument("--dist", required=True, help="distribution preset id")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", *hoeffding.STRATEGIES],
        help="projection strategy: exact (finite support), analytic (closed "
        "forms), quadrature (Gauss-Legendre rule on the quantile scale of a "
        "continuous law) or monte-carlo; auto picks the first that applies",
    )
    p.add_argument(
        "--inner-reps",
        type=int,
        default=hoeffding.DEFAULT_INNER_REPS,
        help="inner sample size; used only by the monte-carlo strategy",
    )
    p.add_argument("--seed", type=int, default=0)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", default=None, help="kernel preset id")
    p.add_argument("--dist", default=None, help="distribution preset id")
    p.add_argument(
        "--preset",
        choices=sorted(_PRESETS),
        default=None,
        help="kernel/distribution pair shorthand; combine with --eps",
    )
    p.add_argument("--eps", type=float, default=None, help="preset coupling strength")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--n", type=int, default=None, help="single sample size")
    grid.add_argument(
        "--n-grid", type=_ints, default=None, help="comma-separated sample sizes"
    )
    p.add_argument("--reps", type=int, default=exper.DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--estimator",
        default="standardized",
        choices=["standardized", "studentized"],
    )
    p.add_argument(
        "--target",
        default="phi",
        choices=["phi", "adjusted", "edgeworth2"],
        help="reference law for distances (phi only with the studentized estimator)",
    )
    p.add_argument(
        "--order",
        type=int,
        default=None,
        help="correction order of the adjusted law (simulate: --target adjusted only)",
    )
    p.add_argument(
        "--target-alpha",
        type=float,
        default=None,
        help="moment exponent that selects the adjusted law's correction order "
        "(simulate: --target adjusted only)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker threads (default: ${THREADS_ENV_VAR} or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ustatlab",
        description="U-statistic decompositions, adjusted normal targets, and "
        "Monte Carlo rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="project a kernel and report scales")
    _add_projection_flags(p)
    p.add_argument(
        "--data", type=_floats, default=None, help="evaluate the statistic on a sample"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("moments", help="moment functionals of one decomposition")
    _add_projection_flags(p)
    p.add_argument("--alpha", type=float, default=2.0, help="remainder moment exponent")
    p.add_argument(
        "--inequalities",
        action="store_true",
        help="include the structural inequality checks",
    )
    p.add_argument("--inequality-alpha", type=float, default=1.8)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("approx-eval", help="evaluate an adjusted normal law")
    p.add_argument(
        "--kappa", type=_floats, required=True, help="comma-separated coefficients"
    )
    p.add_argument("--x", type=_floats, default=[0.0], help="evaluation points")
    p.add_argument("--t", type=_floats, default=None, help="transform arguments")
    p.add_argument(
        "--select-alpha",
        type=float,
        default=None,
        help="report the correction order selected for this exponent",
    )
    p.add_argument("--kernel-order", type=int, default=2)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_approx_eval)

    p = sub.add_parser("studentize", help="studentized statistic of one sample")
    p.add_argument("--kernel", required=True)
    p.add_argument("--theta", type=float, required=True, help="centering value")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", type=_floats, default=None)
    src.add_argument("--data-file", default=None, help="text file, one value per line")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_studentize)

    p = sub.add_parser("oracle", help="exact law by type-class enumeration")
    p.add_argument("--kernel", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument(
        "--budget",
        type=int,
        default=oracle.DEFAULT_TUPLE_BUDGET,
        help="cap on the s^n outcome tuples (not the type classes evaluated)",
    )
    p.add_argument(
        "--u-only",
        action="store_true",
        help="report the raw U law only (defined even for degenerate kernels)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("simulate", help="ECDF distance experiment over an n-grid")
    _add_experiment_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "counterexample", help="plain vs adjusted target on the quadratic preset"
    )
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=exper.DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser(
        "example1", help="perturbed-normal sup-distance exponent study"
    )
    p.add_argument("--a", type=float, required=True, help="perturbation power")
    p.add_argument(
        "--eps-grid", type=_floats, default=None, help="perturbation amplitudes"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_example1)

    scoring = (
        "Scores the standardized statistic against the adjusted law of order "
        "--order or --target-alpha; --estimator studentized and --target "
        "edgeworth2 are usage errors."
    )
    p = sub.add_parser(
        "cf-check",
        help="characteristic function envelope check",
        description=f"Characteristic function envelope check.  {scoring}",
    )
    _add_experiment_flags(p)
    p.add_argument(
        "--t-grid", type=_floats, default=None, help="transform arguments, |t| <= 6"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_cf_check)

    p = sub.add_parser(
        "smooth-check",
        help="smooth-function expectation check",
        description=f"Smooth-function expectation check.  {scoring}",
    )
    _add_experiment_flags(p)
    p.add_argument(
        "--function",
        default="cos",
        help="test integrand id: cos[:omega], gauss, const[:c]",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_smooth_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except IncompatibleOptions as exc:
        parser.error(str(exc))
    except (UStatError, FileExistsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
