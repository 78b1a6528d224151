"""Command line interface for decompositions, oracles, and experiments.

Each subcommand's handler returns ``(payload, summary)``: a report, or a
``payload.document`` of the values it computed, and a one-line summary.
``main`` writes the payload as JSON to --out when given (with the writer the
subcommand sets as ``write``), else to stdout, then the summary to stderr.
Exit codes: 0 on success, 1 on runtime errors (validation, degenerate
configurations, refused overwrites), 2 on usage errors.  A run builds only
the parser of the subcommand it names, and the parser of all ten only for the
top-level help and errors, which list them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import approx, exper, hoeffding, model, oracle, studentize
from .errors import ConfigError, IncompatibleOptions, UStatError, ValidationError
from .payload import document

THREADS_ENV_VAR = "USTATLAB_THREADS"
_THREADS_HELP = f"worker threads (default: ${THREADS_ENV_VAR} or 1)"

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
    """$USTATLAB_THREADS, or 1; refused as the same --threads value is."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        _parser().error(f"environment variable {THREADS_ENV_VAR}: invalid int value: {raw!r}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {THREADS_ENV_VAR}={raw}")
    return threads


def _resolve_threads(flag_value: Optional[int]) -> int:
    return flag_value if flag_value is not None else _default_threads()


def _kernel_dist_ids(args: argparse.Namespace) -> tuple[str, str]:
    """Resolve --kernel/--dist, or --preset with its --eps; --dist overrides a
    preset's law.  --eps without --preset, and --preset with --kernel, are
    refused rather than ignored or overridden."""
    kernel_id = args.kernel
    dist_id = args.dist
    if args.preset is None and args.eps is not None:
        raise IncompatibleOptions("--eps sets the coupling strength of --preset; give --preset too")
    if args.preset is not None:
        if kernel_id is not None:
            raise IncompatibleOptions(
                "--preset names its own kernel; give --kernel or --preset, not both"
            )
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

def _projection(args: argparse.Namespace, **extra) -> tuple[hoeffding.DecomposedStatistic, dict]:
    """The decomposition the projection flags name, and its config block:
    the flags, ``extra``, the strategy and the one size it ran at, if any
    (the inner draws of Monte Carlo or the graded nodes of quadrature)."""
    d = hoeffding.decompose(
        model.kernel_preset(args.kernel),
        model.distribution_preset(args.dist),
        args.n,
        strategy=args.strategy,
        inner_reps=args.inner_reps,
        seed=args.seed,
    )
    strategy = d.projection.strategy
    config = {"kernel": args.kernel, "dist": args.dist, "n": args.n, **extra,
              "strategy": strategy, "seed": args.seed}
    if strategy == "monte-carlo":
        config["inner_reps"] = args.inner_reps
    elif strategy == "quadrature":
        config["nodes"] = hoeffding.QUADRATURE_NODES
    return d, config


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict, str]:
    d, config = _projection(args)
    fields = {
        "config": config,
        "theta": d.theta,
        "sigma_g": d.sigma_g,
        "kappa": hoeffding.kappa_vector(d),
        "linear_scale": d.l_scale,
        "component_scales": {p: d.t_scale(p) for p in range(2, d.order + 1)},
    }
    if args.data is not None:
        x = np.asarray(args.data, dtype=float)
        fields["evaluation"] = {"data": x, "value": d.value(x),
                                "linear_part": d.linear_part(x), "remainder": d.remainder(x)}
    return document(**fields), (
        f"decompose kernel={args.kernel} dist={args.dist} n={args.n} "
        f"theta={d.theta!r} sigma_g={d.sigma_g!r}"
    )


def _cmd_moments(args: argparse.Namespace) -> tuple[dict, str]:
    alpha = args.inequality_alpha
    if alpha is not None and not args.inequalities:
        raise IncompatibleOptions(
            "--inequality-alpha sets the alpha of --inequalities; give --inequalities too"
        )
    alpha = 1.8 if alpha is None else alpha
    if args.inequalities and not math.isfinite(alpha):
        # refused before the projection, as hoeffding.moment_inequalities refuses it
        raise ValidationError(f"inequality alpha must be finite, got {alpha!r}")
    d, config = _projection(args, alpha=args.alpha)
    summary = hoeffding.moment_summary(d, alpha=args.alpha)
    fields = {"config": config, "moments": summary}
    if args.inequalities:
        fields["inequalities"] = hoeffding.moment_inequalities(d, alpha=alpha)
    return document(**fields), (
        f"moments kernel={args.kernel} dist={args.dist} n={args.n} "
        f"beta={summary.beta!r} gamma={summary.gamma!r}"
    )


def _cmd_approx_eval(args: argparse.Namespace) -> tuple[dict, str]:
    if args.kernel_order is not None and args.select_alpha is None:
        raise IncompatibleOptions(
            "--kernel-order sets the kernel order of --select-alpha; give --select-alpha too"
        )
    adj = approx.AdjustedNormal(tuple(args.kappa))
    xs = np.asarray(args.x, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(args.t or ()))):
        raise ValidationError("evaluation points and transform arguments must be finite")
    cdf = np.atleast_1d(approx.adjusted_cdf(adj, xs))
    density = np.atleast_1d(approx.adjusted_density(adj, xs))
    fields = {
        "config": {"kappa": args.kappa},
        "points": [{"x": x, "cdf": c, "density": p} for x, c, p in zip(xs, cdf, density)],
    }
    if args.t is not None:
        cf = np.atleast_1d(approx.adjusted_cf(adj, args.t))
        fields["characteristic"] = [{"t": t, "re": v.real, "im": v.imag}
                                    for t, v in zip(args.t, cf)]
    if args.select_alpha is not None:
        fields["selected_order"] = approx.select_correction_order(
            args.select_alpha, 2 if args.kernel_order is None else args.kernel_order
        )
    return document(**fields), f"approx-eval kappa={args.kappa} points={len(args.x)}"


def _read_sample(path: str) -> np.ndarray:
    """The numbers of a text file, one per line; ``#`` starts a comment."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's note on an empty file
        try:
            x = np.loadtxt(path, ndmin=1)
        except ValueError as exc:
            raise ValidationError(f"{path} is not one number per line: {exc}") from exc
    if x.size == 0:
        raise ValidationError(f"{path} holds no values")
    return x


def _cmd_studentize(args: argparse.Namespace) -> tuple[dict, str]:
    kernel = model.kernel_preset(args.kernel)
    x = _read_sample(args.data_file) if args.data is None else np.asarray(args.data, dtype=float)
    st = studentize.studentized_ustat(kernel, x, args.theta)
    config = {"kernel": args.kernel, "theta": args.theta, "n": st.n}
    return document(
        config=config, u_stat=st.u_stat, sigma_hat_g=st.sigma_hat_g, value=st.value
    ), f"studentize kernel={args.kernel} n={st.n} u={st.u_stat!r} value={st.value!r}"


def _cmd_oracle(args: argparse.Namespace) -> tuple[dict, str]:
    kernel = model.kernel_preset(args.kernel)
    dist = model.distribution_preset(args.dist)
    config = {"kernel": args.kernel, "dist": args.dist, "n": args.n,
              "alpha": args.alpha, "budget": args.budget}
    head = f"oracle kernel={args.kernel} dist={args.dist} n={args.n}"
    if args.u_only:
        atoms, probs, theta = oracle.exact_u_distribution(kernel, dist, args.n, budget=args.budget)
        tuples, type_classes = oracle.enumeration_size(dist, args.n)
        return document(
            config=config, tuples=tuples, type_classes=type_classes, theta=theta,
            u_atoms=atoms, u_probs=probs,
        ), f"{head} tuples={tuples} type_classes={type_classes} atoms={atoms.size} (raw U law)"
    report = oracle.exact_distribution(kernel, dist, args.n, alpha=args.alpha, budget=args.budget)
    return document(config=config, report=report), (
        f"{head} tuples={report.tuples} type_classes={report.type_classes} "
        f"kappa1={report.kappa[0]!r} dist_phi={report.dist_phi!r}"
    )


def _cmd_simulate(args: argparse.Namespace) -> tuple[exper.RateReport, str]:
    cfg = _experiment_config(args)
    report = exper.run_ecdf_experiment(cfg)
    where = "stdout" if args.out is None else ",".join(map(str, exper.rate_report_paths(args.out)))
    max_distance = max(r.distance for r in report.rows)
    slope = "none" if report.slope is None else repr(report.slope)
    return report, (
        f"simulate kernel={cfg.kernel} dist={cfg.dist} reps={cfg.reps} "
        f"max_distance={max_distance!r} slope={slope} out={where}"
    )


def _cmd_counterexample(args: argparse.Namespace) -> tuple[exper.ComparatorStudy, str]:
    study = exper.quadratic_counterexample(
        args.eps, args.n, reps=args.reps, seed=args.seed, threads=_resolve_threads(args.threads)
    )
    return study, (
        f"counterexample eps={args.eps} n={args.n} dist_phi={study.dist_phi!r} "
        f"dist_adjusted={study.dist_adjusted!r}"
    )


def _cmd_example1(args: argparse.Namespace) -> tuple[exper.PerturbedNormalReport, str]:
    eps_grid = tuple(args.eps_grid) if args.eps_grid else exper.DEFAULT_EPS_GRID
    report = exper.perturbed_normal_study(args.a, eps_grid=eps_grid)
    return report, (
        f"example1 a={args.a} exponent={report.exponent!r} "
        f"bound={report.exponent_bound!r} ok={report.satisfies_bound}"
    )


def _cmd_cf_check(args: argparse.Namespace) -> tuple[exper.CfReport, str]:
    cfg = _experiment_config(args)
    t_grid = tuple(args.t_grid) if args.t_grid else DEFAULT_T_GRID
    report = exper.char_function_check(cfg, t_grid)
    ratios = " ".join(f"n={n}:{v!r}" for n, v in sorted(report.max_ratio_by_n.items()))
    return report, f"cf-check kernel={cfg.kernel} dist={cfg.dist} max_ratio {ratios}"


def _cmd_smooth_check(args: argparse.Namespace) -> tuple[exper.SmoothReport, str]:
    cfg = _experiment_config(args)
    report = exper.smooth_function_check(cfg, args.function)
    worst = max(r.ratio for r in report.rows)
    return report, (
        f"smooth-check kernel={cfg.kernel} dist={cfg.dist} f={args.function} "
        f"max_ratio={worst!r}"
    )


# ---------------------------------------------------------------------------
# Parser construction
# ---------------------------------------------------------------------------

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout JSON)")
    p.add_argument(
        "--force", action="store_true", help="overwrite an existing output file"
    )
    # every file that --out names, checked before the command runs, and the
    # writer of the command's payload to --out
    p.set_defaults(out_paths=lambda out: (Path(out),), write=exper.write_json_report)


def _add_projection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True, help="kernel preset id")
    p.add_argument("--dist", required=True, help="distribution preset id")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument(
        "--strategy",
        default="auto",
        choices=["auto", *hoeffding.STRATEGIES],
        help="projection strategy: exact (finite support), analytic (closed "
        "forms), quadrature (order-2 kernels on a continuous law with ppf, isf "
        "and cdf: a graded rule on the ordered triangle of the quantile scale) "
        "or monte-carlo; auto picks the first that applies",
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
        help="kernel/distribution pair shorthand, in place of --kernel; combine "
        "with --eps, and --dist overrides its law",
    )
    p.add_argument(
        "--eps", type=float, default=None, help="preset coupling strength (--preset only)"
    )
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--n", type=int, default=None, help="single sample size")
    grid.add_argument(
        "--n-grid", type=_ints, default=None, help="comma-separated sample sizes"
    )
    p.add_argument("--reps", type=int, default=exper.DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)


# Each subcommand's parser arguments and flags, in the order the full parser
# lists them: name -> (``add_parser`` keyword arguments, function adding the
# flags and defaults to the subparser).
_SUBCOMMANDS: dict[str, tuple[dict, Callable[[argparse.ArgumentParser], None]]] = {}


def _subcommand(name: str, **parser_kwargs):
    """Register the decorated function as the flags of subcommand ``name``."""
    def register(add_flags):
        _SUBCOMMANDS[name] = (parser_kwargs, add_flags)
        return add_flags
    return register


@_subcommand("decompose", help="project a kernel and report scales")
def _decompose_flags(p: argparse.ArgumentParser) -> None:
    _add_projection_flags(p)
    p.add_argument(
        "--data", type=_floats, default=None, help="evaluate the statistic on a sample"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_decompose)


@_subcommand("moments", help="moment functionals of one decomposition")
def _moments_flags(p: argparse.ArgumentParser) -> None:
    _add_projection_flags(p)
    p.add_argument("--alpha", type=float, default=2.0, help="remainder moment exponent")
    p.add_argument(
        "--inequalities",
        action="store_true",
        help="include the structural inequality checks",
    )
    p.add_argument(
        "--inequality-alpha", type=float, default=None, help="alpha of the d:s items (default 1.8)"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_moments)


@_subcommand("approx-eval", help="evaluate an adjusted normal law")
def _approx_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--kappa", type=_floats, required=True, help="comma-separated coefficients"
    )
    p.add_argument("--x", type=_floats, default=(0.0,), help="evaluation points")
    p.add_argument("--t", type=_floats, default=None, help="transform arguments")
    p.add_argument(
        "--select-alpha",
        type=float,
        default=None,
        help="report the correction order selected for this exponent",
    )
    p.add_argument(
        "--kernel-order", type=int, default=None, help="kernel order of --select-alpha (default 2)"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_approx_eval)


@_subcommand("studentize", help="studentized statistic of one sample")
def _studentize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", required=True)
    p.add_argument("--theta", type=float, required=True, help="centering value")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", type=_floats, default=None)
    src.add_argument("--data-file", default=None, help="text file, one value per line")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_studentize)


@_subcommand("oracle", help="exact law by type-class enumeration")
def _oracle_flags(p: argparse.ArgumentParser) -> None:
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


@_subcommand("simulate", help="ECDF distance experiment over an n-grid")
def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _add_experiment_flags(p)
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
    _add_output_flags(p)
    p.set_defaults(
        handler=_cmd_simulate, out_paths=exper.rate_report_paths, write=exper.write_rate_report
    )


@_subcommand("counterexample", help="plain vs adjusted target on the quadratic preset")
def _counterexample_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=exper.DEFAULT_REPS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_counterexample)


@_subcommand("example1", help="perturbed-normal sup-distance exponent study")
def _example1_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="perturbation power")
    p.add_argument(
        "--eps-grid", type=_floats, default=None, help="perturbation amplitudes"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_example1)


_SCORING = (
    "Scores the standardized statistic against the adjusted law of order "
    "--order or --target-alpha."
)


# the checks take no --target, which would otherwise abbreviate --target-alpha
@_subcommand(
    "cf-check",
    allow_abbrev=False,
    help="characteristic function envelope check",
    description=f"Characteristic function envelope check.  {_SCORING}",
)
def _cf_check_flags(p: argparse.ArgumentParser) -> None:
    _add_experiment_flags(p)
    p.add_argument(
        "--t-grid", type=_floats, default=None, help="transform arguments, |t| <= 6"
    )
    _add_output_flags(p)
    p.set_defaults(
        handler=_cmd_cf_check, target="adjusted", estimator="standardized"
    )


@_subcommand(
    "smooth-check",
    allow_abbrev=False,
    help="smooth-function expectation check",
    description=f"Smooth-function expectation check.  {_SCORING}",
)
def _smooth_check_flags(p: argparse.ArgumentParser) -> None:
    _add_experiment_flags(p)
    p.add_argument(
        "--function",
        default="cos",
        help="test integrand id: cos[:omega], gauss, const[:c]",
    )
    _add_output_flags(p)
    p.set_defaults(
        handler=_cmd_smooth_check, target="adjusted", estimator="standardized"
    )


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``command`` alone.

    A one-subcommand parser parses, documents and refuses that subcommand's
    arguments as the full parser does; only the top-level usage and help,
    which list the subcommands, differ, so ``main`` reports top-level errors
    with the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="ustatlab",
        description="U-statistic decompositions, adjusted normal targets, and "
        "Monte Carlo rate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS if command is None else (command,):
        parser_kwargs, add_flags = _SUBCOMMANDS[name]
        add_flags(sub.add_parser(name, **parser_kwargs))
    return parser


@functools.cache
def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per process and subcommand for
    a process that runs many commands.  Parsing leaves a parser as it was,
    and every default it holds is immutable, so one parser serves every
    call."""
    return build_parser(command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the named subcommand's parser is built; anything else (no
    # arguments, -h, an unknown command) needs the full one.
    parser = _parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args, extras = parser.parse_known_args(argv)
    if extras:
        # the top-level parser refuses them, with every subcommand in its usage
        args = _parser().parse_args(argv)
    try:
        if args.out is not None:
            exper.refuse_existing(args.out_paths(args.out), args.force)
        payload, summary = args.handler(args)
        if args.out is None:
            sys.stdout.write(exper.json_text(payload))
        else:
            args.write(payload, args.out, force=args.force)
        print(summary, file=sys.stderr)
        return 0
    except IncompatibleOptions as exc:
        _parser().error(str(exc))
    except (UStatError, FileExistsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
