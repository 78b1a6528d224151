"""Command line contract tests.

Most tests run in-process through cli.main(argv) so exit codes, stdout
payloads, and stderr summaries can be checked directly.  The last two start
child processes: one compares with commands run each in its own process, the
other sees which modules a process running the benchmark's commands loads.
"""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ustatlab import cli, hoeffding, model

SUBCOMMANDS = list(cli._SUBCOMMANDS)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    return json.loads(out), err


# ---------------------------------------------------------------------------
# Usage contract
# ---------------------------------------------------------------------------

def test_top_level_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ustatlab ")
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ustatlab {sub} ")


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def _readme_commands() -> list[str]:
    """Every ``ustatlab ...`` line of the README's fenced blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ustatlab "):
                commands.append(line)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    for line in commands:
        argv = shlex.split(line)[1:]
        for parser in (cli._parser(), cli._parser(argv[0])):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


def _help(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_one_subcommand_parser_has_the_full_parsers_help(capsys, sub):
    own = _help(cli.build_parser(sub), [sub, "--help"], capsys)
    assert own == _help(cli.build_parser(), [sub, "--help"], capsys)
    assert own.startswith(f"usage: ustatlab {sub} ")


def test_full_parser_lists_the_subcommands_in_order():
    usage = cli.build_parser().format_usage()
    assert "{" + ",".join(SUBCOMMANDS) + "}" in usage


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--kernel", "variance", "--dist", "exponential", "--n", "8",
          "--reps", "2000", "--estimator", "studentized", "--target", "adjusted"],
         "ustatlab: error: the studentized estimator has no adjusted target; use phi\n"),
        (["oracle", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "4", "--bogus"],
         "ustatlab: error: unrecognized arguments: --bogus\n"),
    ],
    ids=["incompatible-options", "unrecognized-arguments"],
)
def test_top_level_errors_print_every_subcommand_in_the_usage(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cli.build_parser().format_usage() + message


def test_main_builds_only_the_named_subcommands_parser(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            rc, _, err = run_cli(capsys, ["approx-eval", "--kappa", "0.1"])
            assert rc == 0, err
        assert added == ["approx-eval"]
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert added[1:] == SUBCOMMANDS
    finally:
        cli._parser.cache_clear()


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--kernel", "gini", "--dist", "bernoulli:0.3",
                  "--n", "4", "--bogus"])
    assert exc.value.code == 2


def test_malformed_float_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx-eval", "--kappa", "0,zebra"])
    assert exc.value.code == 2
    assert "comma-separated floats" in capsys.readouterr().err


def test_n_and_n_grid_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--kernel", "variance", "--dist", "normal",
                  "--n", "8", "--n-grid", "8,16"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_gini_bernoulli_linear_coefficient_is_zero(capsys):
    payload, err = run_json(capsys, [
        "oracle", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "4",
    ])
    report = payload["report"]
    assert report["kappa"][0] == 0.0
    assert report["prob_total"] == pytest.approx(1.0, abs=1e-12)
    assert err.startswith("oracle")


def test_oracle_u_only_reports_raw_law(capsys):
    payload, _ = run_json(capsys, [
        "oracle", "--kernel", "variance", "--dist", "bernoulli:0.5",
        "--n", "2", "--u-only",
    ])
    assert payload["u_atoms"] == [0.0, 0.5]
    assert payload["u_probs"] == [0.5, 0.5]
    assert payload["theta"] == pytest.approx(0.25)


def test_oracle_budget_overflow_is_runtime_error(capsys):
    rc, out, err = run_cli(capsys, [
        "oracle", "--kernel", "variance", "--dist", "bernoulli:0.3",
        "--n", "40", "--budget", "10",
    ])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_preset_null_case_is_close_to_normal(capsys):
    payload, err = run_json(capsys, [
        "simulate", "--preset", "sec63", "--eps", "0", "--n", "64",
        "--reps", "10000", "--target", "phi",
    ])
    rows = payload["rows"]
    assert len(rows) == 1
    assert rows[0]["n"] == 64
    assert rows[0]["distance"] <= 0.016
    assert payload["config"]["kernel"] == "quadratic:0.0"
    assert payload["config"]["dist"] == "normal"
    assert "simulate" in err


def test_simulate_rejects_sample_size_below_kernel_order(capsys):
    rc, out, err = run_cli(capsys, [
        "simulate", "--kernel", "variance", "--dist", "normal",
        "--n", "1", "--reps", "2000",
    ])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "n must be >= kernel order" in err


@pytest.mark.parametrize("target", ["adjusted", "edgeworth2"])
def test_simulate_studentized_with_corrected_target_is_usage_error(capsys, target):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--kernel", "variance", "--dist", "exponential",
                  "--n", "8", "--reps", "2000", "--estimator", "studentized",
                  "--target", target])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "studentized estimator has no" in captured.err


@pytest.mark.parametrize("command", ["cf-check", "smooth-check"])
@pytest.mark.parametrize(
    "option",
    [["--estimator", "studentized"], ["--target", "edgeworth2"]],
    ids=["studentized", "edgeworth2"],
)
def test_adjusted_law_checks_refuse_ignored_options(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--kernel", "variance", "--dist", "exponential",
                  "--n-grid", "8,16", "--reps", "1000", *option])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize(
    "options",
    [["--order", "5"], ["--target", "edgeworth2", "--target-alpha", "1.5"]],
    ids=["phi-order", "edgeworth2-alpha"],
)
def test_simulate_refuses_adjusted_options_on_other_targets(capsys, options):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--kernel", "variance", "--dist", "exponential",
                  "--n-grid", "8,16", "--reps", "1000", *options])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--order and --target-alpha set the adjusted target" in captured.err


@pytest.mark.parametrize("command", ["simulate", "cf-check", "smooth-check"])
@pytest.mark.parametrize(
    "options, message",
    [
        (["--kernel", "variance", "--dist", "normal", "--eps", "0.7"],
         "--eps sets the coupling strength of --preset; give --preset too"),
        (["--preset", "quadratic", "--kernel", "gini", "--eps", "0.5"],
         "--preset names its own kernel; give --kernel or --preset, not both"),
    ],
    ids=["eps-without-preset", "preset-with-kernel"],
)
def test_preset_options_are_refused_rather_than_ignored(capsys, command, options, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *options, "--n", "8", "--reps", "1000"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cli.build_parser().format_usage() + f"ustatlab: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "5",
          "--inequality-alpha", "nan"],
         "--inequality-alpha sets the alpha of --inequalities; give --inequalities too"),
        (["approx-eval", "--kappa", "0,0.1", "--kernel-order", "7"],
         "--kernel-order sets the kernel order of --select-alpha; give --select-alpha too"),
    ],
    ids=["inequality-alpha", "kernel-order"],
)
def test_options_without_the_option_they_shape_are_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == cli.build_parser().format_usage() + f"ustatlab: error: {message}\n"


def test_simulate_preset_takes_its_law_from_dist(capsys):
    payload, _ = run_json(capsys, [
        "simulate", "--preset", "quadratic", "--eps", "0.5", "--dist", "exponential",
        "--n", "8", "--reps", "1000",
    ])
    assert payload["config"]["kernel"] == "quadratic:0.5"
    assert payload["config"]["dist"] == "exponential"


def test_simulate_requires_kernel_and_dist_or_preset(capsys):
    rc, out, err = run_cli(capsys, ["simulate", "--n", "8", "--reps", "2000"])
    assert rc == 1
    assert "error:" in err


def test_simulate_out_writes_csv_with_json_sidecar(capsys, tmp_path):
    out = tmp_path / "rates.csv"
    rc, stdout, err = run_cli(capsys, [
        "simulate", "--kernel", "variance", "--dist", "normal",
        "--n-grid", "8,16", "--reps", "2000", "--seed", "3",
        "--out", str(out),
    ])
    assert rc == 0
    assert stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "n,distance,se,dropped"
    assert len(lines) == 3
    sidecar = json.loads((tmp_path / "rates.json").read_text())
    assert sidecar["config"]["seed"] == 3
    assert sidecar["config"]["n_grid"] == [8, 16]
    assert "threads" not in sidecar["config"]


# ---------------------------------------------------------------------------
# approx-eval
# ---------------------------------------------------------------------------

def test_approx_eval_reports_adjusted_cdf_and_transform(capsys):
    payload, _ = run_json(capsys, [
        "approx-eval", "--kappa", "0,0.1", "--x", "0", "--t", "0",
    ])
    point = payload["points"][0]
    assert point["x"] == 0.0
    assert point["cdf"] == pytest.approx(0.5398942280401433, abs=1e-14)
    assert point["density"] > 0.0
    cf = payload["characteristic"][0]
    assert cf["re"] == pytest.approx(1.0, abs=1e-14)
    assert cf["im"] == pytest.approx(0.0, abs=1e-14)


def test_approx_eval_selects_correction_order(capsys):
    payload, _ = run_json(capsys, [
        "approx-eval", "--kappa", "0,0.1", "--select-alpha", "1.8",
        "--kernel-order", "5",
    ])
    assert payload["selected_order"] == 3


def test_approx_eval_rejects_nonfinite_coefficients(capsys):
    rc, out, err = run_cli(capsys, ["approx-eval", "--kappa", "0,nan"])
    assert rc == 1
    assert err.startswith("error:")


def test_approx_eval_is_strict_json_far_out_and_refuses_nonfinite_points(capsys, tmp_path):
    # He_(m-1)(x) and the cf polynomial overflow where phi and e^(-t^2/2) are 0
    rc, out, err = run_cli(capsys, [
        "approx-eval", "--kappa", "0,0.1", "--x=1e200,-1e200", "--t", "1e200",
    ])
    assert rc == 0, err
    payload = json.loads(out, parse_constant=pytest.fail)
    assert [(p["cdf"], p["density"]) for p in payload["points"]] == [(1.0, 0.0), (0.0, 0.0)]
    assert (payload["characteristic"][0]["re"], payload["characteristic"][0]["im"]) == (0.0, 0.0)
    for flag in (["--x", "inf"], ["--x", "nan"], ["--t", "0,inf"]):
        dest = tmp_path / "approx.json"
        rc, out, err = run_cli(capsys, ["approx-eval", "--kappa", "0,0.1", *flag,
                                        "--out", str(dest)])
        assert rc == 1 and err.startswith("error:") and out == ""
        assert not dest.exists()


# ---------------------------------------------------------------------------
# studentize
# ---------------------------------------------------------------------------

def test_studentize_inline_data_matches_hand_value(capsys):
    payload, _ = run_json(capsys, [
        "studentize", "--kernel", "product", "--theta", "1",
        "--data", "1,2,3",
    ])
    assert payload["u_stat"] == pytest.approx(11.0 / 3.0, rel=1e-12, abs=0)
    assert payload["sigma_hat_g"] == pytest.approx(math.sqrt(13.0 / 3.0), rel=1e-12, abs=0)
    want = math.sqrt(3.0) * (8.0 / 3.0) / (2.0 * math.sqrt(13.0 / 3.0))
    assert payload["value"] == pytest.approx(want, rel=1e-12, abs=0)


def test_studentize_data_file_matches_inline(capsys, tmp_path):
    data_file = tmp_path / "sample.txt"
    data_file.write_text("1.0\n2.0\n3.0\n")
    inline, _ = run_json(capsys, [
        "studentize", "--kernel", "product", "--theta", "1",
        "--data", "1,2,3",
    ])
    from_file, _ = run_json(capsys, [
        "studentize", "--kernel", "product", "--theta", "1",
        "--data-file", str(data_file),
    ])
    assert from_file == inline


@pytest.mark.parametrize(
    "text, reason", [("1.0\nabc\n3.0\n", "one number per line"), ("# no values\n", "no values")],
    ids=["non-numeric", "empty"],
)
def test_studentize_refuses_a_bad_data_file_naming_it(capsys, tmp_path, text, reason):
    data_file = tmp_path / "sample.txt"
    data_file.write_text(text)
    dest = tmp_path / "stu.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, [
            "studentize", "--kernel", "product", "--theta", "1",
            "--data-file", str(data_file), "--out", str(dest),
        ])
    assert caught == []
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(data_file) in err and reason in err
    assert not dest.exists()


def test_studentize_data_file_keeps_comments_and_names_a_missing_file(capsys, tmp_path):
    data_file = tmp_path / "sample.txt"
    data_file.write_text("# a sample\n1.0\n2.0  # second\n3.0\n")
    payload, _ = run_json(capsys, [
        "studentize", "--kernel", "product", "--theta", "1", "--data-file", str(data_file),
    ])
    assert payload["config"]["n"] == 3
    rc, out, err = run_cli(capsys, [
        "studentize", "--kernel", "product", "--theta", "1",
        "--data-file", str(tmp_path / "missing.txt"),
    ])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "missing.txt" in err


def test_studentize_zero_variance_is_runtime_error(capsys):
    rc, out, err = run_cli(capsys, [
        "studentize", "--kernel", "variance", "--theta", "0",
        "--data", "2,2,2,2",
    ])
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "kernel, data", [("gini", "1e308,-1e308,1e308"), ("variance", "1e200,-1e200,3")]
)
def test_studentize_refuses_overflow_naming_the_data(capsys, tmp_path, kernel, data):
    dest = tmp_path / "stu.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, [
            "studentize", "--kernel", kernel, "--theta", "0", "--data", data,
            "--out", str(dest),
        ])
    assert caught == []
    assert rc == 1 and out == ""
    assert err.startswith("error: overflow")
    assert f"largest |x| = {float(data.split(',')[0]):.6g}" in err
    assert not dest.exists()


# ---------------------------------------------------------------------------
# decompose and moments
# ---------------------------------------------------------------------------

def test_decompose_evaluation_splits_the_statistic(capsys):
    payload, _ = run_json(capsys, [
        "decompose", "--kernel", "variance", "--dist", "bernoulli:0.3",
        "--n", "4", "--data", "0,1,0,1",
    ])
    assert payload["kappa"][0] == 0.0
    ev = payload["evaluation"]
    assert ev["value"] == pytest.approx(ev["linear_part"] + ev["remainder"], rel=1e-9, abs=0)
    d = hoeffding.decompose(
        model.kernel_preset("variance"),
        model.distribution_preset("bernoulli:0.3"),
        4,
    )
    assert payload["theta"] == d.theta
    assert payload["sigma_g"] == d.sigma_g


def test_moments_with_inequalities_passes_on_exact_config(capsys):
    payload, _ = run_json(capsys, [
        "moments", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "5",
        "--inequalities",
    ])
    moments = payload["moments"]
    assert moments["method"] == "exact"
    assert moments["kappa"][0] == 0.0
    assert payload["inequalities"]["all_passed"] is True
    d = hoeffding.decompose(
        model.kernel_preset("gini"),
        model.distribution_preset("bernoulli:0.3"),
        5,
    )
    assert moments["beta"] == hoeffding.beta(d)
    assert moments["gamma"] == hoeffding.gamma_var(d)


@pytest.mark.parametrize("sub", ["decompose", "moments"])
def test_analytic_zero_kappa_is_positive_zero(capsys, sub):
    # E[g(X)(X - mu)] = 0 for variance/normal, so kappa_2 is an exact zero
    payload, _ = run_json(capsys, [
        sub, "--kernel", "variance", "--dist", "normal", "--n", "10",
    ])
    kappa = payload["kappa"] if sub == "decompose" else payload["moments"]["kappa"]
    assert kappa == [0.0, 0.0]
    assert [math.copysign(1.0, v) for v in kappa] == [1.0, 1.0]


@pytest.mark.parametrize("sub", ["decompose", "moments"])
@pytest.mark.parametrize(
    "kernel, dist, strategy, size",
    [
        ("variance", "normal", "analytic", None),
        ("gini", "bernoulli:0.3", "exact", None),
        ("gini", "exponential", "quadrature", ("nodes", hoeffding.QUADRATURE_NODES)),
        ("gini", "exponential", "monte-carlo", ("inner_reps", 300)),
    ],
)
def test_config_reports_only_the_size_the_strategy_used(capsys, sub, kernel, dist, strategy, size):
    payload, _ = run_json(capsys, [
        sub, "--kernel", kernel, "--dist", dist, "--n", "10",
        "--strategy", strategy, "--inner-reps", "300",
    ])
    config = payload["config"]
    assert config["strategy"] == strategy
    sizes = {k: config[k] for k in ("inner_reps", "nodes") if k in config}
    assert sizes == (dict([size]) if size else {})


def test_decompose_degenerate_kernel_is_runtime_error(capsys):
    rc, out, err = run_cli(capsys, [
        "decompose", "--kernel", "variance", "--dist", "bernoulli:0.5",
        "--n", "4",
    ])
    assert rc == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# counterexample, example1, cf-check, smooth-check
# ---------------------------------------------------------------------------

def test_counterexample_null_case_matches_normal_target(capsys):
    payload, err = run_json(capsys, [
        "counterexample", "--eps", "0", "--n", "16", "--reps", "2000",
    ])
    assert payload["kappa2"] == 0.0
    assert payload["dist_adjusted"] == payload["dist_phi"]
    assert err.startswith("counterexample")


def test_example1_small_grid_fits_exponent(capsys):
    payload, _ = run_json(capsys, [
        "example1", "--a", "0.45", "--eps-grid", "0.0005,0.002,0.008",
    ])
    assert payload["satisfies_bound"] is True
    assert payload["exponent"] <= payload["exponent_bound"] + 1e-9
    assert len(payload["rows"]) == 3


def test_cf_check_cli_smoke(capsys):
    payload, _ = run_json(capsys, [
        "cf-check", "--preset", "quadratic", "--eps", "0.5",
        "--n-grid", "16", "--reps", "2000", "--t-grid", "0,1",
    ])
    assert payload["config"]["target"]["kind"] == "adjusted"
    assert payload["max_ratio_by_n"]["16"] >= 0.0
    ts = [row["t"] for row in payload["rows"]]
    assert set(ts) == {0.0, 1.0}


@pytest.mark.parametrize("function", ["cos:abc", "cos:nan", "cos:inf", "const:nan", "const:inf"])
def test_smooth_check_refuses_a_nonfinite_parameter_naming_it(capsys, tmp_path, function):
    out = tmp_path / "smooth.json"
    rc, stdout, err = run_cli(capsys, [
        "smooth-check", "--kernel", "gini", "--dist", "uniform", "--n", "8",
        "--reps", "1000", "--function", function, "--out", str(out),
    ])
    assert rc == 1
    assert stdout == ""
    assert err == (f"error: smooth test function {function!r}: the parameter "
                   "after ':' must be a finite number\n")
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_moments_refuses_a_nonfinite_inequality_alpha(capsys, tmp_path, alpha):
    out = tmp_path / "moments.json"
    rc, stdout, err = run_cli(capsys, [
        "moments", "--kernel", "variance", "--dist", "bernoulli:0.3", "--n", "5",
        "--inequalities", "--inequality-alpha", alpha, "--out", str(out),
    ])
    assert rc == 1
    assert stdout == ""
    assert err == f"error: inequality alpha must be finite, got {float(alpha)!r}\n"
    assert not out.exists()


def test_moments_refuses_a_nonfinite_inequality_alpha_before_the_projection(
    capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose ran")

    monkeypatch.setattr(hoeffding, "decompose", refuse)
    rc, stdout, err = run_cli(capsys, [
        "moments", "--kernel", "gini", "--dist", "exponential", "--n", "64",
        "--inequalities", "--inequality-alpha", "nan",
    ])
    assert rc == 1
    assert stdout == ""
    assert err == "error: inequality alpha must be finite, got nan\n"


@pytest.mark.parametrize(
    "function, reason",
    [
        ("cos:1e300", "its derivative sup-norms overflow"),
        ("cos:1e60", "its derivative sup-norms overflow"),
        ("const:1e308", "its sample mean or its SE is not finite"),
        ("const:1e300", "its sample mean or its SE is not finite"),
    ],
)
def test_smooth_check_refuses_a_function_that_overflows_naming_it(
    capsys, tmp_path, function, reason
):
    out = tmp_path / "smooth.json"
    rc, stdout, err = run_cli(capsys, [
        "smooth-check", "--kernel", "gini", "--dist", "uniform", "--n", "8",
        "--reps", "1000", "--function", function, "--out", str(out),
    ])
    assert rc == 1
    assert stdout == ""
    assert err == f"error: smooth test function {function!r}: {reason}\n"
    assert not out.exists()


def test_smooth_check_refuses_overflowing_sup_norms_before_sampling(capsys, monkeypatch):
    from ustatlab import exper

    def refuse(cfg):
        raise AssertionError("replicates were drawn")

    monkeypatch.setattr(exper, "_replicates", refuse)
    rc, _, err = run_cli(capsys, [
        "smooth-check", "--kernel", "gini", "--dist", "uniform", "--n", "8",
        "--reps", "1000", "--function", "cos:1e300",
    ])
    assert rc == 1
    assert err == "error: smooth test function 'cos:1e300': its derivative sup-norms overflow\n"


def test_smooth_check_constant_function_has_zero_gap(capsys):
    payload, _ = run_json(capsys, [
        "smooth-check", "--preset", "quadratic", "--eps", "0.5",
        "--n", "16", "--reps", "2000", "--function", "const:2",
    ])
    row = payload["rows"][0]
    assert row["lhs"] == 0.0


# ---------------------------------------------------------------------------
# Payload key sets of the commands that are not one report
# ---------------------------------------------------------------------------

PROJECTION_KEYS = ["dist", "kernel", "n", "seed", "strategy"]
DECOMPOSE_KEYS = ["component_scales", "config", "kappa", "linear_scale", "schema", "sigma_g",
                  "theta"]
BAR_KEYS = ["beta_se", "gamma_alpha_se", "gamma_se", "kappa_se"]
MOMENT_KEYS = ["alpha", "beta", "gamma", "gamma_alpha", "gamma_alpha_components",
               "gamma_components", "kappa", "kernel_order", "method", "n"]
ORACLE_CONFIG_KEYS = ["alpha", "budget", "dist", "kernel", "n"]
EXACT_REPORT_KEYS = [
    "alpha", "beta", "component_cross", "cov_l_t", "dist", "dist_adjusted", "dist_edgeworth2",
    "dist_phi", "e_g3", "e_gg_eta", "e_tt_full", "gamma", "gamma_alpha",
    "gamma_alpha_components", "gamma_components", "kappa", "kernel", "linear_component_cross",
    "mean_s", "n", "power_cross", "prob_total", "s_atoms", "s_probs", "sigma_g", "theta",
    "tuples", "type_classes", "u_atoms", "u_probs", "var_s",
]
GINI_N4 = ["--kernel", "gini", "--n", "4", "--inner-reps", "300"]

# argv -> key set of the payload (""), and of each nested dict or first list item
CLI_KEYS = [
    (["decompose", *GINI_N4, "--dist", "bernoulli:0.3"], {
        "": DECOMPOSE_KEYS, "config": PROJECTION_KEYS, "component_scales": ["2"],
    }),
    (["decompose", *GINI_N4, "--dist", "exponential", "--data", "1,2,3,4.5"], {
        "": sorted(DECOMPOSE_KEYS + ["evaluation"]),
        "config": sorted(PROJECTION_KEYS + ["nodes"]),
        "component_scales": ["2"],
        "evaluation": ["data", "linear_part", "remainder", "value"],
    }),
    (["decompose", *GINI_N4, "--dist", "exponential", "--strategy", "monte-carlo"], {
        "": DECOMPOSE_KEYS, "config": sorted(PROJECTION_KEYS + ["inner_reps"]),
    }),
    (["moments", *GINI_N4, "--dist", "bernoulli:0.3"], {
        "": ["config", "moments", "schema"],
        "config": sorted(PROJECTION_KEYS + ["alpha"]),
        "moments": MOMENT_KEYS,
    }),
    (["moments", *GINI_N4, "--dist", "exponential", "--strategy", "monte-carlo",
      "--inequalities"], {
        "": ["config", "inequalities", "moments", "schema"],
        "config": sorted(PROJECTION_KEYS + ["alpha", "inner_reps"]),
        "moments": sorted(MOMENT_KEYS + BAR_KEYS),
        "inequalities": ["all_passed", "alpha", "items"],
        "inequalities.items": ["label", "lhs", "passed", "rhs"],
    }),
    (["approx-eval", "--kappa", "0,0.1"], {
        "": ["config", "points", "schema"], "config": ["kappa"],
        "points": ["cdf", "density", "x"],
    }),
    (["approx-eval", "--kappa", "0,0.1", "--t", "0.5,1", "--select-alpha", "1.8"], {
        "": ["characteristic", "config", "points", "schema", "selected_order"],
        "characteristic": ["im", "re", "t"],
    }),
    (["studentize", "--kernel", "gini", "--theta", "0", "--data", "1,2,3"], {
        "": ["config", "schema", "sigma_hat_g", "u_stat", "value"],
        "config": ["kernel", "n", "theta"],
    }),
    (["oracle", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "6"], {
        "": ["config", "report", "schema"], "config": ORACLE_CONFIG_KEYS,
        "report": EXACT_REPORT_KEYS, "report.power_cross": ["2"],
        "report.linear_component_cross": ["2"],
    }),
    (["oracle", "--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "6", "--u-only"], {
        "": ["config", "schema", "theta", "tuples", "type_classes", "u_atoms", "u_probs"],
        "config": ORACLE_CONFIG_KEYS,
    }),
]


@pytest.mark.parametrize("argv, keys", CLI_KEYS, ids=[" ".join(argv) for argv, _ in CLI_KEYS])
def test_cli_payload_keys_are_pinned(capsys, monkeypatch, argv, keys):
    written = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: written.append(obj) or dumps(obj, **kw))
    out, _ = run_json(capsys, argv)
    # the object handed to the JSON writer leads with the schema version
    assert len(written) == 1 and next(iter(written[0])) == "schema"
    assert out["schema"] == "v1"
    for path, want in keys.items():
        value = out
        for key in filter(None, path.split(".")):
            value = value[key]
            value = value[0] if isinstance(value, list) else value
        assert sorted(value) == want, path


# ---------------------------------------------------------------------------
# Output files and overwrite guard
# ---------------------------------------------------------------------------

def test_out_refuses_overwrite_without_force(capsys, tmp_path):
    out = tmp_path / "law.json"
    argv = ["approx-eval", "--kappa", "0,0.1", "--out", str(out)]
    rc, stdout, _ = run_cli(capsys, argv)
    assert rc == 0
    assert stdout == ""
    first = out.read_text()
    assert json.loads(first)["points"][0]["x"] == 0.0

    rc, _, err = run_cli(capsys, argv)
    assert rc == 1
    assert err.startswith("error:")
    assert "force" in err
    assert out.read_text() == first

    rc, _, _ = run_cli(capsys, argv + ["--force"])
    assert rc == 0


def test_simulate_out_refuses_overwrite_of_sidecar(capsys, tmp_path):
    out = tmp_path / "rates.csv"
    (tmp_path / "rates.json").write_text("{}\n")
    rc, _, err = run_cli(capsys, [
        "simulate", "--kernel", "variance", "--dist", "normal",
        "--n", "8", "--reps", "2000", "--out", str(out),
    ])
    assert rc == 1
    assert "force" in err
    assert not out.exists()


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_simulate_out_refuses_a_json_name(capsys, tmp_path, force):
    out = tmp_path / "rates.json"
    rc, stdout, err = run_cli(capsys, [
        "simulate", "--kernel", "variance", "--dist", "normal",
        "--n", "8", "--reps", "2000", "--out", str(out), *force,
    ])
    assert rc == 1 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "rates.json" in err and "exists" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Thread configuration
# ---------------------------------------------------------------------------

def test_thread_default_comes_from_environment(capsys, monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)
    assert cli._default_threads() == 1
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "4")
    assert cli._default_threads() == 4
    assert cli._resolve_threads(None) == 4
    assert cli._resolve_threads(2) == 2
    # a malformed value is refused as the same --threads value is, naming
    # the variable: not an integer is a usage error, below 1 a runtime error
    argv = ["counterexample", "--eps", "0.5", "--n", "10", "--reps", "1000"]
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "zebra")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"{cli.THREADS_ENV_VAR}: invalid int value: 'zebra'" in capsys.readouterr().err
    for raw in ("0", "-2"):
        monkeypatch.setenv(cli.THREADS_ENV_VAR, raw)
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (1, "")
        assert "threads must be at least 1" in err and f"{cli.THREADS_ENV_VAR}={raw}" in err
    # --threads overrides the variable, malformed or not
    rc, _, err = run_cli(capsys, argv + ["--threads", "1"])
    assert rc == 0, err


def test_thread_count_keeps_payload_bytes_stable(capsys, monkeypatch):
    argv = ["counterexample", "--eps", "0.25", "--n", "9",
            "--reps", "8192", "--seed", "5"]
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)
    rc, single, _ = run_cli(capsys, argv + ["--threads", "1"])
    assert rc == 0
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "3")
    rc, threaded, _ = run_cli(capsys, argv)
    assert rc == 0
    assert threaded == single


# ---------------------------------------------------------------------------
# One process, many commands
# ---------------------------------------------------------------------------

def _subprocess_env() -> dict:
    """The environment of a child that imports this checkout's ustatlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cached_parser_keeps_calls_independent(capsys, tmp_path):
    # approx-eval twice around other commands: the default --x of the cached
    # parser must come back unchanged
    commands = [
        ["approx-eval", "--kappa", "0.1,0.02"],
        ["approx-eval", "--kappa", "0.3", "--x=-1,2.5", "--t", "0.5"],
        ["oracle", "--kernel", "variance", "--dist", "uniform-atoms:-1,0,1", "--n", "5"],
        ["approx-eval", "--kappa", "0.1,0.02"],
    ]
    assert cli._parser() is cli._parser()
    in_process = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"one-{i}.json"
        rc, _, err = run_cli(capsys, argv + ["--out", str(out)])
        assert rc == 0, err
        in_process.append(out.read_bytes())
    assert in_process[3] == in_process[0]
    for i, argv in enumerate(commands[:3]):
        out = tmp_path / f"own-{i}.json"
        subprocess.run(
            [sys.executable, "-m", "ustatlab.cli", *argv, "--out", str(out)],
            env=_subprocess_env(), check=True, capture_output=True, timeout=120,
        )
        assert out.read_bytes() == in_process[i], argv


_SCIPY_FREE_CHILD = """
import json, sys
import ustatlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    if ustatlab.cli.main(argv) != 0:
        raise SystemExit(f"{name} failed")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_benchmark_commands_load_no_scipy(tmp_path):
    # scipy takes longer to import than these commands take to run; each
    # shape the benchmark runs must do without it
    def out(stem):
        return ["--out", str(tmp_path / stem)]

    rate = ["simulate", "--kernel", "variance", "--dist", "exponential",
            "--n-grid", "8,16", "--reps", "1000", "--seed", "1", "--threads", "2"]
    commands = [
        ("simulate", rate + out("std.csv")),
        ("studentized", rate + ["--estimator", "studentized"] + out("stu.csv")),
        ("counterexample", ["counterexample", "--eps", "0.5", "--n", "25", "--reps", "1000",
                            "--seed", "1", "--threads", "2"] + out("cex.json")),
        ("moments", ["moments", "--kernel", "gini", "--dist", "exponential", "--n", "64",
                     "--strategy", "monte-carlo", "--inner-reps", "200", "--seed", "1"]
         + out("mom.json")),
        ("adjusted", ["simulate", "--kernel", "gini", "--dist", "exponential",
                      "--n-grid", "16", "--reps", "1000", "--target", "adjusted",
                      "--seed", "1", "--threads", "1"] + out("adj.csv")),
        ("oracle_variance", ["oracle", "--kernel", "variance", "--dist",
                             "uniform-atoms:-1,0,1", "--n", "12"] + out("orv.json")),
        ("oracle_gini", ["oracle", "--kernel", "gini", "--dist", "bernoulli:0.3",
                         "--n", "16"] + out("org.json")),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CHILD, json.dumps(commands)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert list(loaded) == ["import"] + [name for name, _ in commands]
    assert loaded == {name: [] for name in loaded}


_SCIPY_BLOCKED_CHILD = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import ustatlab.cli

for argv in json.loads(sys.argv[1]):
    if ustatlab.cli.main(argv) != 0:
        raise SystemExit(f"{argv} failed")
"""


def test_continuous_projections_run_with_scipy_blocked(tmp_path):
    # the analytic E|g|^q of a kernel with a square term and the normal
    # quantile of quadrature both run on numpy alone
    commands = [
        ["moments", "--kernel", "variance", "--dist", law, "--n", "25"]
        for law in ("exponential", "normal", "uniform")
    ] + [
        [sub, "--kernel", "gini", "--dist", "normal", "--n", "64"]
        for sub in ("moments", "decompose")
    ]
    commands = [argv + ["--out", str(tmp_path / f"{i}.json")] for i, argv in enumerate(commands)]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_CHILD, json.dumps(commands)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / f"{i}.json").is_file() for i in range(len(commands)))
