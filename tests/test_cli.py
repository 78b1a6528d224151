"""Command line contract tests.

Everything runs in-process through cli.main(argv) so exit codes, stdout
payloads, and stderr summaries can be checked directly.
"""

import json
import math

import pytest

from ustatlab import cli, hoeffding, model

SUBCOMMANDS = [
    "decompose",
    "moments",
    "approx-eval",
    "studentize",
    "oracle",
    "simulate",
    "counterexample",
    "example1",
    "cf-check",
    "smooth-check",
]


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
    assert "usage" in capsys.readouterr().out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


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
    assert f"{command} scores" in captured.err


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


# ---------------------------------------------------------------------------
# studentize
# ---------------------------------------------------------------------------

def test_studentize_inline_data_matches_hand_value(capsys):
    payload, _ = run_json(capsys, [
        "studentize", "--kernel", "product", "--theta", "1",
        "--data", "1,2,3",
    ])
    assert payload["u_stat"] == pytest.approx(11.0 / 3.0, rel=1e-12)
    assert payload["sigma_hat_g"] == pytest.approx(math.sqrt(13.0 / 3.0), rel=1e-12)
    want = math.sqrt(3.0) * (8.0 / 3.0) / (2.0 * math.sqrt(13.0 / 3.0))
    assert payload["value"] == pytest.approx(want, rel=1e-12)


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


def test_studentize_zero_variance_is_runtime_error(capsys):
    rc, out, err = run_cli(capsys, [
        "studentize", "--kernel", "variance", "--theta", "0",
        "--data", "2,2,2,2",
    ])
    assert rc == 1
    assert err.startswith("error:")


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
    assert ev["value"] == pytest.approx(ev["linear_part"] + ev["remainder"], rel=1e-9)
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
    assert payload["max_ratio_by_n"]["16"] >= 0.0
    ts = [row["t"] for row in payload["rows"]]
    assert set(ts) == {0.0, 1.0}


def test_smooth_check_constant_function_has_zero_gap(capsys):
    payload, _ = run_json(capsys, [
        "smooth-check", "--preset", "quadratic", "--eps", "0.5",
        "--n", "16", "--reps", "2000", "--function", "const:2",
    ])
    row = payload["rows"][0]
    assert row["lhs"] <= 1e-9


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


# ---------------------------------------------------------------------------
# Thread configuration
# ---------------------------------------------------------------------------

def test_thread_default_comes_from_environment(monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)
    assert cli._default_threads() == 1
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "4")
    assert cli._default_threads() == 4
    assert cli._resolve_threads(None) == 4
    assert cli._resolve_threads(2) == 2
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "zebra")
    assert cli._default_threads() == 1
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "0")
    assert cli._default_threads() == 1


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
