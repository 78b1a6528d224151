"""The payload encoder's rules, checked on the report classes that use them."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ustatlab import exper, hoeffding, model, oracle, payload
from ustatlab.errors import ValidationError

EXPER_REPORTS = (
    exper.ExperimentConfig,
    exper.RateReport,
    exper.ComparatorStudy,
    exper.PerturbedNormalReport,
    exper.SmoothReport,
    exper.CfReport,
)
OTHER_REPORTS = (hoeffding.MomentSummary, hoeffding.MomentInequalityReport, oracle.ExactReport)

CONFIG_KEYS = ["dist", "estimator", "kernel", "n_grid", "reps", "schema", "seed", "target"]
BY_N_KEYS = ["16", "32", "8"]

# top-level and nested key sets of each payload, as written before the encoder
KEYS = {
    "ExperimentConfig": {"": CONFIG_KEYS, "target": ["alpha", "kind", "order"]},
    "RateReport": {
        "": ["config", "fit", "kappa_by_n", "rows", "schema", "sigma_g", "theta"],
        "config": CONFIG_KEYS,
        "rows": ["distance", "dropped", "n", "se"],
        "kappa_by_n": BY_N_KEYS,
        "fit": ["intercept", "r_squared", "slope"],
    },
    "ComparatorStudy": {
        "": ["beta", "dist_adjusted", "dist_phi", "eps", "gamma", "kappa2", "n", "reps",
             "schema", "se", "seed"],
    },
    "PerturbedNormalReport": {
        "": ["a", "exponent", "exponent_bound", "neg_moment", "rows", "satisfies_bound",
             "schema"],
        "rows": ["delta_var", "distance", "eps"],
    },
    "SmoothReport": {
        "": ["config", "deriv_const", "function", "rows", "schema"],
        "config": CONFIG_KEYS,
        "rows": ["lhs", "n", "ratio", "scale", "se"],
    },
    "CfReport": {
        "": ["beta_by_n", "config", "gamma_by_n", "kappa_by_n", "max_ratio_by_n",
             "max_ratio_se_by_n", "rows", "schema"],
        "config": CONFIG_KEYS,
        "rows": ["empirical_im", "empirical_re", "envelope", "gap", "n", "se", "t",
                 "target_im", "target_re"],
        "max_ratio_by_n": BY_N_KEYS,
        "max_ratio_se_by_n": BY_N_KEYS,
        "beta_by_n": BY_N_KEYS,
        "gamma_by_n": BY_N_KEYS,
        "kappa_by_n": BY_N_KEYS,
    },
    "MomentSummary": {
        "": ["alpha", "beta", "beta_se", "gamma", "gamma_alpha", "gamma_alpha_components",
             "gamma_alpha_se", "gamma_components", "gamma_se", "kappa", "kappa_se",
             "kernel_order", "method", "n"],
    },
    "MomentInequalityReport": {
        "": ["all_passed", "alpha", "items"],
        "items": ["label", "lhs", "passed", "rhs"],
    },
    "ExactReport": {
        "": ["alpha", "beta", "component_cross", "cov_l_t", "dist", "dist_adjusted",
             "dist_edgeworth2", "dist_phi", "e_g3", "e_gg_eta", "e_tt_full", "gamma",
             "gamma_alpha", "gamma_alpha_components", "gamma_components", "kappa", "kernel",
             "linear_component_cross", "mean_s", "n", "power_cross", "prob_total",
             "s_atoms", "s_probs", "sigma_g", "theta", "tuples", "type_classes",
             "u_atoms", "u_probs", "var_s"],
        "component_cross": ["2,3"],
        "linear_component_cross": ["2", "3"],
        "power_cross": ["2", "3"],
    },
}


@pytest.fixture(scope="module")
def reports():
    cfg = exper.ExperimentConfig("variance", "exponential", (8, 16, 32), 1000, seed=0, threads=2)
    d = hoeffding.decompose(model.gini_kernel(), model.distribution_preset("exponential"), 16)
    return {
        "ExperimentConfig": cfg,
        "RateReport": exper.run_ecdf_experiment(cfg),
        "ComparatorStudy": exper.quadratic_counterexample(0.5, 10, reps=1000),
        "PerturbedNormalReport": exper.perturbed_normal_study(0.3, eps_grid=(1e-3, 3e-3, 1e-2)),
        "SmoothReport": exper.smooth_function_check(cfg, "cos"),
        "CfReport": exper.char_function_check(cfg, (0.5,)),
        "MomentSummary": hoeffding.moment_summary(d),
        "MomentInequalityReport": hoeffding.moment_inequalities(d),
        "ExactReport": oracle.exact_distribution(
            model.symmetrize(lambda a, b, c: np.abs(a - b) * c + a * b * c, 3),
            model.distribution_preset("bernoulli:0.3"),
            6,
        ),
    }


@pytest.mark.parametrize("name", sorted(KEYS))
def test_payload_keys_are_pinned(reports, name):
    out = reports[name].to_json()
    for key, want in KEYS[name].items():
        value = out[key] if key else out
        if isinstance(value, list):
            value = value[0]
        assert sorted(value) == want, key


def test_every_report_payload_is_strict_json(reports):
    for report in reports.values():
        json.loads(exper.json_text(report.to_json()), parse_constant=pytest.fail)


def test_pair_key_is_joined_with_a_comma(reports):
    rep = reports["ExactReport"]
    cross = rep.to_json()["component_cross"]
    assert cross == {"2,3": rep.component_cross[(2, 3)]}


def test_complex_field_becomes_re_and_im(reports):
    row = reports["CfReport"].rows[0]
    encoded = reports["CfReport"].to_json()["rows"][0]
    assert isinstance(row.empirical, complex)
    assert (encoded["empirical_re"], encoded["empirical_im"]) == (
        row.empirical.real, row.empirical.imag
    )
    assert "empirical" not in encoded and "target" not in encoded


def test_no_config_carries_threads(reports):
    assert reports["ExperimentConfig"].threads == 2
    configs = [r.to_json()["config"] for r in reports.values() if hasattr(r, "config")]
    assert len(configs) == 3
    assert all("threads" not in c for c in [reports["ExperimentConfig"].to_json(), *configs])


def test_schema_leads_exactly_the_experiment_reports(reports):
    assert all(cls.schema for cls in EXPER_REPORTS)
    assert not any(cls.schema for cls in OTHER_REPORTS)
    for report in reports.values():
        out = report.to_json()
        if isinstance(report, EXPER_REPORTS):
            assert next(iter(out)) == "schema"
            assert out["schema"] == payload.SCHEMA_VERSION == exper.SCHEMA_VERSION
        else:
            assert "schema" not in out
        if "config" in out:
            assert out["config"]["schema"] == payload.SCHEMA_VERSION


@pytest.mark.parametrize("dist_ident, strategy, has_bars", [
    ("exponential", "quadrature", True),
    ("bernoulli:0.3", "exact", False),
])
def test_bars_are_written_only_where_they_exist(dist_ident, strategy, has_bars):
    d = hoeffding.decompose(
        model.gini_kernel(), model.distribution_preset(dist_ident), 16, strategy=strategy
    )
    out = hoeffding.moment_summary(d).to_json()
    bars = {"beta_se", "gamma_se", "gamma_alpha_se", "kappa_se"}
    assert (bars <= set(out)) is has_bars
    assert (bars & set(out) == set()) is not has_bars


def test_all_passed_is_the_conjunction_of_the_items(reports):
    rep = reports["MomentInequalityReport"]
    assert rep.all_passed is all(item.passed for item in rep.items)
    assert rep.to_json()["all_passed"] is rep.all_passed


def test_rate_report_slope_reads_its_fit(reports):
    rep = reports["RateReport"]
    assert rep.slope == rep.fit.slope == rep.to_json()["fit"]["slope"]
    assert dataclasses.replace(rep, fit=None).slope is None


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_non_finite_numbers(value):
    with pytest.raises(ValidationError, match="not strict JSON"):
        exper.json_text({"schema": exper.SCHEMA_VERSION, "rows": [{"x": value}]})


def test_refused_rate_report_writes_no_file(reports, tmp_path):
    rep = reports["RateReport"]
    bad = dataclasses.replace(rep, theta=math.nan)
    with pytest.raises(ValidationError):
        exper.write_rate_report(bad, tmp_path / "rate.csv")
    assert list(tmp_path.iterdir()) == []
