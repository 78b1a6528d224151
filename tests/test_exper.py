"""Experiment engine tests: simulation, rate fits, studies, report files."""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from ustatlab import approx, exper, hoeffding, model, studentize
from ustatlab.errors import (
    ConfigError,
    FitError,
    IncompatibleOptions,
    InsufficientSample,
    PresetError,
    ValidationError,
)


def small_config(**kw):
    base = dict(
        kernel="quadratic:0.5",
        dist="normal",
        n_grid=(8, 16, 32),
        reps=2000,
        seed=1,
    )
    base.update(kw)
    return exper.ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Row evaluators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "ident", ["variance", "gini", "product", "quadratic:0.7"]
)
def test_row_u_fast_paths_match_reference(ident):
    kernel = model.kernel_preset(ident)
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(40, 7))
    fast = exper._row_u_values(kernel, rows)
    want = np.array([model.u_statistic(kernel, row) for row in rows])
    np.testing.assert_allclose(fast, want, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize(
    "ident", ["variance", "gini", "product", "quadratic:0.3"]
)
def test_row_jackknife_fast_paths_match_reference(ident):
    kernel = model.kernel_preset(ident)
    rng = np.random.default_rng(3)
    rows = rng.exponential(size=(30, 9))
    u, var_hat = exper._row_jackknife_stats(kernel, rows)
    for r in range(rows.shape[0]):
        assert u[r] == pytest.approx(model.u_statistic(kernel, rows[r]), rel=1e-11)
        assert var_hat[r] == pytest.approx(
            studentize.jackknife_variance(kernel, rows[r]), rel=1e-10
        )


def test_row_jackknife_needs_three_points():
    with pytest.raises(InsufficientSample):
        exper._row_jackknife_stats(model.variance_kernel(), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_grid=())
    with pytest.raises(ConfigError):
        small_config(n_grid=(16, 8))
    with pytest.raises(ConfigError):
        small_config(n_grid=(8, 8))
    with pytest.raises(ConfigError):
        small_config(reps=10)
    with pytest.raises(ConfigError):
        small_config(estimator="bootstrap")
    with pytest.raises(ConfigError):
        small_config(threads=0)
    with pytest.raises(ConfigError):
        exper.TargetSpec(kind="wrong")
    with pytest.raises(ConfigError):
        exper.TargetSpec(order=-1)


def test_config_json_excludes_threads():
    cfg = small_config(threads=8)
    payload = cfg.to_json()
    assert "threads" not in payload
    assert payload["schema"] == exper.SCHEMA_VERSION
    assert payload["kernel"] == "quadratic:0.5"
    assert payload["target"]["kind"] == "phi"


def test_resolve_errors():
    with pytest.raises(InsufficientSample, match="n must be >= kernel order"):
        exper._resolve(small_config(n_grid=(1, 8)))
    with pytest.raises(ConfigError, match="n >= 3"):
        exper._resolve(small_config(n_grid=(2, 8), estimator="studentized"))


@pytest.mark.parametrize("kind", ["adjusted", "edgeworth2"])
def test_studentized_estimator_refuses_corrected_targets(kind):
    # both corrected laws expand the standardized statistic, not the studentized one
    with pytest.raises(ConfigError, match="studentized"):
        small_config(estimator="studentized", target=exper.TargetSpec(kind))
    assert small_config(estimator="standardized", target=exper.TargetSpec(kind))


@pytest.mark.parametrize(
    "check",
    [
        lambda cfg: exper.char_function_check(cfg, (1.0,)),
        lambda cfg: exper.smooth_function_check(cfg, "cos"),
    ],
    ids=["cf", "smooth"],
)
@pytest.mark.parametrize(
    "options",
    [
        {"estimator": "studentized"},
        {"target": exper.TargetSpec("edgeworth2")},
    ],
    ids=["studentized", "edgeworth2"],
)
def test_adjusted_law_checks_refuse_ignored_options(monkeypatch, check, options):
    # both checks score the standardized statistic against the adjusted law
    def no_sampling(*args, **kw):
        raise AssertionError("replicates drawn before the refusal")

    monkeypatch.setattr(model, "sample", no_sampling)
    cfg = small_config(kernel="variance", dist="exponential", **options)
    with pytest.raises(IncompatibleOptions):
        check(cfg)


@pytest.mark.parametrize("kind", ["phi", "edgeworth2"])
@pytest.mark.parametrize("options", [{"order": 1}, {"alpha": 1.5}], ids=["order", "alpha"])
def test_rate_experiment_refuses_adjusted_options_on_other_targets(
    monkeypatch, kind, options
):
    # order and alpha shape only the adjusted law; the others would ignore them
    def no_sampling(*args, **kw):
        raise AssertionError("replicates drawn before the refusal")

    monkeypatch.setattr(model, "sample", no_sampling)
    target = exper.TargetSpec(kind, **options)
    cfg = small_config(kernel="variance", dist="exponential", target=target)
    with pytest.raises(IncompatibleOptions, match="adjusted target"):
        exper.run_ecdf_experiment(cfg)


# ---------------------------------------------------------------------------
# Rate fits
# ---------------------------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    xs = [8.0, 16.0, 32.0, 64.0, 128.0]
    ds = [3.0 * x ** -0.5 for x in xs]
    slope, intercept, r2 = exper.fit_rate(xs, ds)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_with_noise():
    rng = np.random.default_rng(7)
    xs = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    ds = [x ** -0.5 * float(np.exp(rng.uniform(-0.05, 0.05))) for x in xs]
    slope, _, r2 = exper.fit_rate(xs, ds)
    assert slope == pytest.approx(-0.5, abs=0.08)
    assert r2 > 0.98


def test_fit_rate_zero_distance_warns_and_excludes():
    with pytest.warns(UserWarning, match="zero distance"):
        slope, _, _ = exper.fit_rate(
            [8.0, 16.0, 32.0, 64.0], [0.0, 0.5, 0.25, 0.125]
        )
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_fit_rate_errors():
    with pytest.raises(FitError):
        exper.fit_rate([8.0, 16.0], [0.5, 0.25])
    with pytest.warns(UserWarning):
        with pytest.raises(FitError):
            exper.fit_rate([8.0, 16.0, 32.0], [0.0, 0.5, 0.25])
    with pytest.raises(FitError):
        exper.fit_rate([8.0, 8.0, 8.0], [0.5, 0.5, 0.5])
    with pytest.raises(ValidationError):
        exper.fit_rate([8.0, 16.0, 32.0], [0.5, -0.1, 0.25])


# ---------------------------------------------------------------------------
# Simulation experiments
# ---------------------------------------------------------------------------

def test_run_ecdf_experiment_small():
    report = exper.run_ecdf_experiment(small_config())
    assert len(report.rows) == 3
    for row in report.rows:
        assert 0.0 <= row.distance <= 1.0
        assert row.se == pytest.approx(approx.dkw_se(2000))
        assert row.dropped == 0
    assert report.slope is not None
    assert set(report.kappa_by_n) == {8, 16, 32}
    payload = report.to_json()
    assert payload["schema"] == exper.SCHEMA_VERSION
    assert payload["fit"]["slope"] == report.slope
    assert "threads" not in payload["config"]


def test_null_configuration_is_exactly_normal():
    # eps = 0 makes the statistic a scaled iid mean of normals
    cfg = exper.ExperimentConfig(
        kernel="quadratic:0.0", dist="normal", n_grid=(16,), reps=2000, seed=3
    )
    report = exper.run_ecdf_experiment(cfg)
    assert report.slope is None
    assert report.rows[0].distance <= approx.dkw_bound(2000, 0.001)


def test_studentized_estimator_small():
    cfg = exper.ExperimentConfig(
        kernel="variance",
        dist="normal",
        n_grid=(8, 16),
        reps=2000,
        seed=2,
        estimator="studentized",
    )
    report = exper.run_ecdf_experiment(cfg)
    assert all(row.dropped == 0 for row in report.rows)
    assert all(row.distance < 0.25 for row in report.rows)


def test_adjusted_target_uses_selected_order():
    cfg = small_config(target=exper.TargetSpec(kind="adjusted", alpha=1.4))
    d = exper._resolve(cfg)[16]
    # alpha = 1.4 selects order 0, so the adjusted target collapses to phi
    target = exper._target(d, cfg)
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        approx.adjusted_cdf(target, x), approx.normal_cdf(x), atol=1e-15
    )
    with pytest.raises(ConfigError):
        exper._adjusted_order(small_config(target=exper.TargetSpec(order=3)), 2)


def test_edgeworth_target_runs():
    cfg = exper.ExperimentConfig(
        kernel="variance",
        dist="exponential",
        n_grid=(16,),
        reps=2000,
        seed=5,
        target=exper.TargetSpec(kind="edgeworth2"),
    )
    report = exper.run_ecdf_experiment(cfg)
    assert 0.0 < report.rows[0].distance < 0.5


def test_thread_count_leaves_reports_byte_identical():
    cfg1 = small_config(n_grid=(8, 16), reps=6000, threads=1)
    cfg4 = small_config(n_grid=(8, 16), reps=6000, threads=4)
    rep1 = exper.run_ecdf_experiment(cfg1)
    rep4 = exper.run_ecdf_experiment(cfg4)
    assert exper.rate_csv_text(rep1) == exper.rate_csv_text(rep4)
    assert exper.json_text(rep1.to_json()) == exper.json_text(rep4.to_json())


def test_rerun_is_deterministic():
    cfg = small_config(n_grid=(8,), reps=2000)
    a = exper.run_ecdf_experiment(cfg)
    b = exper.run_ecdf_experiment(cfg)
    assert exper.json_text(a.to_json()) == exper.json_text(b.to_json())


def test_studentized_reports_byte_identical_across_threads():
    base = dict(
        kernel="variance",
        dist="exponential",
        n_grid=(8, 16),
        reps=9000,
        seed=6,
        estimator="studentized",
    )
    rep1 = exper.run_ecdf_experiment(exper.ExperimentConfig(**base, threads=1))
    rep2 = exper.run_ecdf_experiment(exper.ExperimentConfig(**base, threads=2))
    assert exper.rate_csv_text(rep1) == exper.rate_csv_text(rep2)
    assert exper.json_text(rep1.to_json()) == exper.json_text(rep2.to_json())


def test_replicate_rows_are_chunk_stream_blocks(monkeypatch):
    # replicate c * CHUNK_REPLICATES + j is row j of one block drawn from
    # stream c; the last chunk here is short
    cfg = small_config(n_grid=(8,), reps=exper.CHUNK_REPLICATES + 37)
    d = exper._resolve(cfg)[8]
    scored = []
    row_u = exper._row_u_values

    def capture(kernel, rows):
        scored.append(rows.copy())
        return row_u(kernel, rows)

    monkeypatch.setattr(exper, "_row_u_values", capture)
    values, dropped = exper._simulate_statistic(
        d, cfg.reps, cfg.seed, "standardized", 1
    )
    assert values.size == cfg.reps and dropped == 0
    assert [rows.shape[0] for rows in scored] == [exper.CHUNK_REPLICATES, 37]
    for c, rows in enumerate(scored):
        m = rows.shape[0]
        want = model.sample(d.dist, m * 8, cfg.seed, c).reshape(m, 8)
        np.testing.assert_array_equal(rows, want)


@pytest.mark.parametrize("estimator", ["standardized", "studentized"])
def test_one_generator_per_chunk(monkeypatch, estimator):
    cfg = small_config(
        kernel="variance", n_grid=(8, 16), reps=9000, estimator=estimator
    )
    decs = exper._resolve(cfg)
    calls = []
    make = model.stream_generator

    def counting(seed, stream=0):
        calls.append(stream)
        return make(seed, stream)

    monkeypatch.setattr(model, "stream_generator", counting)
    for n in cfg.n_grid:
        calls.clear()
        exper._simulate_statistic(decs[n], cfg.reps, cfg.seed, estimator, 2)
        chunks = math.ceil(cfg.reps / exper.CHUNK_REPLICATES)
        assert sorted(calls) == list(range(chunks))


def test_experiment_shares_one_projection_across_n(monkeypatch):
    projections, cells, streams = [], [], []
    kernel_values, sample = model.kernel_values, model.sample
    override = {"strategy": "monte-carlo", "inner_reps": 200}

    class SmallProjection(hoeffding.ProjectionSet):
        def __init__(self, *args, **kw):
            projections.append(self)
            super().__init__(*args, **{**kw, **override})

    def counting_kernel(kernel, columns):
        out = kernel_values(kernel, columns)
        cells.append(out.size)
        return out

    def counting_sample(dist, n, seed, stream=0):
        streams.append(stream)
        return sample(dist, n, seed, stream)

    monkeypatch.setattr(hoeffding, "ProjectionSet", SmallProjection)
    monkeypatch.setattr(model, "kernel_values", counting_kernel)
    monkeypatch.setattr(model, "sample", counting_sample)
    adjusted = exper.TargetSpec("adjusted")
    exper.run_ecdf_experiment(small_config(kernel="gini", dist="uniform", target=adjusted))
    assert len(projections) == 1
    # the kappa_2 integral draws its two columns from these streams
    kappa2 = hoeffding.STREAM_MOMENT_BASE + 128
    assert streams.count(kappa2) == streams.count(kappa2 + 1) == 1
    grid_cells = sum(cells)
    cells.clear()
    exper.run_ecdf_experiment(
        small_config(kernel="gini", dist="uniform", target=adjusted, n_grid=(8,))
    )
    # no kernel cell depends on n: three sample sizes cost what one does
    assert grid_cells == sum(cells)

    # the same under auto, which picks quadrature for gini/uniform
    override.clear()
    projections.clear()
    cells.clear()
    exper.run_ecdf_experiment(small_config(kernel="gini", dist="uniform", target=adjusted))
    assert [p.strategy for p in projections] == ["quadrature"]
    grid_cells = sum(cells)
    # the kernel is tabulated once at each of the two rules
    nodes = hoeffding.QUADRATURE_NODES
    assert grid_cells == nodes**2 + (nodes // 2) ** 2
    cells.clear()
    exper.run_ecdf_experiment(
        small_config(kernel="gini", dist="uniform", target=adjusted, n_grid=(8,))
    )
    assert grid_cells == sum(cells)


def test_gini_uniform_rate_with_quadrature_centering():
    # Monte Carlo centering (theta off by 4e-3) made this slope +0.47; the
    # quadrature theta is off by 3e-7, far below what 50k replicates resolve
    cfg = exper.ExperimentConfig("gini", "uniform", (16, 64, 256, 1024), 50_000, seed=0)
    report = exper.run_ecdf_experiment(cfg)
    assert -0.65 <= report.slope <= -0.35


# ---------------------------------------------------------------------------
# Quadratic comparator study
# ---------------------------------------------------------------------------

def test_counterexample_null_case_collapses_to_phi():
    study = exper.quadratic_counterexample(0.0, 16, reps=2000, seed=4)
    assert study.kappa2 == 0.0
    assert study.gamma == 0.0
    assert study.dist_adjusted == study.dist_phi


def test_counterexample_adjustment_wins_at_smoke_scale():
    study = exper.quadratic_counterexample(0.5, 25, reps=20_000, seed=0)
    assert study.kappa2 == pytest.approx(0.1, abs=1e-13)
    assert study.gamma == pytest.approx(2.0 * 0.25 / 24.0, abs=1e-13)
    pooled = math.sqrt(2.0) * study.se
    assert study.dist_phi - study.dist_adjusted > 3.0 * pooled
    payload = study.to_json()
    assert payload["eps"] == 0.5
    assert payload["dist_phi"] == study.dist_phi


def test_counterexample_validation():
    with pytest.raises(ConfigError):
        exper.quadratic_counterexample(1.5, 16, reps=2000)
    with pytest.raises(ConfigError):
        exper.quadratic_counterexample(0.5, 1, reps=2000)
    with pytest.raises(ConfigError):
        exper.quadratic_counterexample(0.5, 16, reps=10)


# ---------------------------------------------------------------------------
# Perturbed-normal study
# ---------------------------------------------------------------------------

def test_perturbed_cdf_is_a_distribution_function():
    xs = np.linspace(-8.0, 8.0, 801)
    F = exper.perturbed_normal_cdf(xs, eps=0.01, a=0.45)
    assert np.all(F >= -1e-12) and np.all(F <= 1.0 + 1e-12)
    assert np.all(np.diff(F) >= -1e-12)
    assert F[0] < 1e-4 and F[-1] > 1 - 1e-4


def test_perturbed_cdf_matches_monte_carlo():
    eps, a = 0.01, 0.45
    rng = np.random.default_rng(10)
    z = rng.normal(size=200_000)
    c_a = model.gaussian_abs_moment(-a)
    w = z - eps * (np.abs(z) ** (-a) - c_a)
    d = approx.kolmogorov_distance(
        w, lambda x: exper.perturbed_normal_cdf(x, eps, a)
    )
    assert d <= approx.dkw_bound(200_000, 0.001)


def test_perturbed_cdf_matches_monte_carlo_large_amplitude():
    eps, a = 0.2, 0.25
    rng = np.random.default_rng(11)
    z = rng.normal(size=100_000)
    c_a = model.gaussian_abs_moment(-a)
    w = z - eps * (np.abs(z) ** (-a) - c_a)
    d = approx.kolmogorov_distance(
        w, lambda x: exper.perturbed_normal_cdf(x, eps, a)
    )
    assert d <= approx.dkw_bound(100_000, 0.001)


def test_perturbed_cdf_validation():
    with pytest.raises(ValidationError):
        exper.perturbed_normal_cdf(0.0, eps=0.01, a=0.6)
    with pytest.raises(ValidationError):
        exper.perturbed_normal_cdf(0.0, eps=0.0, a=0.45)


def test_perturbed_variance_increment_matches_quadrature():
    a = 0.45
    c_a = model.gaussian_abs_moment(-a)
    want_raw, _ = integrate.quad(
        lambda z: (abs(z) ** (-a) - c_a) ** 2
        * math.exp(-z * z / 2.0)
        / math.sqrt(2.0 * math.pi),
        -10.0,
        10.0,
        points=[0.0],
        limit=400,
    )
    report = exper.perturbed_normal_study(a, eps_grid=(1e-4, 1e-3, 1e-2))
    for row in report.rows:
        assert row.delta_var == pytest.approx(row.eps ** 2 * want_raw, rel=1e-8)


def test_perturbed_normal_study_exponent():
    report = exper.perturbed_normal_study(0.45)
    assert report.exponent_bound == pytest.approx(1.0 / 1.45, abs=1e-12)
    assert report.satisfies_bound
    assert report.exponent == pytest.approx(0.656, abs=0.02)
    distances = [row.distance for row in report.rows]
    assert all(b > a for a, b in zip(distances, distances[1:]))
    assert report.neg_moment == pytest.approx(model.gaussian_abs_moment(-0.45))


def test_perturbed_normal_study_validation():
    with pytest.raises(ValidationError):
        exper.perturbed_normal_study(0.5)
    with pytest.raises(ConfigError):
        exper.perturbed_normal_study(0.45, eps_grid=(1e-3, 1e-2))
    with pytest.raises(ConfigError):
        exper.perturbed_normal_study(0.45, eps_grid=(0.05, 0.1, 0.5))


# ---------------------------------------------------------------------------
# Smooth-function and characteristic-function checks
# ---------------------------------------------------------------------------

def test_smooth_test_function_presets():
    cos2 = exper.smooth_test_function("cos:2")
    assert cos2.deriv_norm(3) == pytest.approx(8.0)
    assert float(cos2.fn(np.array([0.0]))[0]) == 1.0
    gauss = exper.smooth_test_function("gauss")
    assert gauss.deriv_norm(0) == 1.0
    assert gauss.deriv_norm(2) > 0.0
    const = exper.smooth_test_function("const:3")
    assert const.deriv_norm(2) == 0.0
    with pytest.raises(PresetError):
        exper.smooth_test_function("sin")
    with pytest.raises(PresetError):
        exper.smooth_test_function("cos:-1")
    with pytest.raises(PresetError):
        exper.smooth_test_function("gauss:2")


def test_smooth_check_constant_function_has_zero_gap():
    report = exper.smooth_function_check(
        small_config(n_grid=(8, 16)), "const:2"
    )
    assert report.deriv_const == 0.0
    for row in report.rows:
        assert row.lhs <= 1e-9


def test_smooth_check_cos_rows():
    report = exper.smooth_function_check(small_config(n_grid=(16,)), "cos")
    row = report.rows[0]
    d16 = exper._resolve(small_config())[16]
    assert row.scale == pytest.approx(
        hoeffding.beta(d16) + 2.0 * 0.25 / 15.0, rel=1e-10
    )
    assert row.ratio == pytest.approx(row.lhs / row.scale)
    assert 0.0 < row.se < 0.1


def test_smooth_check_cos_gap_shrinks_with_n():
    cfg = small_config(n_grid=(8, 32, 128), reps=50_000)
    report = exper.smooth_function_check(cfg, "cos")
    lhs = [row.lhs for row in report.rows]
    assert lhs[0] > lhs[-1]
    ratios = [row.ratio for row in report.rows]
    assert max(ratios) / min(ratios) <= 10.0


def test_cf_check_symmetry_and_zero():
    cfg = small_config(n_grid=(16,), reps=4000)
    report = exper.char_function_check(cfg, t_grid=(-2.0, -1.0, 0.0, 1.0, 2.0))
    by_t = {row.t: row for row in report.rows}
    assert by_t[0.0].gap == pytest.approx(0.0, abs=1e-15)
    for t in (1.0, 2.0):
        assert by_t[t].gap == pytest.approx(by_t[-t].gap, abs=1e-14)
        assert by_t[t].envelope == by_t[-t].envelope
    assert report.max_ratio_by_n[16] > 0.0
    assert report.beta_by_n[16] == pytest.approx(
        2.0 * math.sqrt(2.0 / math.pi) / 4.0, abs=1e-12
    )
    payload = report.to_json()
    assert len(payload["rows"]) == 5


def test_cf_check_validation():
    with pytest.raises(ConfigError):
        exper.char_function_check(small_config(), t_grid=())
    with pytest.raises(ConfigError):
        exper.char_function_check(small_config(), t_grid=(0.0, 7.0))


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def test_write_rate_report_and_force_guard(tmp_path):
    report = exper.run_ecdf_experiment(small_config(n_grid=(8,), reps=2000))
    csv_path, json_path = exper.write_rate_report(report, tmp_path / "rates.csv")
    assert csv_path.name == "rates.csv"
    assert json_path.name == "rates.json"
    text = csv_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,distance,se,dropped"
    n, distance, se, dropped = lines[1].split(",")
    assert int(n) == 8
    assert float(distance) == report.rows[0].distance
    assert int(dropped) == 0
    payload = json.loads(json_path.read_text())
    assert payload["config"]["kernel"] == "quadratic:0.5"
    with pytest.raises(FileExistsError, match="use force"):
        exper.write_rate_report(report, csv_path)
    exper.write_rate_report(report, csv_path, force=True)


def test_write_json_report(tmp_path):
    path = exper.write_json_report({"b": 1, "a": 2}, tmp_path / "out.json")
    text = path.read_text()
    assert text == '{\n  "a": 2,\n  "b": 1\n}\n'
    with pytest.raises(FileExistsError):
        exper.write_json_report({}, path)
