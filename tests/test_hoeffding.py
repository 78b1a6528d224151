"""Decomposition and moment-functional tests."""

import dataclasses
import math

import numpy as np
import pytest

from ustatlab import hoeffding, model
from ustatlab.errors import (
    BudgetError,
    DegenerateKernel,
    InsufficientSample,
    ValidationError,
)

E_ABS_Z3 = 2.0 * math.sqrt(2.0 / math.pi)


def variance_normal(n, **kw):
    return hoeffding.decompose(
        model.variance_kernel(), model.distribution_preset("normal"), n, **kw
    )


def gini_bern(n, **kw):
    return hoeffding.decompose(
        model.gini_kernel(), model.bernoulli(0.3), n, **kw
    )


def quadratic_normal(eps, n, **kw):
    return hoeffding.decompose(
        model.quadratic_kernel(eps), model.distribution_preset("normal"), n, **kw
    )


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def test_variance_normal_projection_hand_values():
    d = variance_normal(10)
    proj = d.projection
    assert proj.strategy == "analytic"
    assert d.theta == pytest.approx(1.0, abs=1e-12)
    assert d.sigma_g == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # marginal h_1(x) = (x^2 + 1)/2, centered g(x) = (x^2 - 1)/2
    assert proj.marginal(1, [2.0]) == pytest.approx(2.5, abs=1e-12)
    x = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(proj.g_values(x), (x * x - 1.0) / 2.0, atol=1e-12)
    # degenerate part t_2(x, y) = -xy
    assert proj.component(2, [1.0, 2.0]) == pytest.approx(-2.0, abs=1e-12)
    assert proj.component(2, [0.5, -3.0]) == pytest.approx(1.5, abs=1e-12)


def test_gini_bernoulli_exact_projection():
    d = gini_bern(6)
    assert d.projection.strategy == "exact"
    assert d.theta == pytest.approx(0.42, abs=1e-14)
    g = d.projection.g_values(np.array([0.0, 1.0]))
    np.testing.assert_allclose(g, [-0.12, 0.28], atol=1e-14)


def test_degenerate_component_is_conditionally_centered():
    # E[t_2(x, Y)] = 0 for every fixed x is the defining degeneracy property
    d = gini_bern(5)
    proj = d.projection
    atoms = np.array([0.0, 1.0])
    probs = np.array([0.7, 0.3])
    for x0 in atoms:
        vals = proj.component_values(2, [np.full(2, x0), atoms])
        assert float(np.dot(vals, probs)) == pytest.approx(0.0, abs=1e-14)


def test_marginal_full_order_is_centered_kernel():
    # the order-k marginal is the kernel itself; the point accessors agree
    d = variance_normal(8)
    pts = [1.5, -0.5]
    want = model.eval_kernel(d.kernel, pts)
    assert d.projection.marginal(2, pts) == pytest.approx(want)
    t2 = d.projection.component(2, pts)
    g = d.projection.g_values(np.array(pts))
    assert t2 == pytest.approx(want - d.theta - g.sum(), abs=1e-12)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_identity_order2_continuous():
    d = variance_normal(12)
    x = model.sample(d.dist, 12, 3)
    assert d.value(x) == pytest.approx(d.value_via_parts(x), abs=1e-12)


def test_reconstruction_identity_order2_discrete():
    d = gini_bern(9)
    x = model.sample(d.dist, 9, 1)
    assert d.value(x) == pytest.approx(d.value_via_parts(x), abs=1e-12)


def test_reconstruction_identity_order3():
    k = model.symmetrize(lambda a, b, c: a * b * c, order=3)
    d = hoeffding.decompose(k, model.bernoulli(0.3), 7, strategy="exact")
    x = model.sample(d.dist, 7, 5)
    assert d.value(x) == pytest.approx(d.value_via_parts(x), abs=1e-12)


def test_scales():
    d = variance_normal(20)
    assert d.l_scale == pytest.approx(1.0 / (math.sqrt(20) * d.sigma_g))
    want = math.sqrt(20) / (2.0 * d.sigma_g * math.comb(20, 2))
    assert d.t_scale(2) == pytest.approx(want)
    with pytest.raises(ValidationError):
        d.t_scale(0)
    with pytest.raises(ValidationError):
        d.t_scale(3)


def test_sample_length_checked():
    d = variance_normal(10)
    with pytest.raises(ValidationError, match="length"):
        d.value(np.zeros(9))


def test_component_sum_budget():
    d = variance_normal(30)
    with pytest.raises(BudgetError):
        d.component_sum(np.zeros(30), 2, budget=10)


# ---------------------------------------------------------------------------
# Moment functionals
# ---------------------------------------------------------------------------

def test_linear_second_moment_is_one():
    # n E L_1^2 = 1 by construction, on every strategy
    assert hoeffding.scaled_linear_moment(variance_normal(10), 2.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert hoeffding.scaled_linear_moment(gini_bern(7), 2.0) == pytest.approx(
        1.0, abs=1e-12
    )
    mc = gini_bern(7, strategy="monte-carlo", inner_reps=20_000, seed=2)
    assert hoeffding.scaled_linear_moment(mc, 2.0) == pytest.approx(1.0, abs=0.05)


def test_quadratic_preset_closed_forms():
    eps, n = 0.5, 25
    d = quadratic_normal(eps, n)
    assert hoeffding.kappa(d, 2) == pytest.approx(eps / math.sqrt(n), abs=1e-13)
    assert hoeffding.kappa(d, 1) == 0.0
    assert hoeffding.gamma_var(d) == pytest.approx(
        2.0 * eps * eps / (n - 1), abs=1e-13
    )
    assert hoeffding.beta(d) == pytest.approx(E_ABS_Z3 / math.sqrt(n), abs=1e-13)
    kap = hoeffding.kappa_vector(d)
    assert kap == (0.0, pytest.approx(eps / math.sqrt(n), abs=1e-13))


def test_kappa_frozen_value_variance_exponential():
    d = hoeffding.decompose(
        model.variance_kernel(), model.distribution_preset("exponential"), 30
    )
    # C(30,2) * l^2 * t_scale(2) * t2_coef * e_g_centered^2 collapses to
    # -sqrt(15)/120 for this kernel and distribution
    assert hoeffding.kappa(d, 2) == pytest.approx(
        -math.sqrt(15.0) / 120.0, abs=1e-14
    )


def test_gamma_alpha_interpolates():
    d = quadratic_normal(0.4, 12)
    g2 = hoeffding.gamma_var(d)
    g18 = hoeffding.gamma_alpha(d, 1.8)
    g1 = hoeffding.gamma_alpha(d, 1.0)
    assert g2 > 0.0 and g18 > 0.0 and g1 > 0.0
    with pytest.raises(ValidationError):
        hoeffding.gamma_alpha(d, 2.5)


def test_gamma_components_order1_entry_is_zero():
    d = gini_bern(6)
    comps = hoeffding.gamma_components(d)
    assert comps[0] == 0.0
    assert len(comps) == d.order


def test_order2_edgeworth_inputs_analytic():
    d = hoeffding.decompose(
        model.variance_kernel(), model.distribution_preset("exponential"), 40
    )
    e_gg_eta, e_g3, sigma_g = hoeffding.order2_edgeworth_inputs(d)
    assert e_gg_eta == pytest.approx(-1.0, abs=1e-12)
    assert e_g3 == pytest.approx(30.0, abs=1e-10)
    assert sigma_g == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_edgeworth_inputs_reuse_the_aligned_integral(monkeypatch):
    d = hoeffding.decompose(
        model.gini_kernel(), model.distribution_preset("exponential"), 16,
        strategy="monte-carlo", inner_reps=200, seed=1,
    )
    hoeffding.kappa_vector(d)
    streams = []
    make = model.stream_generator

    def counting(seed, stream=0):
        streams.append(stream)
        return make(seed, stream)

    monkeypatch.setattr(model, "stream_generator", counting)
    e_gg_eta, _, _ = hoeffding.order2_edgeworth_inputs(d)
    # E[g g t_2] is kappa_2's integral; only E g^3 draws a new column
    assert streams == [hoeffding.STREAM_MOMENT_BASE + 256]
    assert e_gg_eta == d.projection.moment("aligned", 2)[0]

def test_order2_edgeworth_inputs_exact_matches_manual():
    d = gini_bern(8)
    e_gg_eta, e_g3, sigma_g = hoeffding.order2_edgeworth_inputs(d)
    atoms = np.array([0.0, 1.0])
    probs = np.array([0.7, 0.3])
    g = d.projection.g_values(atoms)
    want_g3 = float(np.dot(g ** 3, probs))
    # E[g(X) g(Y) t_2(X, Y)] over the independent pair
    acc = 0.0
    for i, xi in enumerate(atoms):
        for j, yj in enumerate(atoms):
            t2 = d.projection.component(2, [xi, yj])
            acc += probs[i] * probs[j] * g[i] * g[j] * t2
    assert e_g3 == pytest.approx(want_g3, abs=1e-14)
    assert e_gg_eta == pytest.approx(acc, abs=1e-14)
    assert sigma_g == pytest.approx(d.sigma_g)


def test_cross_moment_identity_for_pure_order2_remainder():
    # E[L^2 T] = 2 kappa_2 when the remainder has a single order-2 layer
    d = quadratic_normal(0.6, 6)
    est, se = hoeffding.cross_moment_mc(d, 2, 3000, 7)
    assert se > 0.0
    want = 2.0 * hoeffding.kappa(d, 2)
    assert abs(est - want) < 4.0 * se


def test_exact_and_mc_strategies_agree():
    exact = gini_bern(8)
    mc = gini_bern(8, strategy="monte-carlo", inner_reps=40_000, seed=11)
    assert hoeffding.moment_summary(exact).beta_se is None
    summary = hoeffding.moment_summary(mc)
    b_se = summary.beta_se
    assert b_se is not None and b_se > 0.0
    assert abs(hoeffding.beta(mc) - hoeffding.beta(exact)) < 4.0 * b_se
    k_se = summary.kappa_se[1]
    assert k_se is not None and k_se > 0.0
    assert abs(hoeffding.kappa(mc, 2) - hoeffding.kappa(exact, 2)) < 4.0 * k_se
    g_se = summary.gamma_se
    assert g_se is not None
    diff = hoeffding.gamma_var(mc) - hoeffding.gamma_var(exact)
    assert abs(diff) < 4.0 * g_se


@pytest.mark.parametrize("dist_ident", ["bernoulli:0.3", "uniform-atoms:-1,0,2"])
@pytest.mark.parametrize("seed", range(10))
def test_order3_monte_carlo_on_finite_support_tracks_exact(dist_ident, seed):
    # order 3 integrates h_2 over a one-argument tail of the two-argument
    # inner pool, and t_3 needs h_2 on every pair of its columns
    kernel = model.symmetrize(lambda a, b, c: abs(a - b) * c + a * b * c, 3)
    dist = model.distribution_preset(dist_ident)
    exact = hoeffding.moment_summary(hoeffding.decompose(kernel, dist, 7, strategy="exact"))
    mc = hoeffding.moment_summary(
        hoeffding.decompose(
            kernel, dist, 7, strategy="monte-carlo", inner_reps=2000, seed=seed
        )
    )
    pairs = [
        (mc.beta, exact.beta, mc.beta_se),
        (mc.gamma, exact.gamma, mc.gamma_se),
        (mc.kappa[1], exact.kappa[1], mc.kappa_se[1]),
        (mc.kappa[2], exact.kappa[2], mc.kappa_se[2]),
    ]
    for est, truth, se in pairs:
        assert se is not None and se > 0.0
        assert abs(est - truth) < 4.0 * se


def test_moment_summary_round_trip():
    d = quadratic_normal(0.5, 25)
    s = hoeffding.moment_summary(d, alpha=1.8)
    assert s.method == "analytic"
    assert s.beta == pytest.approx(E_ABS_Z3 / 5.0, abs=1e-13)
    assert s.gamma == pytest.approx(2.0 * 0.25 / 24.0, abs=1e-13)
    assert s.kappa[1] == pytest.approx(0.1, abs=1e-13)
    payload = s.to_json()
    assert payload["n"] == 25
    assert payload["method"] == "analytic"
    assert "beta_se" not in payload
    mc = gini_bern(6, strategy="monte-carlo", inner_reps=5000, seed=3)
    payload_mc = hoeffding.moment_summary(mc).to_json()
    assert payload_mc["method"] == "monte-carlo"
    assert payload_mc["beta_se"] > 0.0
    assert len(payload_mc["kappa_se"]) == 2


@pytest.mark.parametrize(
    "dist, columns",
    [("uniform", (0, 32, 33, 128, 129)), ("bernoulli:0.3", (0, 32, 128))],
)
def test_moment_summary_integrates_each_moment_once(monkeypatch, dist, columns):
    d = hoeffding.decompose(
        model.gini_kernel(), model.distribution_preset(dist), 16,
        strategy="monte-carlo", inner_reps=200, seed=1,
    )
    streams = []
    make = model.stream_generator

    def counting(seed, stream=0):
        streams.append(stream)
        return make(seed, stream)

    monkeypatch.setattr(model, "stream_generator", counting)
    hoeffding.moment_summary(d)
    # beta, gamma and kappa_2 draw once each, SEs included
    assert sorted(streams) == [hoeffding.STREAM_MOMENT_BASE + c for c in columns]
    hoeffding.moment_summary(dataclasses.replace(d, n=64))
    assert len(streams) == len(columns)


def test_monte_carlo_moments_draw_and_project_each_column_once(monkeypatch):
    d = hoeffding.decompose(
        model.gini_kernel(), model.distribution_preset("exponential"), 16,
        strategy="monte-carlo", inner_reps=500, seed=1,
    )
    streams, projected = [], []
    make, marginal = model.stream_generator, hoeffding._weighted_marginal

    def counting(seed, stream=0):
        streams.append(stream)
        return make(seed, stream)

    def counting_marginal(kernel, cols, tail_cols, weights):
        projected.append(cols[0].size)
        return marginal(kernel, cols, tail_cols, weights)

    monkeypatch.setattr(model, "stream_generator", counting)
    monkeypatch.setattr(hoeffding, "_weighted_marginal", counting_marginal)
    hoeffding.moment_summary(d, alpha=1.7)
    hoeffding.moment_inequalities(d, alpha=1.7)
    # E|g|^q for three q, E|t_2|^alpha for two alpha and kappa_2 share the
    # columns 0, 32, 33, 128 and 129: each is drawn once and g is evaluated
    # on it once
    columns = [hoeffding.STREAM_MOMENT_BASE + c for c in (0, 32, 33, 128, 129)]
    assert sorted(streams) == columns
    assert projected == [500] * len(columns)


@pytest.mark.parametrize(
    "build",
    [
        lambda: variance_normal(10),
        lambda: gini_bern(6),
        lambda: quadratic_normal(0.5, 25),
        lambda: hoeffding.decompose(
            model.variance_kernel(), model.uniform_atoms([-1.0, 0.0, 1.0]), 5
        ),
    ],
)
def test_moment_inequalities_pass_on_exact_configs(build):
    report = hoeffding.moment_inequalities(build(), alpha=1.8, tol=1e-12)
    assert report.all_passed
    labels = {item.label for item in report.items}
    assert {"a", "b:2", "b:2.5", "b:3", "c:1", "c:2"} <= labels
    payload = report.to_json()
    assert payload["all_passed"] is True
    assert all({"label", "lhs", "rhs", "passed"} <= set(row) for row in payload["items"])


def test_inequality_item_b2_is_tight():
    # n E L^2 = 1 and beta^0 = 1, so b:2 holds with equality
    report = hoeffding.moment_inequalities(variance_normal(10))
    item = next(it for it in report.items if it.label == "b:2")
    assert item.lhs == pytest.approx(1.0, abs=1e-12)
    assert item.rhs == pytest.approx(1.0, abs=1e-12)
    assert item.passed


# ---------------------------------------------------------------------------
# Closed forms come from the kernel's fields, not its name
# ---------------------------------------------------------------------------

def _mc_decompose(kernel, dist_ident):
    return hoeffding.decompose(
        kernel, model.distribution_preset(dist_ident), 10,
        strategy="monte-carlo", inner_reps=2000, seed=5,
    )


def test_kernel_named_like_a_preset_is_not_treated_as_one():
    # E h = E[XY] + 1 = 2 under the unit exponential; the product preset's
    # closed forms would give theta = 1
    shifted = model.Kernel("product", 2, lambda x, y: x * y + 1.0)
    d = _mc_decompose(shifted, "exponential")
    assert d.projection.strategy == "monte-carlo"
    assert abs(d.theta - 2.0) < 5.0 * d.projection.theta_se
    # a hand-built "quadratic" has no eps parameter to look up
    d = _mc_decompose(model.Kernel("quadratic", 2, lambda x, y: 0.5 * (x + y)), "normal")
    assert d.projection.strategy == "monte-carlo"
    assert abs(d.theta) < 5.0 * d.projection.theta_se
    # E|X - Y|^2 = 2 var X = 2, not the variance preset's theta of 1
    sq = model.symmetrize(lambda x, y: np.abs(x - y) ** 2, 2, ident="variance")
    d = _mc_decompose(sq, "exponential")
    assert d.projection.strategy == "monte-carlo"
    assert abs(d.theta - 2.0) < 5.0 * d.projection.theta_se


def _quad_kernel(a, b, c):
    def fn(x, y):
        return a * (x + y) + b * (x * x + y * y) + c * (x * y)

    return model.Kernel("hand-quadratic", 2, fn, quad_coefs=(a, b, c))


@pytest.mark.parametrize("dist_ident", ["bernoulli:0.3", "uniform-atoms:-1,0,2.5"])
@pytest.mark.parametrize(
    "kernel",
    [
        model.variance_kernel(),
        model.product_kernel(),
        model.quadratic_kernel(0.5),
        # both lin and b nonzero, so the lin*b cross terms (and m5) count
        _quad_kernel(0.3, 0.2, -0.5),
    ],
    ids=["variance", "product", "quadratic:0.5", "hand-quadratic"],
)
def test_analytic_forms_match_exact_enumeration(kernel, dist_ident):
    dist = model.distribution_preset(dist_ident)
    ana = hoeffding.decompose(kernel, dist, 9, strategy="analytic")
    ex = hoeffding.decompose(kernel, dist, 9, strategy="exact")
    assert ana.projection.strategy == "analytic"
    for attr in ("theta", "var_g", "var_h"):
        assert getattr(ana.projection, attr) == pytest.approx(
            getattr(ex.projection, attr), abs=1e-12
        )
    for alpha in (2.0, 1.8):
        s_ana = hoeffding.moment_summary(ana, alpha)
        s_ex = hoeffding.moment_summary(ex, alpha)
        for f in dataclasses.fields(s_ana):
            if f.name == "method":
                continue
            want = getattr(s_ex, f.name)
            assert getattr(s_ana, f.name) == (
                want if want is None else pytest.approx(want, abs=1e-12)
            ), f.name
    assert hoeffding.order2_edgeworth_inputs(ana) == pytest.approx(
        hoeffding.order2_edgeworth_inputs(ex), abs=1e-12
    )


def test_auto_strategy_derives_closed_forms_once(monkeypatch):
    calls = []
    derive = hoeffding.separable_forms

    def counted(kernel, dist):
        calls.append(kernel.ident)
        return derive(kernel, dist)

    monkeypatch.setattr(hoeffding, "separable_forms", counted)
    d = variance_normal(10)
    assert d.projection.strategy == "analytic"
    assert calls == ["variance"]


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature on the quantile scale
# ---------------------------------------------------------------------------

def gini_continuous(dist_ident, n=16):
    return hoeffding.decompose(
        model.gini_kernel(), model.distribution_preset(dist_ident), n
    )


@pytest.mark.parametrize(
    "dist_ident, theta",
    [("uniform", 1.0 / 3.0), ("exponential", 1.0), ("normal", 2.0 / math.sqrt(math.pi))],
)
def test_quadrature_theta_within_reported_error(dist_ident, theta):
    d = gini_continuous(dist_ident)
    proj = d.projection
    assert proj.strategy == "quadrature"
    assert 0.0 < abs(d.theta - theta) <= proj.theta_se < 1e-5


def test_quadrature_error_covers_gini_exponential_moments():
    # g(x) = x - 2 + 2 exp(-x): var g = 1/3, E g^3 = 5/6, E[g g t_2] = -1/9
    proj = gini_continuous("exponential").projection
    for kind, p, exponent, want in [
        ("abs_g", 1, 2.0, 1.0 / 3.0),
        ("g3", 1, 1.0, 5.0 / 6.0),
        ("aligned", 2, 1.0, -1.0 / 9.0),
    ]:
        val, err = proj.moment(kind, p, exponent)
        assert abs(val - want) <= err, kind
    assert abs(proj.var_g - 1.0 / 3.0) <= proj.moment("abs_g", 1, 2.0)[1]


def test_quadrature_projection_matches_closed_form_and_reconstructs():
    # under the uniform law E|x - Y| = x^2 - x + 1/2, so g = x^2 - x + 1/6
    d = gini_continuous("uniform", n=10)
    x = model.sample(d.dist, 10, 4)
    np.testing.assert_allclose(d.projection.g_values(x), x * x - x + 1.0 / 6.0, atol=1e-5)
    assert d.value(x) == pytest.approx(d.value_via_parts(x), abs=1e-12)
    s = hoeffding.moment_summary(d)
    payload = s.to_json()
    assert payload["method"] == "quadrature"
    assert payload["kappa_se"][0] is None
    assert all(payload[k] > 0.0 for k in ("beta_se", "gamma_se", "gamma_alpha_se"))
    assert payload["kappa_se"][1] > 0.0


def test_quadrature_cell_budget(monkeypatch):
    cells = []
    kernel_values = model.kernel_values

    def counting(kernel, columns):
        out = kernel_values(kernel, columns)
        cells.append(out.size)
        return out

    monkeypatch.setattr(model, "kernel_values", counting)
    d = gini_continuous("exponential")
    hoeffding.moment_summary(d)
    hoeffding.order2_edgeworth_inputs(d)
    nodes = hoeffding.QUADRATURE_NODES
    assert sum(cells) <= 2 * (nodes**2 + (nodes // 2) ** 2)


def test_auto_falls_back_to_monte_carlo_without_quadrature():
    no_ppf = dataclasses.replace(model.distribution_preset("exponential"), ppf=None)
    d = hoeffding.decompose(model.gini_kernel(), no_ppf, 8, inner_reps=200)
    assert d.projection.strategy == "monte-carlo"
    order3 = model.symmetrize(lambda a, b, c: np.abs(a - b) * c, order=3)
    normal = model.distribution_preset("normal")
    proj = hoeffding.ProjectionSet(order3, normal, inner_reps=50)
    assert proj.strategy == "monte-carlo"
    with pytest.raises(BudgetError):
        hoeffding.ProjectionSet(order3, normal, strategy="quadrature")
    with pytest.raises(ValidationError):
        hoeffding.ProjectionSet(model.gini_kernel(), no_ppf, strategy="quadrature")
    with pytest.raises(ValidationError):
        gini_bern(6, strategy="quadrature")


# ---------------------------------------------------------------------------
# Degeneracy and validation
# ---------------------------------------------------------------------------

def test_degenerate_kernel_raises():
    # centered product kernel has a vanishing linear projection
    with pytest.raises(DegenerateKernel):
        hoeffding.decompose(
            model.product_kernel(), model.distribution_preset("normal"), 10
        )
    # variance kernel on a two-point symmetric law degenerates too
    with pytest.raises(DegenerateKernel):
        hoeffding.decompose(model.variance_kernel(), model.bernoulli(0.5), 10)


def test_decompose_insufficient_sample():
    with pytest.raises(InsufficientSample, match="n must be >= kernel order"):
        variance_normal(1)


def test_kappa_validates_order():
    d = variance_normal(10)
    with pytest.raises(ValidationError):
        hoeffding.kappa(d, 3)
    with pytest.raises(ValidationError):
        hoeffding.kappa(d, 0)


def test_unknown_strategy_rejected():
    with pytest.raises(ValidationError):
        variance_normal(10, strategy="bootstrap")
