"""Exact-enumeration oracle tests."""

import itertools
import math

import numpy as np
import pytest

from ustatlab import approx, hoeffding, model, oracle
from ustatlab.errors import (
    BudgetError,
    DegenerateKernel,
    InsufficientSample,
    ValidationError,
)


def gini_bern_report(n, **kw):
    return oracle.exact_distribution(model.gini_kernel(), model.bernoulli(0.3), n, **kw)


def tuple_walk(dist, n):
    """All s^n outcome tuples in mixed-radix order, with their probabilities."""
    s = dist.atoms.size
    digits = (np.arange(s**n)[:, None] // s ** np.arange(n)) % s
    return dist.atoms[digits], dist.probs[digits].prod(axis=1)


def brute_force_laws(kernel, dist, n, decomposed=True):
    """The oracle's laws and moments, recomputed from every outcome tuple."""
    vals, w = tuple_walk(dist, n)
    k = kernel.order

    def subset_sum(f, p):
        return sum(f([vals[:, c] for c in combo]) for combo in itertools.combinations(range(n), p))

    u = subset_sum(lambda cols: model.kernel_values(kernel, cols), k) / math.comb(n, k)
    out = {"u_law": oracle._group_atoms(u, w), "theta": float(np.dot(u, w))}
    if not decomposed:
        return out
    d = hoeffding.decompose(kernel, dist, n, strategy="exact")
    proj = d.projection
    s = math.sqrt(n) / (k * d.sigma_g) * (u - d.theta)
    lin = d.l_scale * subset_sum(lambda cols: proj.g_values(cols[0]), 1)
    t = {
        p: d.t_scale(p) * subset_sum(lambda cols, p=p: proj.component_values(p, cols), p)
        for p in range(2, k + 1)
    }
    t_all = sum(t.values(), np.zeros(w.size))

    def mean(x):
        return float(np.dot(x, w))

    out.update(
        s_law=oracle._group_atoms(s, w),
        prob_total=float(w.sum()),
        mean_s=mean(s),
        var_s=mean(s**2) - mean(s) ** 2,
        e_tt_full=mean(t_all**2),
        cov_l_t=mean(lin * t_all) - mean(lin) * mean(t_all),
        component_cross={
            (p, q): mean(t[p] * t[q]) for p in t for q in t if q > p
        },
        linear_component_cross={p: mean(lin * t[p]) for p in t},
        power_cross={p: mean(lin**p * t_all) for p in t},
    )
    return out


def _assert_law(atoms, probs, want):
    np.testing.assert_allclose(atoms, want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs, want[1], rtol=0, atol=1e-12)


ORDER3_PRODUCT = model.symmetrize(lambda a, b, c: a * b * c, order=3)


@pytest.mark.parametrize(
    "kernel, dist_id, n",
    [
        (model.variance_kernel(), "bernoulli:0.3", 6),
        (model.variance_kernel(), "uniform-atoms:-1,0,1", 6),
        (model.gini_kernel(), "bernoulli:0.3", 6),
        (model.gini_kernel(), "uniform-atoms:-1,0,1", 6),
        (ORDER3_PRODUCT, "bernoulli:0.3", 5),
        # multisets of several distinct atoms, which two-point laws never hold
        (model.variance_kernel(), "uniform-atoms:-1,0,1,3", 5),
        (model.gini_kernel(), "uniform-atoms:-1,0,1,3", 5),
        # a nonzero mean keeps the product kernel nondegenerate
        (ORDER3_PRODUCT, "uniform-atoms:0,1,3", 4),
    ],
    ids=[
        "variance-bern", "variance-3atoms", "gini-bern", "gini-3atoms", "order3-bern",
        "variance-4atoms", "gini-4atoms", "order3-3atoms",
    ],
)
def test_type_classes_match_tuple_walk(kernel, dist_id, n):
    dist = model.distribution_preset(dist_id)
    rep = oracle.exact_distribution(kernel, dist, n)
    want = brute_force_laws(kernel, dist, n)
    for field in ("prob_total", "mean_s", "var_s", "e_tt_full", "cov_l_t"):
        assert getattr(rep, field) == pytest.approx(want[field], abs=1e-12), field
    for field in ("component_cross", "linear_component_cross", "power_cross"):
        got = getattr(rep, field)
        assert got.keys() == want[field].keys()
        for key, value in want[field].items():
            assert got[key] == pytest.approx(value, abs=1e-12), (field, key)
    _assert_law(rep.s_atoms, rep.s_probs, want["s_law"])
    _assert_law(rep.u_atoms, rep.u_probs, want["u_law"])
    u_atoms, u_probs, theta = oracle.exact_u_distribution(kernel, dist, n)
    _assert_law(u_atoms, u_probs, want["u_law"])
    assert theta == pytest.approx(want["theta"], abs=1e-12)
    assert (rep.tuples, rep.type_classes) == (
        dist.atoms.size**n,
        math.comb(n + dist.atoms.size - 1, n),
    )


def test_u_law_matches_tuple_walk_on_degenerate_config():
    kernel, dist = model.variance_kernel(), model.bernoulli(0.5)
    u_atoms, u_probs, theta = oracle.exact_u_distribution(kernel, dist, 4)
    want = brute_force_laws(kernel, dist, 4, decomposed=False)
    _assert_law(u_atoms, u_probs, want["u_law"])
    assert theta == pytest.approx(want["theta"], abs=1e-12)


def test_oracle_evaluates_one_row_per_type_class(monkeypatch):
    cells = []
    kernel_values = model.kernel_values

    def counting(kernel, columns):
        out = kernel_values(kernel, columns)
        cells.append(out.size)
        return out

    monkeypatch.setattr(model, "kernel_values", counting)
    kernel, dist = model.variance_kernel(), model.distribution_preset("uniform-atoms:-1,0,1")
    for n in (6, 12):
        oracle.exact_u_distribution(kernel, dist, n)
        # one call on the C(3+2-1, 2) pairs of atoms, whatever n is
        assert cells == [math.comb(3 + 2 - 1, 2)]
        cells.clear()
    oracle.exact_distribution(kernel, dist, 12)
    # the whole report, projections included, costs fewer cells than 3^12
    assert sum(cells) < 3**12


@pytest.mark.parametrize("n, p", [(0, 0), (1, 3), (12, 2), (40, 5), (300, 4)])
def test_binomial_table_equals_math_comb(n, p):
    table = oracle._binomial_table(n, p)
    assert table.shape == (n + 1, p + 1) and table.dtype == float
    for k in range(n + 1):
        for m in range(p + 1):
            assert table[k, m] == float(math.comb(k, m))


def test_u_distribution_bernoulli_half_hand_enumeration():
    u_atoms, u_probs, theta = oracle.exact_u_distribution(
        model.variance_kernel(), model.bernoulli(0.5), 2
    )
    np.testing.assert_allclose(u_atoms, [0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(u_probs, [0.5, 0.5], atol=1e-14)
    assert theta == pytest.approx(0.25, abs=1e-14)


def test_u_distribution_matches_bruteforce():
    import itertools

    dist = model.uniform_atoms([0.0, 1.0, 2.0])
    k = model.variance_kernel()
    n = 3
    u_atoms, u_probs, theta = oracle.exact_u_distribution(k, dist, n)
    outcomes = {}
    for tup in itertools.product([0.0, 1.0, 2.0], repeat=n):
        u = model.u_statistic(k, np.array(tup))
        key = round(u, 9)
        outcomes[key] = outcomes.get(key, 0.0) + (1.0 / 3.0) ** n
    want_atoms = sorted(outcomes)
    np.testing.assert_allclose(u_atoms, want_atoms, atol=1e-9)
    np.testing.assert_allclose(u_probs, [outcomes[a] for a in want_atoms], atol=1e-12)
    assert theta == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert u_probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_degenerate_configurations_refused():
    with pytest.raises(DegenerateKernel):
        oracle.exact_distribution(model.variance_kernel(), model.bernoulli(0.5), 4)
    with pytest.raises(DegenerateKernel):
        oracle.exact_distribution(
            model.product_kernel(), model.uniform_atoms([-1.0, 1.0]), 4
        )
    # the raw U law stays well defined on the same configurations
    u_atoms, _, _ = oracle.exact_u_distribution(
        model.variance_kernel(), model.bernoulli(0.5), 4
    )
    assert u_atoms.size > 1


def test_orthogonality_ground_truth_gini_bern_n4():
    rep = gini_bern_report(4)
    assert rep.kappa[0] == 0.0
    assert abs(rep.cov_l_t) <= 1e-12
    assert abs(rep.linear_component_cross[2]) <= 1e-12
    assert rep.component_cross == {}


def test_component_cross_vanishes_order3():
    k = model.symmetrize(lambda a, b, c: a * b * c, order=3)
    rep = oracle.exact_distribution(k, model.bernoulli(0.3), 5)
    assert abs(rep.component_cross[(2, 3)]) <= 1e-12
    assert abs(rep.linear_component_cross[2]) <= 1e-12
    assert abs(rep.linear_component_cross[3]) <= 1e-12
    assert rep.kappa[0] == 0.0


def test_report_global_invariants():
    rep = gini_bern_report(5)
    assert rep.prob_total == pytest.approx(1.0, abs=1e-14)
    assert rep.s_probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(rep.mean_s) <= 1e-12
    # var S = 1 + gamma because the parts are exactly orthogonal
    assert rep.var_s == pytest.approx(1.0 + rep.gamma, abs=1e-12)
    assert rep.e_tt_full == pytest.approx(rep.gamma, abs=1e-12)
    assert np.all(np.diff(rep.s_atoms) > 0)
    assert 0.0 <= rep.dist_phi <= 1.0
    assert 0.0 <= rep.dist_adjusted <= 1.0
    assert rep.dist_edgeworth2 is not None


def test_moments_match_hoeffding_exact_strategy():
    rep = gini_bern_report(5)
    d = hoeffding.decompose(model.gini_kernel(), model.bernoulli(0.3), 5)
    assert rep.beta == pytest.approx(hoeffding.beta(d), abs=1e-13)
    assert rep.gamma == pytest.approx(hoeffding.gamma_var(d), abs=1e-13)
    assert rep.kappa == tuple(
        pytest.approx(v, abs=1e-13) for v in hoeffding.kappa_vector(d)
    )
    assert rep.theta == pytest.approx(d.theta, abs=1e-14)
    assert rep.sigma_g == pytest.approx(d.sigma_g, abs=1e-14)


def test_kappa2_frozen_value_and_hand_derivation():
    rep = gini_bern_report(5)
    # hand tables: g on {0,1} and t_2 on the four atom pairs
    probs = np.array([0.7, 0.3])
    g = np.array([-0.12, 0.28])
    t2 = np.array([[-0.18, 0.42], [0.42, -0.98]])
    raw = float(np.einsum("i,j,i,j,ij->", probs, probs, g, g, t2))
    sigma_g = math.sqrt(float(np.dot(g * g, probs)))
    l2 = 1.0 / (5 * sigma_g**2)
    t_scale = math.sqrt(5.0) / (2.0 * sigma_g * math.comb(5, 2))
    want = math.comb(5, 2) * l2 * t_scale * raw
    assert rep.kappa[1] == pytest.approx(want, abs=1e-14)
    assert rep.kappa[1] == pytest.approx(-0.51234753829798, abs=1e-12)


def test_power_cross_identity_for_order2_remainder():
    rep = gini_bern_report(5)
    assert rep.power_cross[2] == pytest.approx(2.0 * rep.kappa[1], abs=1e-12)


def test_edgeworth_inputs_match_hoeffding():
    rep = gini_bern_report(6)
    d = hoeffding.decompose(model.gini_kernel(), model.bernoulli(0.3), 6)
    e_gg_eta, e_g3, _ = hoeffding.order2_edgeworth_inputs(d)
    assert rep.e_gg_eta == pytest.approx(e_gg_eta, abs=1e-14)
    assert rep.e_g3 == pytest.approx(e_g3, abs=1e-14)


def test_distance_fields_consistent_with_distance_to():
    rep = gini_bern_report(4)
    assert rep.distance_to(approx.normal_cdf) == pytest.approx(rep.dist_phi, abs=1e-15)
    adj = approx.AdjustedNormal(rep.kappa)
    assert rep.distance_to(
        lambda x: approx.adjusted_cdf(adj, x)
    ) == pytest.approx(rep.dist_adjusted, abs=1e-15)


def test_to_json_round_trips_through_serializer():
    import json

    rep = gini_bern_report(4)
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["n"] == 4
    assert payload["kernel"] == "gini"
    assert len(payload["s_atoms"]) == len(payload["s_probs"])
    assert payload["kappa"][0] == 0.0


def test_budget_error():
    with pytest.raises(BudgetError):
        gini_bern_report(40)
    with pytest.raises(BudgetError):
        oracle.exact_u_distribution(
            model.gini_kernel(), model.bernoulli(0.3), 6, budget=10
        )


def test_validation():
    with pytest.raises(InsufficientSample):
        gini_bern_report(1)
    with pytest.raises(ValidationError):
        oracle.exact_distribution(
            model.gini_kernel(), model.distribution_preset("normal"), 4
        )


def test_sampled_ecdf_within_dkw_band_across_seeds():
    # two-step-function sup distance: both laws jump on the same atom set,
    # so the sup is the max cumulative-probability gap over the atoms
    rep = gini_bern_report(4)
    cum = np.cumsum(rep.s_probs)
    cuts = (rep.s_atoms[1:] + rep.s_atoms[:-1]) / 2.0
    dist = model.bernoulli(0.3)
    k = model.gini_kernel()
    n, M, seeds = 4, 2000, 1000
    bound = approx.dkw_bound(M, 0.001)
    scale = math.sqrt(n) / (2.0 * rep.sigma_g)
    i, j = np.triu_indices(n, 1)
    ok = 0
    for seed in range(seeds):
        x = model.sample(dist, M * n, seed).reshape(M, n)
        pair_vals = model.kernel_values(k, [x[:, i].ravel(), x[:, j].ravel()])
        u = pair_vals.reshape(M, -1).mean(axis=1)
        s = scale * (u - rep.theta)
        counts = np.bincount(np.searchsorted(cuts, s), minlength=rep.s_atoms.size)
        d = float(np.max(np.abs(np.cumsum(counts) / M - cum)))
        ok += d <= bound
    assert ok >= 999
