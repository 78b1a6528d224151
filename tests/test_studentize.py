"""Jackknife studentization tests."""

import math

import numpy as np
import pytest

from ustatlab import exper, model, studentize
from ustatlab.errors import (
    BudgetError,
    InsufficientSample,
    ValidationError,
    ZeroVarianceEstimate,
)


def test_product_kernel_hand_example():
    # h(x, y) = xy on (1, 2, 3): pair values 2, 3, 6
    k = model.product_kernel()
    x = np.array([1.0, 2.0, 3.0])
    q, u = studentize._leave_one_out_means(k, x)
    np.testing.assert_allclose(q, [2.5, 4.0, 4.5], atol=1e-14)
    assert u == pytest.approx(11.0 / 3.0, abs=1e-14)
    assert studentize.jackknife_variance(k, x) == pytest.approx(13.0 / 3.0, abs=1e-13)
    s = studentize.studentized_ustat(k, x, theta=1.0)
    want = math.sqrt(3.0) * (8.0 / 3.0) / (2.0 * math.sqrt(13.0 / 3.0))
    assert s.value == pytest.approx(want, abs=1e-13)
    assert s.value == pytest.approx(1.1094, abs=5e-5)
    assert s.u_stat == pytest.approx(11.0 / 3.0)
    assert s.sigma_hat_g == pytest.approx(math.sqrt(13.0 / 3.0))


def test_leave_one_out_means_match_bruteforce():
    k = model.variance_kernel()
    rng = np.random.default_rng(8)
    x = rng.exponential(size=12)
    q, u = studentize._leave_one_out_means(k, x)
    assert u == pytest.approx(model.u_statistic(k, x), rel=1e-13, abs=0)
    for i in range(x.size):
        vals = [model.eval_kernel(k, (x[i], x[j])) for j in range(x.size) if j != i]
        assert q[i] == pytest.approx(np.mean(vals), rel=1e-12, abs=0)


def test_pair_sums_match_row_forms():
    # a kernel without row forms sums over the pairs in bounded blocks
    rng = np.random.default_rng(5)
    x = rng.exponential(size=40)
    for kernel in (model.variance_kernel(), model.gini_kernel()):
        bare = model.Kernel("bare", 2, kernel.fn)
        u, ss = studentize._jackknife_sums(kernel, x)
        want_u, want_ss = studentize._jackknife_sums(bare, x)
        assert u == pytest.approx(want_u, rel=1e-13, abs=0)
        assert ss == pytest.approx(want_ss, rel=1e-12, abs=0)


def test_pair_sums_are_budgeted(monkeypatch):
    bare = model.Kernel("bare", 2, model.variance_kernel().fn)
    x = np.arange(6.0)
    assert studentize.jackknife_variance(bare, x) > 0.0
    # C(6, 2) = 15 pairs; a kernel with row forms enumerates none
    monkeypatch.setattr(model, "DEFAULT_SUBSET_BUDGET", 14)
    with pytest.raises(BudgetError):
        studentize.jackknife_variance(bare, x)
    assert studentize.jackknife_variance(model.variance_kernel(), x) > 0.0


@pytest.mark.parametrize("ident", ["variance", "gini", "product", "quadratic:0.3"])
def test_one_sample_calls_leave_the_data_untouched(ident):
    # the row forms overwrite the block they score, so the one-sample path
    # hands them a copy; unsorted data far from 0 shows a sort or a shift
    kernel = model.kernel_preset(ident)
    x = 1e3 + np.random.default_rng(4).exponential(size=11)
    before = x.copy()
    calls = [
        lambda: studentize._leave_one_out_means(kernel, x),
        lambda: studentize._jackknife_sums(kernel, x),
        lambda: studentize.jackknife_variance(kernel, x),
        lambda: studentize.studentized_ustat(kernel, x, theta=0.0),
    ]
    for call in calls:
        call()
        assert x.tobytes() == before.tobytes()


def test_value_is_zero_at_the_true_mean():
    k = model.product_kernel()
    x = np.array([1.0, 2.0, 3.0])
    s = studentize.studentized_ustat(k, x, theta=11.0 / 3.0)
    assert s.value == 0.0


def test_scale_equivariance_of_product_kernel():
    k = model.product_kernel()
    rng = np.random.default_rng(2)
    x = rng.normal(size=15) + 2.0
    c = 3.7
    base = studentize.studentized_ustat(k, x, theta=1.0)
    scaled = studentize.studentized_ustat(k, c * x, theta=c * c * 1.0)
    assert scaled.value == pytest.approx(base.value, rel=1e-12, abs=0)
    assert scaled.sigma_hat_g == pytest.approx(c * c * base.sigma_hat_g, rel=1e-12, abs=0)


def test_shift_invariance_of_variance_kernel():
    k = model.variance_kernel()
    rng = np.random.default_rng(3)
    x = rng.normal(size=20)
    base = studentize.studentized_ustat(k, x, theta=1.0)
    shifted = studentize.studentized_ustat(k, x + 5.0, theta=1.0)
    assert shifted.value == pytest.approx(base.value, rel=1e-10, abs=0)


def test_constant_sample_raises_zero_variance():
    with pytest.raises(ZeroVarianceEstimate):
        studentize.studentized_ustat(
            model.product_kernel(), np.full(6, 2.0), theta=4.0
        )


def test_constant_kernel_raises_zero_variance():
    k = model.symmetrize(lambda x, y: np.ones_like(np.asarray(x, dtype=float)), order=2)
    with pytest.raises(ZeroVarianceEstimate):
        studentize.studentized_ustat(k, np.array([1.0, 2.0, 3.0, 4.0]), theta=1.0)


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("shift", [0.0, 1e3])
def test_exact_zero_jackknife_variance_on_both_paths(n, shift):
    # rows whose exact jackknife variance is 0: balanced two-point rows under
    # the variance kernel, and constant rows; rounding must not decide them
    rng = np.random.default_rng(n)
    ab = rng.uniform(-5e6, 5e6, size=(100, 2))
    balanced = rng.permuted(np.where(np.arange(n) < n // 2, ab[:, :1], ab[:, 1:]), axis=1)
    constant = np.repeat(ab[:, :1], n, axis=1)
    cases = [
        (model.variance_kernel(), balanced),
        (model.variance_kernel(), constant),
        (model.quadratic_kernel(0.3), constant),
        (model.gini_kernel(), constant),
    ]
    for kernel, rows in cases:
        rows = rows + shift
        _, var_hat = exper._row_jackknife_stats(kernel, rows.copy())
        assert np.all(var_hat == 0.0)
        for row in rows[:20]:
            with pytest.raises(ZeroVarianceEstimate):
                studentize.studentized_ustat(kernel, row, theta=0.0)
        # one point moved by 1e-6 of the gap of its pair is kept on both paths
        moved = rows[:20].copy()
        moved[:, 0] += 1e-6 * (np.abs(ab[:20, 0] - ab[:20, 1]) + 1.0)
        _, var_hat = exper._row_jackknife_stats(kernel, moved.copy())
        assert np.all(var_hat > 0.0)
        for row in moved:
            assert studentize.studentized_ustat(kernel, row, theta=0.0).sigma_hat_g > 0.0


@pytest.mark.parametrize("value", [0.3, -7.1, 5e6 + 0.3])
def test_gini_constant_rows_are_dropped(value):
    # the row path shifts each sorted row by its smallest point, so constant
    # rows give leave-one-out means of exactly 0, as the pairwise path does
    kernel = model.gini_kernel()
    rows = np.full((50, 8), value)
    u, ss = kernel.rows.jackknife(rows.copy())
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(ss, 0.0)
    u, var_hat = exper._row_jackknife_stats(kernel, rows.copy())
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(var_hat, 0.0)
    with pytest.raises(ZeroVarianceEstimate):
        studentize.studentized_ustat(kernel, rows[0], theta=0.0)


def test_validation_errors():
    k2 = model.variance_kernel()
    with pytest.raises(InsufficientSample):
        studentize.jackknife_variance(k2, np.array([1.0, 2.0]))
    with pytest.raises(InsufficientSample):
        studentize.studentized_ustat(k2, np.array([1.0, 2.0]), theta=0.0)
    k3 = model.symmetrize(lambda a, b, c: a + b + c, order=3)
    with pytest.raises(ValidationError):
        studentize.jackknife_variance(k3, np.arange(5.0))
    with pytest.raises(ValidationError):
        studentize.studentized_ustat(k2, np.array([[1.0, 2.0, 3.0]]), theta=0.0)
    with pytest.raises(ValidationError):
        studentize.studentized_ustat(k2, np.array([1.0, 2.0, np.nan]), theta=0.0)
    with pytest.raises(ValidationError):
        studentize.studentized_ustat(k2, np.arange(4.0), theta=math.inf)


def test_statistic_overflow_is_refused():
    # U and sigma_hat are finite, but U - theta overflows
    with pytest.raises(ValidationError, match="overflow"):
        studentize.studentized_ustat(model.product_kernel(), [1.0, 2.0, 3.0], theta=-1.7e308)


def test_large_n_consistency_variance_exponential():
    # sigma_g^2 = 2 for the variance kernel under exponential(1)
    k = model.variance_kernel()
    dist = model.distribution_preset("exponential")
    reps = 64
    vals = np.empty(reps)
    for r in range(reps):
        x = model.sample(dist, 500, 123, stream=r)
        vals[r] = studentize.jackknife_variance(k, x)
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    assert abs(float(np.mean(vals)) - 2.0) < 3.0 * se
