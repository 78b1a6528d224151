"""Tests for the target-distribution layer (normal, adjusted, Edgeworth)."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ustatlab import approx
from ustatlab.errors import ValidationError


def test_normal_cdf_matches_scipy():
    x = np.linspace(-8, 8, 41)
    np.testing.assert_allclose(approx.normal_cdf(x), stats.norm.cdf(x), atol=1e-14)


def test_normal_cdf_matches_erfc_within_two_eps():
    x = np.linspace(-40, 40, 200_001)
    want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    gap = np.max(np.abs(approx.normal_cdf(x) - want))
    assert gap <= 2.0 * np.finfo(float).eps


def test_hermite_polynomials_hand_values():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(approx.hermite_he(0, x), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(approx.hermite_he(1, x), x)
    np.testing.assert_allclose(approx.hermite_he(2, x), x * x - 1.0)
    np.testing.assert_allclose(approx.hermite_he(3, x), x ** 3 - 3 * x)
    np.testing.assert_allclose(approx.hermite_he(4, x), x ** 4 - 6 * x * x + 3.0)


def test_phi_derivative_first_orders():
    x = np.linspace(-3, 3, 13)
    pdf = approx.normal_pdf(x)
    np.testing.assert_allclose(approx.phi_derivative(1, x), pdf, atol=1e-14)
    np.testing.assert_allclose(approx.phi_derivative(2, x), -x * pdf, atol=1e-14)
    np.testing.assert_allclose(
        approx.phi_derivative(3, x), (x * x - 1.0) * pdf, atol=1e-14
    )


def test_phi_derivative_matches_finite_differences():
    x = np.array([-1.3, 0.2, 0.9])
    h = 1e-5
    for m in range(2, 7):
        lower = approx.phi_derivative(m - 1, x - h)
        upper = approx.phi_derivative(m - 1, x + h)
        np.testing.assert_allclose(
            approx.phi_derivative(m, x), (upper - lower) / (2 * h), atol=1e-6
        )


def test_phi_derivative_order_cap():
    approx.phi_derivative(approx.PHI_DERIVATIVE_MAX, np.array([0.0]))
    with pytest.raises(ValidationError):
        approx.phi_derivative(approx.PHI_DERIVATIVE_MAX + 1, np.array([0.0]))
    with pytest.raises(ValidationError):
        approx.phi_derivative(0, np.array([0.0]))


def test_adjusted_cdf_zero_vector_is_normal():
    x = np.linspace(-4, 4, 17)
    plain = approx.AdjustedNormal()
    np.testing.assert_allclose(
        approx.adjusted_cdf(plain, x), approx.normal_cdf(x), atol=1e-15
    )


def test_adjusted_cdf_frozen_value():
    # kappa = (0, 0.1): N(0) = Phi(0) - 0.1 * Phi'''(0) = 0.5 + 0.1 * phi(0)
    target = 0.5 + 0.1 / math.sqrt(2 * math.pi)
    a = approx.AdjustedNormal((0.0, 0.1))
    assert float(approx.adjusted_cdf(a, 0.0)) == pytest.approx(target, abs=1e-15)
    assert float(approx.adjusted_cdf(a, 0.0)) == pytest.approx(0.5398942280401433)


def test_adjusted_cdf_is_unclamped():
    # a large first-order coefficient pushes the curve outside [0, 1]
    a = approx.AdjustedNormal((5.0,))
    vals = approx.adjusted_cdf(a, np.linspace(-3, 3, 61))
    assert vals.max() > 1.0 or vals.min() < 0.0


def test_adjusted_density_is_cdf_derivative_and_integrates_to_one():
    a = approx.AdjustedNormal((0.05, -0.02, 0.01))
    x = np.array([-2.0, -0.5, 0.0, 1.7])
    h = 1e-5
    num = (approx.adjusted_cdf(a, x + h) - approx.adjusted_cdf(a, x - h)) / (2 * h)
    np.testing.assert_allclose(approx.adjusted_density(a, x), num, atol=1e-8)
    total, _ = integrate.quad(lambda u: float(approx.adjusted_density(a, u)), -12, 12)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_adjusted_cf_matches_numerical_transform():
    # CF here is the Fourier-Stieltjes transform of the adjusted measure:
    # integral of e^{itx} against the density.
    a = approx.AdjustedNormal((0.03, -0.04))
    for t in (0.7, -1.3, 2.0):
        re, _ = integrate.quad(
            lambda x: math.cos(t * x) * float(approx.adjusted_density(a, x)), -12, 12
        )
        im, _ = integrate.quad(
            lambda x: math.sin(t * x) * float(approx.adjusted_density(a, x)), -12, 12
        )
        cf = complex(approx.adjusted_cf(a, t))
        assert cf.real == pytest.approx(re, abs=1e-10)
        assert cf.imag == pytest.approx(im, abs=1e-10)


def test_adjusted_cf_at_zero_is_one():
    a = approx.AdjustedNormal((0.1, 0.2, 0.3))
    assert complex(approx.adjusted_cf(a, 0.0)) == pytest.approx(1.0 + 0.0j)


def test_adjusted_normal_validation():
    with pytest.raises(ValidationError):
        approx.AdjustedNormal((math.nan,))
    with pytest.raises(ValidationError):
        approx.AdjustedNormal(tuple(0.0 for _ in range(approx.PHI_DERIVATIVE_MAX)))


@pytest.mark.parametrize(
    "alpha,k,expected",
    [
        (1.0, 2, 0),       # ratio 0
        (1.4, 2, 0),       # ratio 2/3
        (1.5, 2, 0),       # ratio exactly 1, strict inequality backs off
        (1.6, 2, 1),       # ratio 1.5
        (1.8, 2, 2),       # ratio 4 capped at k
        (1.8, 5, 3),       # ratio exactly 4 -> strict inequality gives 3
        (1.75, 4, 2),      # ratio exactly 3 -> back off to 2
        (1.99, 3, 3),      # ratio 99 capped at k
    ],
)
def test_select_correction_order(alpha, k, expected):
    assert approx.select_correction_order(alpha, k) == expected


def test_select_correction_order_validation():
    with pytest.raises(ValidationError):
        approx.select_correction_order(2.0, 2)
    with pytest.raises(ValidationError):
        approx.select_correction_order(0.9, 2)
    with pytest.raises(ValidationError):
        approx.select_correction_order(1.5, 0)


def test_edgeworth_order2_frozen_value():
    # exponential(1) variance kernel inputs, n = 100, x = 0
    val = approx.adjusted_cdf(
        approx.edgeworth2(e_gg_eta=-1.0, e_g3=30.0, sigma_g=math.sqrt(2.0), n=100), 0.0
    )
    assert float(val) == pytest.approx(0.5634713281491226, abs=1e-12)


def test_edgeworth_order2_zero_skew_is_normal():
    x = np.linspace(-3, 3, 7)
    val = approx.adjusted_cdf(approx.edgeworth2(e_gg_eta=0.0, e_g3=0.0, sigma_g=1.0, n=50), x)
    np.testing.assert_allclose(val, approx.normal_cdf(x), atol=1e-15)


def test_edgeworth_correction_shrinks_like_inverse_sqrt_n():
    x = 0.7
    d1 = approx.adjusted_cdf(approx.edgeworth2(1.0, 2.0, 1.5, 100), x) - approx.normal_cdf(x)
    d2 = approx.adjusted_cdf(approx.edgeworth2(1.0, 2.0, 1.5, 400), x) - approx.normal_cdf(x)
    assert float(d1 / d2) == pytest.approx(2.0, rel=1e-12)


def test_step_function_distance_hand_case():
    # point mass at 0 against the standard normal: sup gap is 0.5 on both sides
    d = approx.step_function_distance(
        np.array([0.0]), np.array([1.0]), approx.normal_cdf
    )
    assert d == pytest.approx(0.5, abs=1e-15)


def test_step_function_distance_two_sided_at_jumps():
    # single atom with cdf value exactly matching at the jump midpoint:
    # F(x) jumps 0 -> 1 at 0.0, target G(x) = 0.25 there.
    # left limit gap |0 - 0.25| = 0.25, right gap |1 - 0.25| = 0.75.
    d = approx.step_function_distance(
        np.array([0.0]), np.array([1.0]), lambda x: np.full_like(x, 0.25)
    )
    assert d == pytest.approx(0.75, abs=1e-15)


def test_kolmogorov_distance_matches_scipy_kstest():
    rng = np.random.default_rng(11)
    data = rng.normal(size=500)
    ours = approx.kolmogorov_distance(data, approx.normal_cdf)
    ref = stats.kstest(data, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_kolmogorov_distance_with_ties():
    data = np.array([1.0, 1.0, 1.0, 2.0])
    # ecdf jumps to 0.75 at 1.0; against U(0,3): G(1)=1/3, G(2)=2/3
    d = approx.kolmogorov_distance(data, lambda x: np.clip(x / 3.0, 0.0, 1.0))
    assert d == pytest.approx(0.75 - 1.0 / 3.0, abs=1e-15)


def test_dkw_bound_frozen_value():
    assert approx.dkw_bound(10_000, 0.001) == pytest.approx(0.019494746035204052)
    # halving delta widens the band
    assert approx.dkw_bound(10_000, 0.0005) > approx.dkw_bound(10_000, 0.001)


def test_dkw_se():
    assert approx.dkw_se(10_000) == pytest.approx(0.005)
    assert approx.dkw_se(40_000) == pytest.approx(0.0025)


def test_dkw_validation():
    with pytest.raises(ValidationError):
        approx.dkw_bound(0)
    with pytest.raises(ValidationError):
        approx.dkw_bound(100, 0.0)
    with pytest.raises(ValidationError):
        approx.dkw_bound(100, 1.0)


def test_adaptive_simpson_known_integrals():
    assert approx.adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-10
    )
    assert approx.adaptive_simpson(lambda x: x ** 3, -1.0, 2.0) == pytest.approx(
        15.0 / 4.0, abs=1e-10
    )
    assert approx.adaptive_simpson(
        lambda x: math.exp(-x * x), -6.0, 6.0
    ) == pytest.approx(math.sqrt(math.pi), abs=1e-10)


def test_integrate_against_density_moments():
    a = approx.AdjustedNormal((0.0, 0.1))
    # total mass stays 1 for any correction vector
    assert approx.integrate_against_density(lambda x: 1.0, a) == pytest.approx(
        1.0, abs=1e-9
    )
    # third-moment shift: x^3 against -kappa_2 * phi''' contributes 6*kappa_2
    plain = approx.integrate_against_density(
        lambda x: x ** 3, approx.AdjustedNormal()
    )
    shifted = approx.integrate_against_density(lambda x: x ** 3, a)
    assert plain == pytest.approx(0.0, abs=1e-9)
    assert shifted - plain == pytest.approx(6.0 * 0.1, abs=1e-8)
