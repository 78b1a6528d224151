"""Sampler, distribution, and kernel layer tests."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from ustatlab import model, studentize
from ustatlab.errors import (
    ArityError,
    BudgetError,
    InsufficientSample,
    PresetError,
    ValidationError,
)


# ---------------------------------------------------------------------------
# Counter-based streams
# ---------------------------------------------------------------------------

def test_stream_generator_is_reproducible():
    a = model.stream_generator(42, 7).normal(size=100)
    b = model.stream_generator(42, 7).normal(size=100)
    np.testing.assert_array_equal(a, b)


def test_prefix_of_longer_draw_matches_shorter_draw():
    short = model.sample(model.distribution_preset("normal"), 50, 3, stream=5)
    long = model.sample(model.distribution_preset("normal"), 200, 3, stream=5)
    np.testing.assert_array_equal(short, long[:50])


def test_distinct_streams_and_seeds_differ():
    base = model.sample(model.distribution_preset("normal"), 64, 1, stream=0)
    other_stream = model.sample(model.distribution_preset("normal"), 64, 1, stream=1)
    other_seed = model.sample(model.distribution_preset("normal"), 64, 2, stream=0)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


def test_distinct_streams_look_independent():
    # correlation across 4096 draws should be at the 1/sqrt(n) noise level
    x = model.sample(model.distribution_preset("normal"), 4096, 9, stream=100)
    y = model.sample(model.distribution_preset("normal"), 4096, 9, stream=101)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 5.0 / math.sqrt(4096)


def test_negative_sample_size_rejected():
    with pytest.raises(ValidationError):
        model.sample(model.distribution_preset("normal"), -1, 0)


_STEP = model.ROW_BLOCK_CELLS // 100


@pytest.mark.parametrize(
    "ident",
    ["normal", "exponential", "uniform", "bernoulli:0.3", "uniform-atoms:1,2,5", "rademacher"],
)
@pytest.mark.parametrize(
    "rows, n, sizes",
    [
        (37, 100, [37]),  # shorter than one block
        (_STEP, 100, [_STEP]),  # exactly one block
        (2 * _STEP + 11, 100, [_STEP, _STEP, 11]),  # a partial trailing block
    ],
)
def test_row_blocks_join_to_the_chunk_draw(monkeypatch, ident, rows, n, sizes):
    dist = model.distribution_preset(ident)
    make, opened = model.stream_generator, []

    def counting(seed, stream=0):
        opened.append(stream)
        return make(seed, stream)

    monkeypatch.setattr(model, "stream_generator", counting)
    blocks = [(m, block.copy()) for m, block in model.row_blocks(dist, rows, (n,), 5, 3)]
    assert opened == [3]
    assert {m for m, _ in blocks} == {n}
    assert [block.shape for _, block in blocks] == [(m, n) for m in sizes]
    want = model.sample(dist, rows * n, 5, 3).reshape(rows, n)
    np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), want)


def test_row_blocks_take_one_row_when_a_row_exceeds_the_block(monkeypatch):
    monkeypatch.setattr(model, "ROW_BLOCK_CELLS", 64)
    dist = model.distribution_preset("normal")
    blocks = [block.copy() for _, block in model.row_blocks(dist, 3, (100,), 1, 2)]
    assert [b.shape for b in blocks] == [(1, 100)] * 3
    want = model.sample(dist, 300, 1, 2).reshape(3, 100)
    np.testing.assert_array_equal(np.concatenate(blocks), want)


@pytest.mark.parametrize("ident", ["exponential", "uniform-atoms:1,2,5"])
@pytest.mark.parametrize(
    "rows, ns",
    [
        (37, (3, 9, 100, 301)),  # rows of 3, 9 and 100 straddle fills of 301
        (20, (8, 16, 32, 64)),  # a doubling grid: no row straddles
        (5, (499, 700, 1001)),  # rows longer than half the budget
        (6, (2, 1000, 1001)),  # a smaller n almost as long as the largest
        (0, (4, 9)),
    ],
)
def test_row_blocks_draw_the_largest_n_once_and_read_each_n_from_its_prefix(
    monkeypatch, ident, rows, ns
):
    # one pass over the stream, rows * max(ns) draws, gives every n the rows
    # of its own draw, row block by row block; the blocks of the largest n,
    # scored in place, come last in each fill
    monkeypatch.setattr(model, "ROW_BLOCK_CELLS", 1000)
    dist = model.distribution_preset(ident)
    make, fill, opened, drawn = model.stream_generator, model._fill, [], []

    def counting_generator(seed, stream=0):
        opened.append(stream)
        return make(seed, stream)

    def counting_fill(dist, gen, out):
        drawn.append(out.size)
        fill(dist, gen, out)

    monkeypatch.setattr(model, "stream_generator", counting_generator)
    monkeypatch.setattr(model, "_fill", counting_fill)
    got = {n: [] for n in ns}
    order = []
    for n, block in model.row_blocks(dist, rows, ns, 5, 3):
        # a fill holds at most half the budget, or one row of a longer row,
        # and a smaller n's slice of it also the row begun before the fill
        assert block.shape[1] == n and block.size <= max(500, ns[-1]) + ns[-2]
        got[n].append(block.copy())
        order.append(n)
        block[...] = np.nan  # the caller may overwrite what it is given
    assert opened == [3]
    assert sum(drawn) == rows * ns[-1]
    if rows:
        assert order[-1] == ns[-1]
        assert order.count(ns[-1]) == len(drawn)
    for n in ns:
        want = model.sample(dist, rows * n, 5, 3).reshape(rows, n)
        np.testing.assert_array_equal(np.concatenate(got[n] or [want[:0]]), want)


@pytest.mark.parametrize("ns", [(), (0, 4), (8, 8), (16, 8)])
def test_row_blocks_refuse_a_grid_that_is_not_increasing_from_one(ns):
    with pytest.raises(ValidationError):
        next(model.row_blocks(model.distribution_preset("normal"), 4, ns, 1))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def test_bernoulli_support_and_moments():
    d = model.bernoulli(0.3)
    assert model.mean(d) == pytest.approx(0.3)
    assert model.variance(d) == pytest.approx(0.21)
    x = model.sample(d, 10_000, 0)
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.3) < 0.02


def test_bernoulli_validates_probability():
    with pytest.raises(ValidationError):
        model.bernoulli(0.0)
    with pytest.raises(ValidationError):
        model.bernoulli(1.5)


def test_uniform_atoms_rejects_duplicates():
    with pytest.raises(ValidationError):
        model.uniform_atoms([1.0, 1.0, 2.0])


def test_finite_discrete_probs_must_sum_to_one():
    with pytest.raises(ValidationError):
        model.FiniteDiscrete("bad", np.array([0.0, 1.0]), np.array([0.5, 0.4]))


@pytest.mark.parametrize(
    "ident,mean,var",
    [
        ("normal", 0.0, 1.0),
        ("exponential", 1.0, 1.0),
        ("uniform", 0.5, 1.0 / 12.0),
        ("rademacher", 0.0, 1.0),
        ("bernoulli:0.3", 0.3, 0.21),
        ("uniform-atoms:-1,0,1", 0.0, 2.0 / 3.0),
    ],
)
def test_distribution_presets_expose_moments(ident, mean, var):
    d = model.distribution_preset(ident)
    assert model.mean(d) == pytest.approx(mean, abs=1e-12)
    assert model.variance(d) == pytest.approx(var, abs=1e-12)


def test_preset_prefix_is_optional():
    a = model.distribution_preset("dist:bernoulli:0.25")
    b = model.distribution_preset("bernoulli:0.25")
    np.testing.assert_array_equal(a.atoms, b.atoms)


def test_unknown_distribution_preset():
    with pytest.raises(PresetError):
        model.distribution_preset("cauchy")


# the preset laws' densities and the intervals that carry their mass
DENSITIES = {
    "normal": (lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), -12.0, 12.0),
    "exponential": (lambda x: math.exp(-x), 0.0, 60.0),
    "uniform": (lambda x: 1.0, 0.0, 1.0),
}


def test_continuous_moment_tables_match_quadrature():
    for ident, (pdf, lo, hi) in DENSITIES.items():
        d = model.distribution_preset(ident)
        for p in (2, 3, 4, 5, 6):
            table = model.central_moment(d, p)
            mu = d.mean
            quad, _ = integrate.quad(lambda x: (x - mu) ** p * pdf(x), lo, hi, limit=200)
            assert table == pytest.approx(quad, abs=1e-9), (ident, p)


def test_exponential_abs_moment_matches_high_precision_value():
    # E|X - 1|^1.7 for a standard exponential X, from mpmath at 30 digits;
    # adaptive quadrature of the kinked integrand misses it by about 2e-10
    want = 0.856582653759640841602886
    got = model.abs_central_moment(model.distribution_preset("exponential"), 1.7)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
def test_abs_central_moments_of_the_presets(r):
    normal = math.sqrt(2.0**r / math.pi) * math.gamma((r + 1.0) / 2.0)
    uniform = 2.0 * 0.5 ** (r + 1.0) / (r + 1.0)
    # E|X - 1|^r = (Gamma(r + 1) + int_0^1 u^r e^u du) / e for the exponential;
    # by parts the integral is 1, e - 2 and 6 - 2e at r = 1, 2 and 3
    below = {1.0: 1.0, 2.0: math.e - 2.0, 3.0: 6.0 - 2.0 * math.e}
    cases = {"normal": normal, "uniform": uniform}
    if r in below:
        cases["exponential"] = (math.gamma(r + 1.0) + below[r]) / math.e
    for ident, want in cases.items():
        got = model.abs_central_moment(model.distribution_preset(ident), r)
        assert got == pytest.approx(want, rel=1e-14, abs=0), (ident, r)
    # integer even orders are the central moments themselves
    if r % 2 == 0:
        for ident in ("normal", "exponential", "uniform"):
            d = model.distribution_preset(ident)
            assert model.abs_central_moment(d, r) == pytest.approx(
                model.central_moment(d, int(r)), rel=1e-15, abs=0
            )


def test_abs_central_moment_is_exact_or_stated_by_the_law():
    exp = model.distribution_preset("exponential")
    # a law that states no moments has none to give: nothing integrates them
    hand = model.Continuous("hand", exp.sampler, exp.mean, exp.var)
    assert hand.abs_central_moment is None
    with pytest.raises(ValidationError):
        model.abs_central_moment(hand, 1.0)
    for p in (2, 3):
        with pytest.raises(ValidationError):
            model.central_moment(hand, p)
    d = model.bernoulli(0.3)
    # |x - 0.3| is 0.3 w.p. 0.7 and 0.7 w.p. 0.3
    assert model.abs_central_moment(d, 1.5) == pytest.approx(
        0.7 * 0.3**1.5 + 0.3 * 0.7**1.5, rel=1e-15, abs=0
    )
    with pytest.raises(ValidationError):
        model.abs_central_moment(exp, -0.5)


@pytest.mark.parametrize("ident", ["normal", "exponential", "uniform"])
def test_continuous_presets_carry_their_quantile_function(ident):
    dist = model.distribution_preset(ident)
    u = np.array([1e-300, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    np.testing.assert_allclose(dist.cdf(dist.ppf(u)), u, rtol=1e-13, atol=0.0)
    # a hand-built law has no quantile function unless it is given one
    hand = model.Continuous("hand", dist.sampler, dist.mean, dist.var)
    assert hand.ppf is None


def test_gaussian_abs_moment_values():
    # E|Z|^3 = 2 sqrt(2/pi)
    assert model.gaussian_abs_moment(3.0) == pytest.approx(
        2.0 * math.sqrt(2.0 / math.pi), rel=1e-14, abs=0
    )
    assert model.gaussian_abs_moment(2.0) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert model.gaussian_abs_moment(0.0) == pytest.approx(1.0, rel=1e-14, abs=0)
    # even orders are the double factorials, exactly
    assert [model.gaussian_abs_moment(r) for r in (0, 2, 4, 6, 8.0)] == [1, 1, 3, 15, 105]


def test_gaussian_negative_moment_against_quadrature():
    from scipy import integrate

    for a in (0.1, 0.4, 0.45):
        closed = model.gaussian_abs_moment(-a)
        val, _ = integrate.quad(
            lambda z: abs(z) ** (-a) * math.exp(-z * z / 2.0) / math.sqrt(2 * math.pi),
            -12.0,
            12.0,
            points=[0.0],
            limit=400,
        )
        assert closed == pytest.approx(val, rel=1e-9, abs=0), a


def test_gaussian_negative_moment_range():
    with pytest.raises(ValidationError):
        model.gaussian_abs_moment(-1.0)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_builtin_kernels_are_symmetric_bitwise():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(2, 256))
    for ident in ("variance", "gini", "product", "quadratic:0.7"):
        k = model.kernel_preset(ident)
        np.testing.assert_array_equal(k.fn(x, y), k.fn(y, x))


def test_kernel_hand_values():
    assert model.eval_kernel(model.variance_kernel(), (1.0, 4.0)) == pytest.approx(4.5)
    assert model.eval_kernel(model.gini_kernel(), (1.0, 4.0)) == pytest.approx(3.0)
    assert model.eval_kernel(model.product_kernel(), (2.0, 3.0)) == pytest.approx(6.0)
    k = model.quadratic_kernel(0.5)
    assert model.eval_kernel(k, (2.0, 3.0)) == pytest.approx(2.5 + 0.5 * 6.0)


def test_eval_kernel_checks_arity_and_finiteness():
    k = model.variance_kernel()
    with pytest.raises(ArityError):
        model.eval_kernel(k, (1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        model.eval_kernel(k, (1.0, math.inf))


def test_kernel_preset_parsing():
    k = model.kernel_preset("kernel:quadratic:0.25")
    assert k.quad_coefs == (0.5, 0.0, 0.25)
    with pytest.raises(PresetError):
        model.kernel_preset("cubic")
    with pytest.raises(PresetError):
        model.kernel_preset("quadratic:not-a-number")


def test_closed_forms_are_set_only_by_presets():
    assert model.variance_kernel().quad_coefs == (0.0, 0.5, -1.0)
    assert model.product_kernel().quad_coefs == (0.0, 0.0, 1.0)
    assert model.kernel_preset("quadratic:0.25").quad_coefs == (0.5, 0.0, 0.25)
    assert model.gini_kernel().quad_coefs is None
    for ident in ("variance", "gini", "product", "quadratic:0.25"):
        assert model.kernel_preset(ident).rows is not None
    hand = model.Kernel("variance", 2, lambda x, y: 0.5 * (x - y) ** 2)
    sym = model.symmetrize(lambda x, y: x * y, 2, ident="product")
    for k in (hand, sym):
        assert k.quad_coefs is None and k.rows is None
    with pytest.raises(ValidationError):
        model.Kernel("cubic", 3, lambda a, b, c: a * b * c, quad_coefs=(0.0, 0.0, 1.0))


@pytest.mark.parametrize(
    "coefs, fn",
    [
        # the variance kernel written without the cancellation of
        # x^2 + y^2 - 2xy, so that it is a reference on shifted data too
        ((0.0, 0.5, -1.0), lambda x, y: 0.5 * np.square(x - y)),
        ((0.0, 0.0, 1.0), None),
        ((0.5, 0.0, 0.3), None),
        ((0.3, 0.2, -0.5), None),
        ((-1.2, 0.0, 0.0), None),
        ((0.0, -0.7, 0.0), None),
    ],
    ids=["variance", "product", "quadratic", "all-three", "linear", "squares"],
)
@pytest.mark.parametrize("n", [3, 4, 9, 64])
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_generated_row_forms_match_pairwise_sums(coefs, fn, n, shift):
    a, b, c = coefs
    if fn is None:
        def fn(x, y):
            return a * (x + y) + b * (x * x + y * y) + c * (x * y)

    kernel = model.Kernel("hand-quadratic", 2, fn, quad_coefs=coefs)
    rows = shift + np.random.default_rng(n).exponential(size=(12, n))
    u = kernel.rows.u(rows.copy())
    ju, ss = kernel.rows.jackknife(rows.copy())
    assert ju.shape == ss.shape == (rows.shape[0],)
    # the shift costs no digits, not even to the location-free variance; the
    # reference sums over pairs, which a kernel without row forms does
    bare = model.Kernel("hand-quadratic", 2, fn)
    for r, row in enumerate(rows):
        want_q, want_u = studentize._leave_one_out_means(bare, row)
        assert u[r] == pytest.approx(want_u, rel=1e-12, abs=0)
        assert ju[r] == pytest.approx(want_u, rel=1e-12, abs=0)
        # q within rtol of the reference moves the deviation vector by at
        # most rtol * |q| in norm, so its root sum of squares moves no more
        want_ss = np.sum(np.square(want_q - want_u))
        assert abs(math.sqrt(ss[r]) - math.sqrt(want_ss)) <= 1e-12 * np.linalg.norm(want_q)
        if not shift:
            assert u[r] == pytest.approx(model.u_statistic(kernel, row), rel=1e-12, abs=0)


def test_generated_loo_is_exact_on_zero_one_rows():
    # under the product kernel a 0/1 row with one 1 has q = 0 everywhere,
    # whatever n; shifting each row by a data point keeps this exact
    for n in (5, 12):
        rows = np.zeros((2, n))
        rows[0, 0] = rows[1, -1] = 1.0
        u, ss = model.product_kernel().rows.jackknife(rows)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(ss, 0.0)


def test_kernel_refuses_both_quad_coefs_and_rows():
    rows = model.variance_kernel().rows
    with pytest.raises(ValidationError):
        model.Kernel("variance", 2, lambda x, y: 0.5 * (x - y) ** 2,
                     quad_coefs=(0.0, 0.5, -1.0), rows=rows)


def test_symmetrize_produces_symmetric_kernel():
    k = model.symmetrize(lambda x, y: x * x * y, order=2)
    assert model.eval_kernel(k, (2.0, 3.0)) == model.eval_kernel(k, (3.0, 2.0))
    # average of x^2 y and y^2 x
    assert model.eval_kernel(k, (2.0, 3.0)) == pytest.approx(0.5 * (12.0 + 18.0))


# ---------------------------------------------------------------------------
# U-statistic evaluation
# ---------------------------------------------------------------------------

def test_u_statistic_order2_hand_value():
    # variance kernel on (1, 2, 4): pairs (1,2),(1,4),(2,4) -> (0.5 + 4.5 + 2)/3
    u = model.u_statistic(model.variance_kernel(), np.array([1.0, 2.0, 4.0]))
    assert u == pytest.approx(7.0 / 3.0, rel=1e-15, abs=0)
    # equals the ddof=1 sample variance
    assert u == pytest.approx(np.var([1.0, 2.0, 4.0], ddof=1), rel=1e-14, abs=0)


def test_u_statistic_sums_over_several_blocks():
    x = np.random.default_rng(3).normal(size=400)  # 79,800 pairs: 3 blocks
    u = model.u_statistic(model.variance_kernel(), x)
    assert u == pytest.approx(np.var(x, ddof=1), rel=1e-13, abs=0)


def test_u_statistic_matches_bruteforce_order3():
    rng = np.random.default_rng(4)
    x = rng.normal(size=7)
    k = model.symmetrize(lambda a, b, c: a * b + c, order=3)
    expected = np.mean(
        [model.eval_kernel(k, combo) for combo in itertools.combinations(x, 3)]
    )
    assert model.u_statistic(k, x) == pytest.approx(expected, rel=1e-12, abs=0)


def test_u_statistic_matches_bruteforce_order4():
    rng = np.random.default_rng(5)
    x = rng.normal(size=7)
    k = model.symmetrize(lambda a, b, c, d: a * b * c * d, order=4)
    expected = np.mean(
        [model.eval_kernel(k, combo) for combo in itertools.combinations(x, 4)]
    )
    assert model.u_statistic(k, x) == pytest.approx(expected, rel=1e-12, abs=0)


def test_u_statistic_insufficient_sample():
    with pytest.raises(InsufficientSample, match="kernel order"):
        model.u_statistic(model.variance_kernel(), np.array([1.0]))


def test_u_statistic_budget():
    with pytest.raises(BudgetError):
        model.u_statistic(model.variance_kernel(), np.zeros(100), budget=10)


@pytest.mark.parametrize("n, k", [(5, 1), (6, 3), (70, 3), (9, 9)])
def test_subset_blocks_enumerate_lexicographically(n, k):
    blocks = list(model.subset_blocks(n, k))
    assert all(b.shape[0] == k and 0 < b.shape[1] <= model.SUBSET_BLOCK for b in blocks)
    subsets = [tuple(col) for b in blocks for col in b.T.tolist()]
    assert subsets == list(itertools.combinations(range(n), k))


def test_subset_blocks_check_the_budget_at_the_call():
    with pytest.raises(BudgetError, match="C\\(70,3\\) = 54740"):
        model.subset_blocks(70, 3, budget=54739)


def test_u_statistic_rejects_bad_input():
    with pytest.raises(ValidationError):
        model.u_statistic(model.variance_kernel(), np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):
        model.u_statistic(model.variance_kernel(), np.array([1.0, math.nan]))
