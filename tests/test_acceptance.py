"""End-to-end acceptance checks.

Each test covers one acceptance item and prints a single pass/fail line
(visible with pytest -s; the -v test names mirror the numbering).  The
slow items drive full Monte Carlo experiments and take about ten seconds
combined; everything is seeded, so reruns are deterministic.
"""

import math
import time

import numpy as np

from ustatlab import approx, exper, hoeffding, model, oracle

MATRIX = [
    ("variance", "bernoulli:0.3"),
    ("variance", "uniform-atoms:-1,0,1"),
    ("gini", "bernoulli:0.3"),
    ("gini", "uniform-atoms:-1,0,1"),
]

RATE_GRID = (8, 16, 32, 64, 128, 256)


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    text = f"acceptance {num:2d} [{status}] {desc}"
    if detail:
        text = f"{text} ({detail})"
    print(text)
    assert ok, text


def _decompositions(n_values):
    for kernel_id, dist_id in MATRIX:
        kernel = model.kernel_preset(kernel_id)
        dist = model.distribution_preset(dist_id)
        for n in n_values:
            yield kernel_id, dist_id, kernel, dist, n


def test_acceptance_01_projection_reconstructs_the_kernel():
    start = time.perf_counter()
    worst = 0.0
    for _, _, kernel, dist, n in _decompositions([6]):
        d = hoeffding.decompose(kernel, dist, n)
        proj = d.projection
        for x in dist.atoms:
            gx = proj.component(1, (x,))
            for y in dist.atoms:
                recon = (
                    d.theta
                    + gx
                    + proj.component(1, (y,))
                    + proj.component(2, (x, y))
                )
                dev = abs(model.eval_kernel(kernel, (x, y)) - recon)
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _line(
        1,
        "kernel equals mean plus summed projections on the preset matrix",
        worst <= 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_02_oracle_orthogonality_and_mc_coverage():
    start = time.perf_counter()
    ortho_ok = True
    exact_refs = []
    for kernel_id, dist_id, kernel, dist, n in _decompositions([4, 5, 6]):
        report = oracle.exact_distribution(kernel, dist, n)
        ortho_ok &= report.kappa[0] == 0.0
        ortho_ok &= abs(report.cov_l_t) <= 1e-12
        ortho_ok &= all(
            abs(v) <= 1e-12 for v in report.linear_component_cross.values()
        )
        ortho_ok &= all(abs(v) <= 1e-12 for v in report.component_cross.values())
        d = hoeffding.decompose(kernel, dist, n)
        refs = (
            hoeffding.beta(d),
            hoeffding.gamma_var(d),
            hoeffding.kappa(d, 2),
        )
        exact_refs.append((kernel, dist, n, refs))

    successes = 0
    for seed in range(100):
        run_ok = True
        for kernel, dist, n, (b_ref, g_ref, k_ref) in exact_refs:
            mc = hoeffding.decompose(
                kernel, dist, n, strategy="monte-carlo", seed=seed
            )
            summary = hoeffding.moment_summary(mc)
            b_se = summary.beta_se
            k_se = summary.kappa_se[1]
            g_tot_se = summary.gamma_se
            run_ok &= abs(hoeffding.beta(mc) - b_ref) <= 4.0 * b_se
            run_ok &= abs(hoeffding.gamma_var(mc) - g_ref) <= 4.0 * g_tot_se
            run_ok &= abs(hoeffding.kappa(mc, 2) - k_ref) <= 4.0 * k_se
        successes += run_ok
    elapsed = time.perf_counter() - start
    _line(
        2,
        "exact orthogonality holds and MC moments track the oracle",
        ortho_ok and successes >= 95 and elapsed < 120.0,
        f"{successes}/100 runs within 4 SE, {elapsed:.1f}s",
    )


def test_acceptance_03_quadratic_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    normal = model.distribution_preset("normal")
    for eps in (0.1, 0.25, 0.5, 1.0):
        kernel = model.kernel_preset(f"quadratic:{eps}")
        for n in (5, 10, 25, 100):
            d = hoeffding.decompose(kernel, normal, n)
            worst = max(worst, abs(hoeffding.kappa(d, 2) - eps / math.sqrt(n)))
            worst = max(
                worst, abs(hoeffding.gamma_var(d) - 2.0 * eps * eps / (n - 1))
            )
    elapsed = time.perf_counter() - start
    _line(
        3,
        "coupled-pair preset matches its closed-form coefficients",
        worst <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_04_standardized_rate_slope():
    cfg = exper.ExperimentConfig(
        kernel="variance",
        dist="exponential",
        n_grid=RATE_GRID,
        reps=200_000,
        seed=0,
        threads=4,
    )
    report = exper.run_ecdf_experiment(cfg)
    _line(
        4,
        "standardized variance statistic converges at the root-n rate",
        report.slope is not None and -0.65 <= report.slope <= -0.35,
        f"slope {report.slope:.3f}",
    )


def test_acceptance_05_adjusted_target_beats_plain_normal():
    study = exper.quadratic_counterexample(0.5, 25, reps=1_000_000, seed=0, threads=4)
    margin = study.dist_phi - study.dist_adjusted
    floor = 3.0 * math.sqrt(2.0) * study.se
    _line(
        5,
        "adjusted target is closer than the plain normal",
        margin > floor,
        f"margin {margin:.5f} vs floor {floor:.5f}",
    )


def test_acceptance_06_studentized_rate_slope():
    cfg = exper.ExperimentConfig(
        kernel="variance",
        dist="exponential",
        n_grid=RATE_GRID,
        reps=200_000,
        seed=0,
        estimator="studentized",
        threads=4,
    )
    report = exper.run_ecdf_experiment(cfg)
    _line(
        6,
        "studentized variance statistic converges at the root-n rate",
        report.slope is not None and -0.65 <= report.slope <= -0.35,
        f"slope {report.slope:.3f}",
    )


def test_acceptance_07_perturbed_normal_exponent():
    start = time.perf_counter()
    report = exper.perturbed_normal_study(0.45)
    elapsed = time.perf_counter() - start
    want = 1.0 / 1.45
    _line(
        7,
        "perturbed-normal distance exponent matches 1/(a+1) and its bound",
        abs(report.exponent - want) <= 0.1
        and report.satisfies_bound
        and elapsed < 10.0,
        f"exponent {report.exponent:.3f} vs {want:.3f}, {elapsed:.1f}s",
    )


def test_acceptance_08_characteristic_function_envelope_shrinks():
    cfg = exper.ExperimentConfig(
        kernel="quadratic:0.5",
        dist="normal",
        n_grid=(25, 100),
        reps=200_000,
        seed=0,
        threads=4,
    )
    t_grid = tuple(float(t) for t in np.linspace(-3.0, 3.0, 25))
    report = exper.char_function_check(cfg, t_grid)
    r25 = report.max_ratio_by_n[25]
    r100 = report.max_ratio_by_n[100]
    slack = 3.0 * math.sqrt(
        report.max_ratio_se_by_n[100] ** 2 + 4.0 * report.max_ratio_se_by_n[25] ** 2
    )
    _line(
        8,
        "transform gap over its envelope does not grow with n",
        r100 <= 2.0 * r25 + slack,
        f"ratio {r100:.4f} at n=100 vs {r25:.4f} at n=25",
    )


def test_acceptance_09_null_case_stays_in_dkw_band():
    band = approx.dkw_bound(10_000, 0.001)
    worst = 0.0
    ok = True
    for seed in range(20):
        cfg = exper.ExperimentConfig(
            kernel="quadratic:0.0",
            dist="normal",
            n_grid=RATE_GRID,
            reps=10_000,
            seed=seed,
        )
        report = exper.run_ecdf_experiment(cfg)
        for row in report.rows:
            worst = max(worst, row.distance)
            ok &= row.distance <= band
    _line(
        9,
        "uncoupled preset stays inside the 99.9% DKW band for 20 seeds",
        ok,
        f"worst distance {worst:.4f} vs band {band:.4f}",
    )


def test_acceptance_10_reports_are_thread_count_invariant():
    outputs = set()
    for threads in (1, 4, 8):
        cfg = exper.ExperimentConfig(
            kernel="variance",
            dist="exponential",
            n_grid=(8, 16),
            reps=12_288,
            seed=7,
            threads=threads,
        )
        report = exper.run_ecdf_experiment(cfg)
        outputs.add(
            (exper.rate_csv_text(report), exper.json_text(report.to_json()))
        )
    _line(
        10,
        "CSV and JSON reports are byte-identical at 1, 4, and 8 threads",
        len(outputs) == 1,
        f"{len(outputs)} distinct outputs",
    )


def test_acceptance_11_moment_inequalities_hold_exactly():
    ok = True
    checked = 0
    for _, _, kernel, dist, n in _decompositions([4, 5, 6]):
        d = hoeffding.decompose(kernel, dist, n)
        report = hoeffding.moment_inequalities(d, alpha=1.8, tol=1e-12)
        ok &= report.all_passed
        ok &= all(item.passed for item in report.items)
        checked += len(report.items)
    _line(
        11,
        "structural moment inequalities hold on every exact configuration",
        ok and checked > 0,
        f"{checked} inequality items",
    )
