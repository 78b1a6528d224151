"""Failure counting and payload checks of one benchmark repetition."""

import json
from dataclasses import asdict

import pytest

import rep
import run
import workloads


def command(tmp_path, check=lambda payload: []):
    path = tmp_path / "out.json"
    return workloads.Command("oracle_gini_s", ("oracle", "--out", str(path)), str(path),
                             (str(path),), check)


def writer(text, code=0):
    def main(argv):
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write(text)
        return code

    return main


def test_corrupted_payload_counts_as_failure(tmp_path):
    good = rep.run_command(writer('{"report": {}}'), command(tmp_path))
    bad = rep.run_command(writer('{"report": {"prob_'), command(tmp_path))
    assert good.ok and not bad.ok
    assert "unreadable payload" in bad.error
    assert run.fail_frac([{"commands": [asdict(good), asdict(bad)]}]) == 0.5


def test_raise_exit_code_and_failed_check_count_as_failures(tmp_path):
    def boom(argv):
        raise RuntimeError("boom")

    def usage(argv):
        raise SystemExit(2)

    results = [
        rep.run_command(boom, command(tmp_path)),
        rep.run_command(usage, command(tmp_path)),
        rep.run_command(writer("{}", code=1), command(tmp_path)),
        rep.run_command(writer("{}"), command(tmp_path, check=lambda p: ["wrong"])),
    ]
    assert [r.ok for r in results] == [False] * 4
    assert run.fail_frac([{"commands": [asdict(r) for r in results]}]) == 1.0


def test_normalized_wall_uses_the_reference_times_around_each_command():
    results = [rep.CommandResult("a", 1.0, True, client_s=0.5),
               rep.CommandResult("b", 3.0, True)]
    # Command a sat between references of 0.1 and 0.3 s, b between 0.3 and 0.1 s.
    want = 1.5 * rep.REF_S / 0.2 + 3.0 * rep.REF_S / 0.2
    assert rep.normalized_wall(results, [0.1, 0.3, 0.1]) == pytest.approx(want)
    assert rep.normalized_wall(results, [rep.REF_S] * 3) == pytest.approx(4.5)


def test_reference_processes_time_their_job_and_end():
    reference = rep.Reference(2)
    try:
        times = [reference.time(), reference.time()]
    finally:
        reference.close()
    assert all(t > 0.0 for t in times)
    assert [p.returncode for p in reference.procs] == [0, 0]


def oracle_payload(**changes):
    report = {"prob_total": 1.0, "mean_s": 1e-15, "var_s": 1.25, "gamma": 0.25,
              "e_tt_full": 0.25, "kappa": [0.0, -0.3], "cov_l_t": -2e-15,
              "component_cross": {}, "linear_component_cross": {"2": 1e-15}}
    report.update(changes)
    return {"report": report}


def test_oracle_check():
    assert workloads.check_oracle(oracle_payload()) == []
    assert workloads.check_oracle(oracle_payload(var_s=1.2500001))
    assert workloads.check_oracle(oracle_payload(linear_component_cross={"2": 1e-6}))
    assert workloads.check_oracle(oracle_payload(prob_total=None))


@pytest.mark.parametrize("slope, ok", [(-0.5, True), (-0.34, False), (-0.66, False), (None, False)])
def test_rate_slope_check(slope, ok):
    assert (workloads.check_rate_slope({"fit": {"slope": slope}}) == []) == ok


@pytest.mark.parametrize("kappa_se, ok", [
    ([None, 0.01, 0.02], True),
    ([None, None], False),
    ([None, 0.01, float("nan")], False),
    ([0.0, 0.01], False),
    ([None], False),
])
def test_moment_se_check(kappa_se, ok):
    payload = {"moments": {"beta_se": 0.1, "gamma_se": 0.2, "gamma_alpha_se": 0.3,
                           "kappa_se": kappa_se}}
    assert (workloads.check_moment_ses(payload) == []) == ok


def test_adjusted_rate_check():
    payload = {"theta": 1.01, "sigma_g": (1 / 3) ** 0.5, "config": {"reps": 1000},
               "rows": [{"n": 16, "distance": 0.05, "se": (0.25 / 1000) ** 0.5, "dropped": 0}]}
    assert workloads.check_adjusted_rate(payload, inner_reps=10_000) == []
    payload["theta"] = 1.05
    payload["rows"][0]["dropped"] = 3
    assert len(workloads.check_adjusted_rate(payload, inner_reps=10_000)) == 2


def test_every_workload_builds(tmp_path):
    for name in workloads.NAMES:
        wl = workloads.build(name, 7, 2, str(tmp_path))
        assert wl.work > 0
        assert all("--seed" in c.argv for c in wl.commands if c.argv[0] != "oracle")
    assert json.dumps(workloads.build("mc-rate", 7, 2, "d").commands[0].argv).count('"7"') == 1
