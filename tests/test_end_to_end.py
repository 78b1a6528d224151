"""Whole CLI commands, run in process through cli.main, checked on their files.

Every subcommand of the CLI's registry has at least one strict-JSON case
here, so a new subcommand without one fails; and the studentized rate
experiment writes the same bytes on one thread as on two.
"""

import json

import pytest

from ustatlab import cli

_MC = ["--strategy", "monte-carlo", "--inner-reps", "500"]
_GINI_DATA = ["--kernel", "gini", "--dist", "exponential", "--n", "4", "--data", "1,2,3,4.5"]
_ORACLE = ["--kernel", "gini", "--dist", "bernoulli:0.3", "--n", "8"]

# subcommand -> the command lines whose payloads must be strict JSON:
# approx-eval far in the tails, and each projection strategy's bars
STRICT_JSON_CASES = {
    "decompose": [_GINI_DATA, _GINI_DATA + _MC],
    "moments": [
        ["--kernel", "variance", "--dist", "exponential", "--n", "25", "--inequalities"],
        ["--kernel", "gini", "--dist", "exponential", "--n", "25", "--inequalities"] + _MC,
    ],
    "approx-eval": [
        ["--kappa", "0,0.1,0.02", "--x=1e200,-1e200,0", "--t", "1e200,1"],
        ["--kappa", "0,0.1", "--select-alpha", "1.8", "--kernel-order", "3"],
    ],
    "studentize": [["--kernel", "variance", "--theta", "1", "--data", "1,2,3,4.5"]],
    "oracle": [_ORACLE, _ORACLE + ["--u-only"]],
    "simulate": [["--kernel", "variance", "--dist", "exponential", "--n-grid", "8,16,32",
                  "--reps", "2000"]],
    "counterexample": [["--eps", "0.5", "--n", "10", "--reps", "2000"]],
    "example1": [["--a", "0.3", "--eps-grid", "0.001,0.003,0.01"]],
    "cf-check": [["--preset", "quadratic", "--eps", "0.5", "--n-grid", "8,16", "--reps", "2000"]],
    "smooth-check": [["--kernel", "gini", "--dist", "uniform", "--n-grid", "8,16",
                      "--reps", "2000"]],
}


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(autouse=True)
def _no_thread_variable(monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV_VAR, raising=False)


@pytest.mark.parametrize("sub", sorted(set(cli._SUBCOMMANDS) | set(STRICT_JSON_CASES)))
def test_every_subcommand_writes_strict_json(capsys, tmp_path, sub):
    # RFC 8259 has no NaN or Infinity: each payload must parse with them refused
    assert sub in cli._SUBCOMMANDS, f"{sub} is not a subcommand"
    cases = STRICT_JSON_CASES.get(sub)
    assert cases, f"{sub} has no end-to-end case"
    for i, flags in enumerate(cases):
        out = tmp_path / str(i)
        out.mkdir()
        ext = ".csv" if sub == "simulate" else ".json"
        rc = cli.main([sub, *flags, "--out", str(out / f"{sub}{ext}")])
        assert rc == 0, capsys.readouterr().err
        written = sorted(out.glob("*.json"))
        assert written, flags
        for path in written:
            json.loads(path.read_text(), parse_constant=_refuse)


def test_studentized_simulate_is_byte_identical_on_one_and_two_threads(capsys, tmp_path):
    # one pool scores the chunks of every n of the grid, so the order in
    # which workers finish must not reach the CSV or its JSON sidecar
    argv = ["simulate", "--kernel", "variance", "--dist", "exponential",
            "--n-grid", "8,16,32,64,128,256", "--reps", "30000", "--seed", "0",
            "--estimator", "studentized"]
    files = {}
    for threads in ("1", "2"):
        csv = tmp_path / f"stu-threads-{threads}.csv"
        rc = cli.main(argv + ["--threads", threads, "--out", str(csv)])
        assert rc == 0, capsys.readouterr().err
        files[threads] = [csv.read_bytes(), csv.with_suffix(".json").read_bytes()]
    assert files["2"] == files["1"]
