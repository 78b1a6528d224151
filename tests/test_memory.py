"""Memory guard of the Monte Carlo engine.

A replicate chunk is drawn in one pass to the grid's largest n and scored
in row blocks; the block and the scratch that each smaller n is copied into
share ``model.ROW_BLOCK_CELLS`` draws, so the memory of a run stays flat in
n: one whole chunk of 4,096 rows at n = 4,096 would be 128 MiB of draws.
numpy reports its allocations to ``tracemalloc``, which the guard reads.
"""

import tracemalloc

import pytest

from ustatlab import cli, exper, model


@pytest.mark.parametrize("n_grid", [(4096,), (1024, 2048, 4096)], ids=["n", "grid"])
@pytest.mark.parametrize("estimator", ["standardized", "studentized"])
def test_large_n_run_traces_under_16_mib(estimator, n_grid):
    cfg = exper.ExperimentConfig(
        kernel="variance", dist="exponential", n_grid=n_grid, reps=4096, seed=0,
        threads=1, estimator=estimator,
    )
    tracemalloc.start()
    try:
        exper.run_ecdf_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_block_split_studentized_payload_is_byte_identical_across_threads(capsys, tmp_path):
    # at n = 100 and 300 a chunk spans several row blocks and ends in a
    # partial one; 5,000 replicates leave a short last chunk, and make two
    # chunks, so three threads run one worker per chunk
    assert 4096 * 100 > model.ROW_BLOCK_CELLS
    written = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"rates{threads}.csv"
        rc = cli.main([
            "simulate", "--kernel", "variance", "--dist", "exponential",
            "--estimator", "studentized", "--n-grid", "8,100,300", "--reps", "5000",
            "--seed", "7", "--threads", threads, "--out", str(out),
        ])
        assert rc == 0, capsys.readouterr().err
        written.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert written[0] == written[1] == written[2]
