"""Benchmark of the ustatlab command line workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc-rate --seed 0 --seconds 40 --trace 0

Each repetition of a workload is one fresh Python process (``rep.py``) that
imports ``ustatlab.cli`` from the checkout's ``src`` and runs the workload's
commands as one closed-loop client.  Repetitions run one after another until
one more would end after ``--seconds`` (at least three run); every metric is
the median over them.  Set-up time also takes the median over extra
processes that only import the package.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics of ``BENCHMARK.json``.  Its times are ``wall_norm_s`` (see
``rep.py``): on a shared host the raw wall time of a whole run swings by a
third from one minute to the next, and the reference job's time takes most
of that out.  With ``--trace 1`` the run makes one untraced and one traced
repetition (plus, on ``mc-rate``, a 1-thread run of the standardized
``simulate`` for ``exper.scaling_eff``) and reports the per-layer metrics,
including the tracing overhead.  Layer metrics a workload does not reach
read 0; ``exper.scaling_eff`` is measured on ``mc-rate`` only.

The lines before the last one give every per-command time under its own
name, the environment, the source size and the checks that failed.  The full
record of the run goes to ``.perfbench_out/`` in the checkout.

Child processes see no ``USTATLAB_THREADS`` and get ``--threads`` explicitly,
at most ``nproc``; BLAS libraries are held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from rep import REF_S
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
MIN_REPS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def src_lines(src: Path) -> dict[str, int]:
    """Line counts of the package's modules, plus their total as ``src_lines``."""
    counts = {
        f"src_lines.{p.stem}": p.read_bytes().count(b"\n")
        for p in sorted(src.glob("*.py"))
    }
    counts["src_lines"] = sum(counts.values())
    return counts


def environment(root: Path, seed: int, nproc: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        **src_lines(root / "src" / "ustatlab"),
    }


class Runner:
    """Starts repetition processes for one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int, nproc: int, tmp: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.nproc = nproc
        self.tmp = tmp
        self.started = time.monotonic()
        env = {k: v for k, v in os.environ.items() if k != "USTATLAB_THREADS"}
        env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def child(self, *extra: str, threads: int | None = None) -> dict:
        outdir = tempfile.mkdtemp(dir=self.tmp)
        argv = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--threads", str(threads or self.nproc), "--outdir", outdir, *extra,
        ]
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"out of time after {DEADLINE_S} s")
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition did not finish within {left:.0f} s") from exc
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        return json.loads(lines[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def rep_times(rep: dict) -> dict[str, float]:
    """The times of one repetition: ``wall_s`` and one per command."""
    return {"wall_s": rep["wall_s"], **{c["name"]: c["seconds"] for c in rep["commands"]}}


def failures(reps: list[dict]) -> list[str]:
    return [f"{c['name']}: {c['error']}" for rep in reps for c in rep["commands"] if not c["ok"]]


def fail_frac(reps: list[dict]) -> float:
    """Failed commands over attempted commands."""
    return len(failures(reps)) / sum(len(rep["commands"]) for rep in reps)


def measure(runner: Runner, wl: workloads.Workload, seconds: float) -> tuple[dict, list[str]]:
    """Untraced repetitions for ``seconds``: end-to-end metrics and report lines."""
    setups = [runner.child("--setup-only") for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    took: list[float] = []
    start = time.monotonic()
    # Start a repetition only if one of median length still ends in time, so
    # that a run measures for close to ``seconds`` and never much longer.
    while len(reps) < MIN_REPS or time.monotonic() - start + median(took) <= seconds:
        began = time.monotonic()
        reps.append(runner.child())
        took.append(time.monotonic() - began)
    setups += reps
    setup = [r["setup_s"] for r in setups]
    times = [rep_times(r) for r in reps]
    series = {key: [t[key] for t in times] for key in times[0]}
    attempted = sum(len(r["commands"]) for r in reps)
    failed = len(failures(reps))
    norm = [r["wall_norm_s"] for r in reps]
    refs = [t for r in reps for t in r["ref_s"]]
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_norm_s": (median(norm), "s"),
        "work_norm_per_s": (median([wl.work / w for w in norm]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "ok_frac": (1.0 - fail_frac(reps), "fraction"),
    }
    n = len(reps)

    def line(name: str, value: float, unit: str, note: str) -> str:
        return f"{name:<20} {value:14.4f} {unit:<4} {note}"

    lines = [line("setup_s", median(setup), "s", f"median of {len(setup)}")]
    for key in ["wall_s"] + [c.name for c in wl.commands]:
        lines.append(line(key, median(series[key]), "s", f"median of {n}"))
    lines += [
        line(wl.work_metric, median([wl.work / w for w in series["wall_s"]]), "1/s",
             f"median of {n}; {wl.work} per repetition"),
        line("ref_s", median(refs), "s", f"median of {len(refs)}; reference job"),
        line("wall_norm_s", metrics["wall_norm_s"][0], "s",
             f"median of {n}; wall_s at a reference job of {REF_S} s"),
        line("work_norm_per_s", metrics["work_norm_per_s"][0], "1/s",
             f"median of {n}; {wl.work_metric} at a reference job of {REF_S} s"),
        line("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", f"median of {n}"),
        line("fail_frac", fail_frac(reps), "", f"{failed} of {attempted} commands"),
    ]
    for c in reps[0]["commands"]:
        slope = c["info"].get("slope")
        if slope is not None:
            gate = "not gated: ROADMAP item 3" if wl.name == "mc-moments" else "gated"
            lines.append(line(c["name"][:-2] + ".slope", slope, "", gate))
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": failures(reps), "reps": reps, "setups": setups}, lines


def trace(runner: Runner, wl: workloads.Workload, spans_path: Path) -> tuple[dict, list[str]]:
    """One untraced and one traced repetition: per-layer metrics and report lines."""
    baseline = None
    if wl.name == "mc-rate":
        baseline = runner.child("--only", wl.commands[0].name, threads=1)
    plain = runner.child()
    traced = runner.child("--trace", str(spans_path))
    plain_wall, traced_wall = rep_times(plain)["wall_s"], rep_times(traced)["wall_s"]
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced_wall - plain_wall
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain_wall
    layers["exper.scaling_eff"] = 0.0
    if baseline is not None:
        name = wl.commands[0].name
        one, many = rep_times(baseline)[name], rep_times(plain)[name]
        layers["exper.scaling_eff"] = one / (wl.threads * many)
    reps = [plain, traced] + ([baseline] if baseline else [])
    attempted = sum(len(r["commands"]) for r in reps)
    studentize_calls = sum(v for k, v in layers.items()
                           if k.startswith("studentize.") and k.endswith(".calls"))
    lines = [
        f"untraced wall_s {plain_wall:.4f} s, traced wall_s {traced_wall:.4f} s, "
        f"overhead {layers['trace.overhead_s']:.4f} s "
        f"({100 * layers['trace.overhead_frac']:.1f}%)",
        f"studentize: {studentize_calls:.0f} calls; it has no timing metric, because no "
        "workload reaches it (exper computes its own jackknife rows)",
    ]
    return {"layers": layers, "attempted": attempted, "failed": len(failures(reps)),
            "errors": failures(reps), "reps": reps}, lines


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="ustatlab benchmark runner")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ustatlab" / "cli.py").is_file():
        print(f"error: no src/ustatlab/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root))
    wl = workloads.build(args.workload, args.seed, nproc, str(tmp))
    runner = Runner(root, args.workload, args.seed, nproc, tmp)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        runner.child("--setup-only")  # compiles bytecode once; not timed
        if args.trace:
            record, lines = trace(runner, wl, out_dir / f"{stem}-spans.json")
            wanted = spec["per_layer"]
            missing = [m["name"] for m in wanted if m["name"] not in record["layers"]]
            if missing:
                raise BenchError(f"traced run did not produce {missing}")
            metrics = {m["name"]: (record["layers"][m["name"]], m["unit"]) for m in wanted}
        else:
            record, lines = measure(runner, wl, args.seconds)
            metrics = {m["name"]: record["metrics"][m["name"]] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(root, args.seed, nproc)
    record.update(workload=wl.name, threads=wl.threads, environment=env,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    print(f"workload {wl.name} ({why}); {wl.threads} thread(s)")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<34} {value:16.6g} {unit}")
    for err in record["errors"]:
        print(f"FAILED {err}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
