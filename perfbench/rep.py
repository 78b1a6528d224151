"""One repetition of a workload, in a fresh Python process.

Run from the root of a checkout, with ``src`` on ``PYTHONPATH``::

    python3 perfbench/rep.py --workload mc-rate --seed 0 --threads 2 --outdir DIR

The process imports ``ustatlab.cli`` (timed as set-up), then acts as one
closed-loop client: it calls ``ustatlab.cli.main`` on each command of the
workload in turn, reads the JSON payload the command wrote with ``--out``
and checks it before it sends the next command.  The last line of standard
output is one JSON object with the timings and check results.

Before the first command and after each one, the repetition times the fixed
job of ``reference.py`` in sibling processes, one per worker thread.
``wall_norm_s`` scales each
command's time by ``REF_S`` over the mean of the two reference times around
it: the wall time on a host where the job takes ``REF_S`` seconds.  On a
shared host whose speed swings by half within a minute, it follows the
program's own cost more steadily than the wall time does.

``--trace FILE`` wraps the package's public functions, writes the recorded
spans to FILE and adds per-layer metrics.  ``--only NAME`` runs one command;
``--setup-only`` stops after the import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import spans
import workloads

LAYERS = ("cli", "exper", "model", "hoeffding", "approx", "oracle", "studentize")

# Seconds of the reference job that ``wall_norm_s`` scales to; about its
# median on the 2-vCPU Xeon VM the benchmark was written on.
REF_S = 0.2

# Called hundreds of thousands of times per run: counted, not recorded as spans.
COUNTED = {"model"}


@dataclass
class CommandResult:
    """One command: ``seconds`` in ``main``, ``client_s`` reading and checking."""

    name: str
    seconds: float
    ok: bool
    error: str = ""
    payload_bytes: int = 0
    info: dict = field(default_factory=dict)
    client_s: float = 0.0


def payload_info(payload: dict) -> dict:
    """Numbers a result records besides the pass/fail checks."""
    info = {}
    fit = payload.get("fit")
    if isinstance(fit, dict):
        info["slope"] = fit.get("slope")
    config = payload.get("config") or {}
    rows = payload.get("rows")
    if isinstance(rows, list) and isinstance(config.get("reps"), int):
        drawn = config["reps"] * len(rows)
        dropped = sum(int(r.get("dropped", 0)) for r in rows)
        info["replicates"] = drawn - dropped
        if config.get("estimator") == "studentized":
            info["studentized_drawn"] = drawn
            info["studentized_kept"] = drawn - dropped
    elif isinstance(payload.get("reps"), int):
        info["replicates"] = payload["reps"]
    report = payload.get("report")
    if isinstance(report, dict) and isinstance(report.get("s_atoms"), list):
        info["law_atoms"] = len(report["s_atoms"])
    return info


def run_command(main: Callable[[list], int], cmd: workloads.Command) -> CommandResult:
    """Call ``main`` on one command and check what it wrote.

    The command fails if it raises, exits nonzero, writes a payload that does
    not parse, or fails its check.
    """
    start = time.perf_counter()
    error = ""
    try:
        code = main(list(cmd.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        traceback.print_exc()
        code = None
        error = f"raised {type(exc).__name__}: {exc}"
    done = time.perf_counter()
    seconds = done - start
    if not error and code != 0:
        error = f"exit code {code!r}"
    payload: dict = {}
    if not error:
        try:
            payload = json.loads(Path(cmd.payload).read_text())
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
        except (OSError, ValueError) as exc:
            error = f"unreadable payload {cmd.payload}: {exc}"
    if not error:
        error = "; ".join(cmd.check(payload))
    size = sum(os.path.getsize(p) for p in cmd.outputs if os.path.exists(p))
    info = payload_info(payload)
    return CommandResult(cmd.name, seconds, not error, error, size, info,
                         client_s=time.perf_counter() - done)


class Reference:
    """Copies of ``reference.py``, one per worker thread of the workload.

    ``time()`` runs the job in every copy at once and returns the mean of
    their times, so that a workload on two threads is compared with the
    speed of both processors.
    """

    def __init__(self, copies: int) -> None:
        script = Path(__file__).with_name("reference.py")
        self.procs = [subprocess.Popen([sys.executable, str(script)], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
                      for _ in range(copies)]

    def time(self) -> float:
        for proc in self.procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"reference process exited {proc.wait()}")
            times.append(float(line))
        return sum(times) / len(times)

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def normalized_wall(results: list[CommandResult], refs: list[float]) -> float:
    """Command times scaled by ``REF_S`` over the reference times around them."""
    return sum((r.seconds + r.client_s) * REF_S * 2.0 / (before + after)
               for r, before, after in zip(results, refs, refs[1:]))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _sample_variates(tally, args, kwargs, result, seconds, depth) -> None:
    tally["model.sample.variates"] += _arg(args, kwargs, 1, "n")


def _kernel_cells(tally, args, kwargs, result, seconds, depth) -> None:
    cells = result.size
    tally["model.kernel_values.cells"] += cells
    for layer in ("hoeffding", "oracle"):
        if depth[layer] > 0:
            tally[f"{layer}.kernel_cells"] += cells
            tally[f"{layer}.kernel_values_s"] += seconds


def _normal_cdf_points(tally, args, kwargs, result, seconds, depth) -> None:
    import numpy as np

    tally["approx.normal_cdf.points"] += np.size(_arg(args, kwargs, 0, "x"))


def _oracle_tuples(tally, args, kwargs, result, seconds, depth) -> None:
    dist, n = _arg(args, kwargs, 1, "dist"), _arg(args, kwargs, 2, "n")
    tally["oracle.tuples"] += dist.atoms.size ** int(n)


HOOK_KEYS = (
    "model.sample.variates", "model.kernel_values.cells", "approx.normal_cdf.points",
    "hoeffding.kernel_cells", "hoeffding.kernel_values_s",
    "oracle.kernel_cells", "oracle.kernel_values_s", "oracle.tuples",
)

COUNT_HOOKS = {
    "model.sample": _sample_variates,
    "model.kernel_values": _kernel_cells,
    "approx.normal_cdf": _normal_cdf_points,
    "oracle.exact_distribution": _oracle_tuples,
    "oracle.exact_u_distribution": _oracle_tuples,
}


def public_functions(module) -> list[str]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    )


def install(tracer: spans.Tracer) -> None:
    """Wrap the public functions of every ustatlab layer, and exper's pool."""
    for layer in LAYERS:
        module = sys.modules[f"ustatlab.{layer}"]
        for func in public_functions(module):
            tracer.wrap("ustatlab", layer, func, counted=layer in COUNTED,
                        count=COUNT_HOOKS.get(f"{layer}.{func}"))
    tracer.wrap_pool("ustatlab", "exper", "ThreadPoolExecutor", "exper.chunk")


def layer_metrics(tracer: spans.Tracer, wall_s: float, threads: int,
                  results: list[CommandResult]) -> dict:
    """Per-layer metrics of a traced repetition; what it never reached reads 0."""
    m = dict.fromkeys(HOOK_KEYS, 0.0)
    for name in tracer.names:
        m[f"{name}.calls"] = m[f"{name}.busy_s"] = 0.0
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = m[f"{layer}.self_s"] = 0.0
    m.update(tracer.tallies())
    m.update(spans.layer_times(tracer.spans))
    # Shares of the run's thread time: busy / (wall_s * threads).  A layer a
    # workload never reaches has share 0 rather than a time that is always 0.
    capacity = wall_s * threads
    for key, value in list(m.items()):
        if key.endswith(".busy_s"):
            m[key[: -len(".busy_s")] + ".share"] = value / capacity
        elif key.endswith(".self_s"):
            m[key[: -len(".self_s")] + ".self_share"] = value / capacity
    m["hoeffding.kernel_values_share"] = m["hoeffding.kernel_values_s"] / capacity
    info = [r.info for r in results]
    m["exper.replicates"] = float(sum(i.get("replicates", 0) for i in info))
    drawn = sum(i.get("studentized_drawn", 0) for i in info)
    kept = sum(i.get("studentized_kept", 0) for i in info)
    # With no studentized rows nothing was dropped.
    m["exper.kept_frac"] = kept / drawn if drawn else 1.0
    m["oracle.law_atoms"] = float(sum(i.get("law_atoms", 0) for i in info))
    m["cli.payload_bytes"] = float(sum(r.payload_bytes for r in results))
    m["trace.spans"] = float(len(tracer.spans))
    return m


def write_spans(tracer: spans.Tracer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in tracer.spans], fh)


def run_workload(args: argparse.Namespace, main: Callable[[list], int], out: dict) -> None:
    """Run the workload's commands in turn."""
    wl = workloads.build(args.workload, args.seed, args.threads, args.outdir)
    commands = [c for c in wl.commands if args.only in (None, c.name)]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    results = []
    reference = Reference(wl.threads)
    try:
        refs = [reference.time()]
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = i
            results.append(run_command(main, cmd))
            refs.append(reference.time())
    finally:
        reference.close()
        if tracer is not None:
            tracer.restore()
    wall_s = sum(r.seconds + r.client_s for r in results)
    out["wall_s"] = wall_s
    out["ref_s"] = refs
    out["wall_norm_s"] = normalized_wall(results, refs)
    out["commands"] = [asdict(r) for r in results]
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wall_s, wl.threads, results)
        write_spans(tracer, args.trace)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--trace", default=None, help="write spans here and add layer metrics")
    p.add_argument("--only", default=None, help="run only the command timed as NAME")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    import ustatlab.cli

    setup_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    where = os.path.realpath(ustatlab.cli.__file__)
    if not where.startswith(src + os.sep):
        print(f"error: imported {where}, not the checkout's {src}", file=sys.stderr)
        return 2
    out: dict = {"setup_s": setup_s}
    if not args.setup_only:
        run_workload(args, ustatlab.cli.main, out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
