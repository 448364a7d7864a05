"""Layered benchmark of the mtdcsim pipeline.

One run measures one seeded workload for a fixed time in a single process:

    python3 perfbench/run.py --workload reference-linear --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer ones, from ops run with spans around
every public ``mtdcsim`` function, alternating with untraced ops that give
the tracing overhead. The line before it holds the full record: machine,
sample counts, failures, missing trace hooks, the median CPU time per op,
the machine's steal time during the ops, and ``op_p90_s`` where a run
holds at least 100 ops. ``--out FILE`` appends that record to a JSON-lines
file, and

    python3 perfbench/run.py --diff BASE.jsonl NEW.jsonl

compares two such files per (workload, metric) against the bounds in
BENCHMARK.json. A gain is resolved only from runs of the two commits made
alternately, each appending to its own file.

The package is imported from ``src/`` next to this directory; the run
exits with code 2 and prints no result when it is not there. BLAS keeps
its default thread count, which the record states.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter, process_time, time

import machine
import resultdiff
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # before and again after the measured ops, so the samples span the run
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
MAX_FAILURES_KEPT = 10


def measure_setup(repeats: int) -> list:
    """Wall time of a fresh interpreter importing the package and its CLI, per repeat.

    The wait blocks until the child exits; ``subprocess.run`` with a timeout
    would poll it every 50 ms and round each sample up to that step.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import mtdcsim, mtdcsim.cli"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        child = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        times.append(elapsed)
    return times


def p90(values):
    """Nearest-rank 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) < P90_MIN_OPS:
        return None
    ordered = sorted(values)
    return ordered[-(len(ordered) // 10) - 1]


@dataclass
class Tally:
    """What the measured phase of a run saw."""

    attempted: int = 0
    ok: int = 0
    busy: float = 0.0  # summed wall time of the measured ops
    failures: list = field(default_factory=list)
    plain: list = field(default_factory=list)  # op times, untraced
    plain_cpu: list = field(default_factory=list)  # CPU time of the process per untraced op
    traced: list = field(default_factory=list)  # op times, traced
    layers: list = field(default_factory=list)  # per-layer metrics of each traced op


def run_op(workload, tally: Tally, measured: bool, tracer=None) -> None:
    """Draw one input, time the op, check its outputs and count the outcome."""
    inp = workload.draw()
    tally.attempted += 1
    if tracer is not None:
        tracer.reset()
        tracer.install()
    cpu_start = process_time()
    start = perf_counter()
    try:
        result = workload.run(inp)
        problems = None
    except (Exception, SystemExit) as exc:  # a failed op is counted; the loop goes on
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        elapsed = perf_counter() - start
        cpu = process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
    if problems is None:
        try:
            problems = workload.check(inp, result)
        except (Exception, SystemExit) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        tally.failures.append(f"op {tally.attempted}: " + "; ".join(problems))
    if not measured:
        return
    tally.busy += elapsed
    if problems:
        return
    tally.ok += 1
    if tracer is None:
        tally.plain.append(elapsed)
        tally.plain_cpu.append(cpu)
    else:
        tally.traced.append(elapsed)
        tally.layers.append(tracing.op_layer_metrics(
            tracer.spans, tracer.counters, workload.bytes_written()))


def run_ops(workload, seconds: float, tracer) -> Tally:
    """Closed loop of ops for ``seconds`` after one unmeasured warm-up op.

    With a tracer, odd-numbered measured ops are traced and even ones are
    not, so drift in the machine affects both halves alike. A run that has
    no passing op of a kind it needs keeps going for at most ``seconds`` more.
    """
    tally = Tally()
    run_op(workload, tally, measured=False)
    deadline = perf_counter() + seconds
    i = 0
    while True:
        now = perf_counter()
        short = not tally.plain or (tracer is not None and not tally.traced)
        if now >= deadline + seconds or (now >= deadline and not short):
            return tally
        run_op(workload, tally, measured=True, tracer=tracer if i % 2 else None)
        i += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the run record to this JSON-lines file")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="compare two JSON-lines result files and exit")
    args = parser.parse_args(argv)
    started = time()
    if args.diff:
        return resultdiff.main(args.diff[0], args.diff[1], ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mtdcsim" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'mtdcsim'}", file=sys.stderr)
        return 2

    setup = None
    if not args.trace:
        measure_setup(1)  # compiles the bytecode; not kept
        setup = measure_setup(SETUP_REPEATS)
    sys.path.insert(0, str(SRC))
    import mtdcsim
    import mtdcsim.cli  # noqa: F401  (workloads call it as mtdcsim.cli.main)

    if Path(mtdcsim.__file__).resolve().parent != SRC / "mtdcsim":
        print(f"error: imported mtdcsim from {mtdcsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](mtdcsim, work, Random(args.seed))
        tracer = tracing.Tracer() if args.trace else None
        steal_start = machine.steal_seconds()
        tally = run_ops(workload, args.seconds, tracer)
        steal_end = machine.steal_seconds()
        if setup is not None:
            setup += measure_setup(SETUP_REPEATS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain = tally.plain
    if not plain or (args.trace and not tally.traced):
        print(json.dumps({"failures": tally.failures[:MAX_FAILURES_KEPT]}), file=sys.stderr)
        print("error: no measured op passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        layers = tally.layers
        metrics = {name: statistics.median(op[name] for op in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = (statistics.median(tally.traced)
                                          / statistics.median(plain) - 1.0)
        samples = {"traced_ops": len(layers), "untraced_ops": len(plain)}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(plain),
            "ops_per_s": tally.ok / tally.busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"ops": len(plain), "setup": len(setup)}
    recorded = dict(metrics)
    if not args.trace and p90(plain) is not None:
        recorded["op_p90_s"] = p90(plain)
    # CPU time of all the process's threads per op, and the machine-wide steal time,
    # tell a slower host from slower code
    recorded["op_cpu_p50_s"] = statistics.median(tally.plain_cpu)
    if steal_start is not None and steal_end is not None:
        recorded["host_steal_s"] = steal_end - steal_start
    units = {entry["name"]: entry["unit"] for key in ("end_to_end", "per_layer")
             for entry in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    attempted, failed = tally.attempted, len(tally.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "started": started, "trace": args.trace, "attempted": attempted, "failed": failed,
        "metrics": recorded,
        "samples": samples,
        "failures": tally.failures[:MAX_FAILURES_KEPT],
        "computed_metrics": list(tracing.COMPUTED) if tracer else [],
        "missing_hooks": tracer.missing if tracer else [],
        "observer_errors": sorted(tracer.observer_errors) if tracer else [],
        "machine": machine.machine_info(ROOT, mtdcsim),
    }
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
