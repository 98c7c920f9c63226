"""chancompat benchmark: run one workload for a fixed time, check every value.

    python3 perfbench/run.py --workload sweep-light --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): sweep-light, sweep-heavy, pairs-refine. A run
times whole cycles (one cycle = the workload's fixed unit of work) and starts
another only while it fits in --seconds; the first always runs. Every value
of every cycle goes through check.py.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced cycles and reports the per-layer metrics,
taking medians over traced cycles, and writes the spans to
perfbench/out/trace-<workload>-seed<seed>.jsonl. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
`failed` counts values whose call raised. Values resting on an
indeterminate solver probe are counted in failed_frac (printed) and
settled_frac (a metric), not in `failed`.

Throughput is reported as ref_values_per_s: values per second of cycle
wall time, rescaled by the machine speed that speed.py sampled during the
same cycle. On a shared host the raw rate moves by 20% between runs of the
same code; the raw rate is printed next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import check
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
COUNTERS = ("sdp.solves", "sdp.iters", "robustness.build_calls")


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def load_program() -> SimpleNamespace:
    if not (SRC / "chancompat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chancompat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chancompat
    import chancompat.cli

    if SRC not in Path(chancompat.__file__).resolve().parents:
        raise SystemExit(f"perfbench: chancompat imported from {chancompat.__file__}, not {SRC}")
    return SimpleNamespace(cc=chancompat, cli=chancompat.cli, solve=sys.modules["chancompat.sdp"].solve)


def setup_times(name: str) -> list[float]:
    """Wall time of fresh interpreters that import the program and make the
    workload's first calls (probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


@dataclass
class Cycle:
    wall: float
    cpu: float
    values: list
    traced: bool
    layer: dict | None = None
    spans: list | None = None
    speed: float | None = None


def run_cycles(name, workload, api, seconds, tracer, problems) -> list[Cycle]:
    """Whole cycles while the next one fits in `seconds`. With a tracer the
    cycles alternate untraced, traced, ... and at least one of each runs."""
    cycles: list[Cycle] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        probe = None if traced else speed.SpeedProbe()
        with probe or contextlib.nullcontext():
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            try:
                values = workload.cycle(api)
            finally:
                wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
                spent = probe.spent if probe else 0.0
                if traced:
                    tracer.uninstall()
        cycle = Cycle(wall - spent, cpu - spent, values, traced)
        if probe:
            cycle.speed = probe.factor()
        if traced:
            missing = tracing.EXPECTED[name] - tracer.fired()
            if missing:
                problems.append(f"wrappers that never fired (call site moved?): {sorted(missing)}")
            cycle.layer = tracer.metrics(len(values), tracer.replay_setup_ms(api.solve))
            cycle.spans = list(tracer.spans)
        cycles.append(cycle)
        longest = max(c.wall for c in cycles)
        enough = tracer is None or len(cycles) >= 2
        if enough and time.perf_counter() - start + longest > seconds:
            return cycles


def write_spans(path: Path, cycles: list[Cycle]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for k, c in enumerate(x for x in cycles if x.traced):
            for name, start, end, parent in c.spans:
                fh.write(json.dumps({"cycle": k, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def end_to_end(cycles, setup, tally) -> dict[str, float]:
    return {
        "ref_values_per_s": statistics.median(len(c.values) / c.wall * c.speed for c in cycles),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "settled_frac": 1.0 - tally.failed_frac,
        "right_frac": 1.0 - tally.wrong_frac,
    }


def per_layer(cycles, problems) -> dict[str, float]:
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    out = {}
    for key in traced[0].layer:
        series = [c.layer[key] for c in traced]
        out[key] = statistics.median(series)
        if key in COUNTERS and len(set(series)) > 1:
            problems.append(f"{key} differs between traced cycles: {series}")
    out["proc.cpu_s"] = statistics.median(c.cpu for c in plain)
    out["proc.cpu_per_wall"] = statistics.median(c.cpu / c.wall for c in plain)
    out["trace_overhead_frac"] = (
        statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in plain) - 1.0
    )
    return out


def run_one(args) -> int:
    load_before = os.getloadavg()
    units = metric_units()
    check.self_test()
    reference = check.load_reference()
    api = load_program()
    setup = setup_times(args.workload)
    workloads.warm(args.workload, api.cc)
    workload = workloads.make(args.workload)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    try:
        workload.prepare(args.seed, workdir, api)
        tracer = tracing.Tracer(api.cc) if args.trace else None
        cycles = run_cycles(args.workload, workload, api, args.seconds, tracer, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = check.Tally()
    for c in cycles:
        tally.add(check.tally(c.values, reference))
    if args.trace:
        metrics = per_layer(cycles, problems)
        kind = "per_layer"
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", cycles)
    else:
        metrics = end_to_end(cycles, setup, tally)
        kind = "end_to_end"
    if set(metrics) != set(units[kind]):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units[kind]))} disagree with BENCHMARK.json")

    per_cycle = len(cycles[0].values)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(cycles)} cycles of "
        f"{per_cycle} values, cycle wall {[round(c.wall, 3) for c in cycles]} s,"
        f" speed factor {[c.speed and round(c.speed, 3) for c in cycles]}"
    )
    for key, value in metrics.items():
        print(f"  {key:<30} {value:.6g} {units[kind][key]}")
    raw = statistics.median(len(c.values) / c.wall for c in cycles if not c.traced)
    print(f"  (values_per_s {raw:.6g} 1/s at this run's machine speed, not speed-corrected)")
    print(
        f"  failed_frac = {tally.failed_frac:.6g} ({tally.errors} raised, {tally.flagged} indeterminate"
        f" of {tally.attempted});  wrong_frac = {tally.wrong_frac:.6g} ({tally.wrong});"
        f"  without stored reference: {tally.unreferenced}"
    )
    for line in (tally.problems + problems)[:40]:
        print(f"  ! {line}")
    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))
    result = {
        "correct": tally.wrong == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.errors,
        "metrics": {k: {"value": v, "unit": units[kind][k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints a table, then one JSON line
    whose metric names are prefixed with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
