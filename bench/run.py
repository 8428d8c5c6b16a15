"""christoffel benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload reproduce|grid|highdeg --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload grid --seconds S --repeat 10     # steadiness mode

Every repetition runs in a fresh Python process (``worker.py``), because a
CLI user pays import and cache fill on every invocation.  Repetitions run
one at a time from this single-threaded process, so on a small machine the
benchmark measures the program and not the scheduler.

``--trace 0`` repeats the workload for about ``--seconds`` (at least twice;
a repetition starts only if it is expected to end no more than half its
length after ``--seconds``) and reports the median of each end-to-end
metric, with times rescaled to a reference machine speed (see
``REF_PROBE_S``).
``--trace 1`` runs the workload once untraced and once traced, and reports
the per-layer metrics of the traced run plus ``trace.overhead_s``, the
traced wall time minus the untraced one.  ``--repeat N`` makes N such runs
with seeds seed, seed+1, ... and reports median and quartiles per metric
together with the machine it ran on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS

# About the duration of worker.probe on the machine that recorded the
# baseline, in its quiet periods.  Every timing is multiplied by REF_PROBE_S
# over the probe time measured next to it, i.e. reported in seconds at that
# machine speed: the shared machine's speed drifts by up to 2x within
# minutes, far beyond any bound a raw wall time could meet from run to run.
REF_PROBE_S = 0.0022
MIN_REPS = 2
# set-up is short and noisy, so runs with few repetitions add set-up-only
# processes until the median rests on this many samples
SETUP_SAMPLES = 11
# a run must end within 180 s; no repetition starts after this point
DEADLINE_S = 150


class BenchError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one repetition in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one run: medians over fresh-process repetitions."""
    started = time.perf_counter()

    def remaining():
        return DEADLINE_S - (time.perf_counter() - started)

    reps = []
    while True:
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["wall_s"] for r in reps) if reps else 0.0
        if len(reps) >= MIN_REPS and elapsed + typical / 2 >= seconds:
            break
        if reps and remaining() < 2 * max(r["wall_s"] for r in reps):
            break
        reps.append(spawn(workload, seed, "run", remaining()))
    setups = list(reps)
    while len(setups) < SETUP_SAMPLES and remaining() > 5:
        setups.append(spawn(workload, seed, "setup", remaining()))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        r["scale"] = REF_PROBE_S / r["probe_s"]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] * r["scale"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] * r["scale"] for r in reps),
        "setup_s": statistics.median(s["setup_s"] * REF_PROBE_S / s["setup_probe_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "items_per_s": statistics.median((r["attempted"] - r["failed"]) / (r["wall_s"] * r["scale"]) for r in reps),
        "verified_frac": (attempted - failed) / attempted,
    }
    unscaled = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "probe_ms": statistics.median(r["probe_s"] * 1e3 for r in reps),
        "reps": len(reps),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(metrics, "end_to_end"),
        "unscaled": unscaled,
    }


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(metrics: dict, kind: str) -> dict:
    units = declared_units(kind)
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def trace(workload: str, seed: int) -> dict:
    """Per-layer metrics from one traced run, plus the overhead against an untraced one."""
    started = time.perf_counter()
    plain = spawn(workload, seed, "run", DEADLINE_S)
    traced = spawn(workload, seed, "trace", DEADLINE_S - (time.perf_counter() - started))
    layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"layers-{workload}-{seed}.json").write_text(json.dumps(layers, indent=2) + "\n", encoding="utf-8")
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": with_units(layers, "per_layer"),
    }


def machine() -> dict:
    import mpmath

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy": importlib.util.find_spec("gmpy2") is not None or importlib.util.find_spec("gmpy") is not None,
    }


def steadiness(workload: str, seed: int, seconds: float, traced: bool, repeat: int) -> dict:
    """Median and quartiles per metric over ``repeat`` runs with consecutive seeds."""
    runs = [trace(workload, seed + i) if traced else measure(workload, seed + i, seconds) for i in range(repeat)]
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return {
        "workload": workload,
        "seeds": [seed, seed + repeat - 1],
        "seconds": seconds,
        "trace": traced,
        "machine": machine(),
        "correct": all(r["failed"] == 0 for r in runs),
        "metrics": summary,
        "unscaled": {name: [r["unscaled"][name] for r in runs] for name in runs[0].get("unscaled", {})},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: number of runs")
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            result = steadiness(args.workload, args.seed, args.seconds, bool(args.trace), args.repeat)
            OUT_DIR.mkdir(exist_ok=True)
            name = f"steady-{args.workload}{'-trace' if args.trace else ''}.json"
            (OUT_DIR / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
            for metric, s in result["metrics"].items():
                print(f"{metric:32s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        result = trace(args.workload, args.seed) if args.trace else measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for metric, m in result["metrics"].items():
        print(f"{metric:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_frac':32s} {result['failed'] / result['attempted']:.6g} ratio")
        for name, value in result.pop("unscaled").items():
            print(f"{'unscaled.' + name:32s} {value:.6g}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
