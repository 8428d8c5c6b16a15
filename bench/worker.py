"""One fresh-process repetition of a workload; prints its measurements as one JSON line.

Usage: ``python3 bench/worker.py <workload> <seed> <mode>`` with mode

* ``setup``: import christoffel and build the inputs, report ``setup_s`` only;
* ``run``:   set up, run the batch once untraced, check the outputs;
* ``trace``: like ``run`` with every layer boundary traced; also writes the
  span file and reports the per-layer metrics.

``run.py`` starts this script once per repetition, so every repetition pays
import and cache fill exactly as a CLI invocation does.

The machine's speed is sampled next to every timing with :func:`probe`, a
fixed piece of 256-bit mpmath arithmetic that does not involve christoffel:
eight probes right after set-up, and one probe every 0.2 s of an untraced
batch, run from a ``SIGALRM`` handler in the main thread.  The probe time
spent inside the batch is subtracted from its wall and CPU time; ``run.py``
uses the mean probe times to rescale the timings to a reference speed.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time

from workloads import OUT_DIR, prepare

PROBE_STEPS = 300
PROBE_PERIOD_S = 0.2
SETUP_PROBES = 8


def probe() -> float:
    """Seconds taken by a fixed run of stateless libmp calls at 256 bits.

    It touches no mpmath context, so running it from a signal handler in
    the middle of the workload cannot change the workload's results.
    """
    from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

    started = time.perf_counter()
    x = mpf_div(from_int(1), from_int(3), 256, round_nearest)
    acc = x
    for i in range(1, PROBE_STEPS + 1):
        acc = mpf_add(mpf_mul(acc, x, 256, round_nearest), from_int(i), 256, round_nearest)
        acc = mpf_div(acc, mpf_add(x, from_int(i), 256, round_nearest), 256, round_nearest)
    return time.perf_counter() - started


class SpeedSampler:
    """Runs :func:`probe` every ``PROBE_PERIOD_S`` of wall time inside a ``with`` block."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        probe()  # first call imports libmp outside the handler
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    started = time.perf_counter()
    batch = prepare(workload, seed)
    result = {"setup_s": time.perf_counter() - started}
    result["setup_probe_s"] = statistics.mean(probe() for _ in range(SETUP_PROBES))
    if mode == "run":
        with SpeedSampler() as sampler:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outputs = batch.run()
            cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            samples = list(sampler.samples)
        spent = sum(samples)
        probe_s = statistics.mean(samples or [probe()])
        result.update(cpu_s=cpu - spent, wall_s=wall - spent, probe_s=probe_s)
    elif mode == "trace":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        wall0 = time.perf_counter()
        outputs = batch.run(tracer.label)
        result["wall_s"] = time.perf_counter() - wall0
    if mode != "setup":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if mode == "trace":
            # before the check, whose own library calls would add spans
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{workload}-{seed}.tsv")
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        result["attempted"], result["failed"] = batch.check(outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
