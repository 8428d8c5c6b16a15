"""Tests of the benchmark itself: exact trace counts, output checks and failure exits.

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repository root.
The traced-count test runs the ``reproduce`` and ``grid`` workloads twice
each, so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from dataclasses import replace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TIME_UNITS = {"s", "ms"}


@pytest.mark.parametrize("workload", ["reproduce", "grid"])
def test_traced_counts_repeat_exactly(workload):
    units = run.declared_units("per_layer")
    first, second = (run.spawn(workload, 0, "trace", 170) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    counts = {name for name, unit in units.items() if unit not in TIME_UNITS and name in first["layers"]}
    assert {"core.repr_calls", "families.eval_calls", "zeros.polyroots_calls"} <= counts
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert set(first["layers"]) | {"trace.overhead_s"} == set(units)


def test_speed_sampler_probes_during_the_block_and_restores_the_handler():
    with worker.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.7
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 2 and all(s > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def _table2_text():
    batch = workloads.ReportBatch(("table2",))
    [(key, text)] = batch.run()
    return key, text


def test_report_check_passes_reference_and_ignores_timestamp():
    key, text = _table2_text()
    doc = json.loads(text)
    doc["meta"]["timestamp"]["elapsed_seconds"] = 1e9
    assert workloads.check_report(key, text) == 0
    assert workloads.check_report(key, json.dumps(doc, indent=2)) == 0


def test_report_mismatch_fails_every_row():
    key, text = _table2_text()
    doc = json.loads(text)
    doc["rows"][0]["computed"]["x_min"] = "0.3456"
    assert workloads.check_report(key, json.dumps(doc, indent=2)) == doc["summary"]["rows"]


def test_highdeg_checks_catch_each_defect(monkeypatch):
    monkeypatch.setattr(workloads, "HIGHDEG_N", 8)
    batch = workloads.prepare("highdeg", 0)
    fam, report, verdict, nodes, weights = batch.run()[0]
    assert batch.check_family(fam, report, verdict, nodes, weights) == []
    values = nodes.values
    with batch.policy.workprec():
        nudged = values[:3] + (values[3] * (1 + batch.mp.ldexp(1, -100)),) + values[4:]
    bad = [
        (report, verdict, replace(nodes, values=values[::-1]), weights),
        (report, verdict, replace(nodes, values=nudged), weights),
        (report, verdict, replace(nodes, values=values[1:]), weights[1:]),
        (replace(report, ordering_ok=False), verdict, nodes, weights),
        (report, replace(verdict, ok=False), nodes, weights),
        (report, verdict, nodes, (-weights[0],) + weights[1:]),
        (report, verdict, nodes, tuple(2 * w for w in weights)),
        (replace(report, x_max=values[-2]), verdict, nodes, weights),
    ]
    for case in bad:
        assert batch.check_family(fam, *case), case


def test_highdeg_draws_stay_inside_the_hypotheses():
    for seed in range(200):
        (lam, phi), (a, b) = workloads.highdeg_params(seed)
        assert float(lam) > 0 and 0.3 <= float(phi) <= 2.85 and abs(float(phi) - 1.5708) > 0.1
        assert float(a) < -workloads.HIGHDEG_N - 1 and abs(float(b)) >= 0.5


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reproduce", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
