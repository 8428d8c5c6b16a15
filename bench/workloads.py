"""The benchmark's workloads: their inputs, the timed batch and the output checks.

Each workload is prepared in a fresh process by :func:`prepare`, which
imports ``christoffel`` from the checkout's ``src`` directory and builds the
inputs (that is the set-up the benchmark times as ``setup_s``).  The
returned batch has a ``run`` method, the timed part, and a ``check`` method
that turns the outputs into ``(attempted, failed)`` work units.

* ``reproduce``: ``--table 1``, ``--table 2``, ``--table 3`` and ``--verify``
  through ``cli.dispatch`` plus ``Report.to_json``; a unit is a report row.
* ``grid``: ``--grid`` at its defaults; a unit is a grid cell.
* ``highdeg``: one Meixner-Pollaczek and one Pseudo-Jacobi family drawn from
  the seed, each run through ``bound_separation``, ``stieltjes_check(k=1)``
  and ``gauss_rule`` at degree 48; a unit is a zero computed by the solver.

The two fixed workloads ignore the seed: their inputs are the paper's own,
and their reports are compared against SHA-256 digests in
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

WORKLOADS = ("reproduce", "grid", "highdeg")
HIGHDEG_N = 48
# zeros solved per highdeg family: bound_separation (n), stieltjes_check
# (n for p_n and n - 2 for the shifted family) and gauss_rule (n)
HIGHDEG_ZEROS = 3 * HIGHDEG_N + HIGHDEG_N - 2


def _import_christoffel():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import christoffel

    origin = Path(christoffel.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"christoffel was imported from {origin}, not from {src}")
    return christoffel


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report with ``meta.timestamp`` removed."""
    doc = json.loads(text)
    del doc["meta"]["timestamp"]
    canonical = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_report(key: str, text: str) -> int:
    """Failed rows of one fixed-input report: all of them on any mismatch."""
    ref = REFERENCE["reports"][key]
    doc = json.loads(text)
    flagged_cells = sum(
        1 for row in doc["rows"] for verdict in row.get("cells", {}).values() if verdict == "flagged"
    )
    problems = []
    if report_digest(text) != ref["sha256"]:
        problems.append("digest differs from the reference")
    if doc["summary"] != ref["summary"] or len(doc["rows"]) != ref["summary"]["rows"]:
        problems.append(f"summary {doc['summary']} != {ref['summary']}")
    if flagged_cells != ref["flagged_cells"]:
        problems.append(f"{flagged_cells} flagged cells, expected {ref['flagged_cells']}")
    if problems:
        print(f"{key}: " + "; ".join(problems), file=sys.stderr)
        return ref["summary"]["rows"]
    return doc["summary"]["fail"]


class ReportBatch:
    """Fixed-input CLI reports, dispatched and serialised like ``christoffel --table``."""

    def __init__(self, keys):
        _import_christoffel()
        from christoffel import cli

        self.cli = cli
        self.configs = []
        for key in keys:
            if key.startswith("table"):
                config = cli.RunConfig(command="table", table_id=int(key[len("table"):]))
            else:
                config = cli.RunConfig(command=key)
            self.configs.append((key, config))

    def run(self, label=lambda name: None):
        outputs = []
        for key, config in self.configs:
            label(key)
            outputs.append((key, self.cli.dispatch(config).to_json()))
        return outputs

    def check(self, outputs):
        attempted = sum(REFERENCE["reports"][key]["summary"]["rows"] for key, _ in self.configs)
        if [key for key, _ in outputs] != [key for key, _ in self.configs]:
            return attempted, attempted
        return attempted, sum(check_report(key, text) for key, text in outputs)


def highdeg_params(seed: int):
    """(lambda, phi) and (a, b) as decimal strings, drawn from the seed.

    Both draws stay inside the paper's hypotheses at degree 48 (lambda > 0,
    0 < phi < pi, a < -n - 1) and away from the symmetric cases phi = pi/2
    and b = 0, where every bound collapses to the same point.
    """
    rng = random.Random(seed)
    lam = f"{rng.uniform(0.25, 12):.4f}"
    phi = f"{rng.choice((rng.uniform(0.3, 1.45), rng.uniform(1.7, 2.85))):.4f}"
    a = f"{rng.uniform(-110, -55):.3f}"
    b = f"{rng.choice((-1, 1)) * rng.uniform(0.5, 9):.3f}"
    return (lam, phi), (a, b)


class HighDegreeBatch:
    """Bounds, the gap-2 Stieltjes check and Gauss rules at degree 48."""

    def __init__(self, seed: int):
        christoffel = _import_christoffel()
        from mpmath import mp

        self.lib, self.mp = christoffel, mp
        self.policy = christoffel.TolerancePolicy()
        (lam, phi), (a, b) = highdeg_params(seed)
        self.families = [
            ("mp", christoffel.mp_family(lam, phi, self.policy)),
            ("pj", christoffel.pj_family(a, b, self.policy)),
        ]

    def run(self, label=lambda name: None):
        lib, policy, n = self.lib, self.policy, HIGHDEG_N
        outputs = []
        for key, fam in self.families:
            label(f"highdeg.{key}")
            report = lib.bound_separation(fam, n, policy)
            verdict = lib.stieltjes_check(fam, 1, n, policy)
            nodes, weights = lib.gauss_rule(fam, n, policy)
            outputs.append((fam, report, verdict, nodes, weights))
        return outputs

    def check_family(self, fam, report, verdict, nodes, weights) -> list:
        policy, n = self.policy, HIGHDEG_N
        problems = []
        with policy.workprec():
            values = nodes.values
            if len(values) != n or not all(u < v for u, v in zip(values, values[1:])):
                problems.append("Gauss nodes are not n strictly ascending zeros")
            for x in values:
                # the Newton correction at a computed zero must be below tolerance
                p, dp = self.lib.eval_with_derivative(fam, n, x, policy)
                if abs(p) > policy.rel_tol * abs(dp) * max(1, abs(x)):
                    problems.append(f"{self.mp.nstr(x, 12)} is not a zero of p_{n} at tolerance")
                    break
            if not (all(report.separated.values()) and report.ordering_ok):
                problems.append(f"bounds not separated or misordered: {report.separated}")
            if not verdict.ok:
                problems.append(f"Stieltjes check failed: {verdict.violations}")
            if len(weights) != n or not all(w > 0 for w in weights):
                problems.append("Gauss weights are not n positive numbers")
            elif abs(sum(weights) - 1) > policy.rel_tol:
                problems.append("Gauss weights do not sum to 1")
            if values and (values[0] != report.x_min or values[-1] != report.x_max):
                problems.append("Gauss nodes differ from the zeros bound_separation used")
        return problems

    def check(self, outputs):
        attempted = HIGHDEG_ZEROS * len(self.families)
        if len(outputs) != len(self.families):
            return attempted, attempted
        failed = 0
        for result in outputs:
            problems = self.check_family(*result)
            if problems:
                print(f"{result[0].label}: " + "; ".join(problems), file=sys.stderr)
                failed += HIGHDEG_ZEROS
        return attempted, failed


def prepare(workload: str, seed: int):
    """Import christoffel and build one workload's inputs (the timed set-up)."""
    if workload == "reproduce":
        return ReportBatch(("table1", "table2", "table3", "verify"))
    if workload == "grid":
        return ReportBatch(("grid",))
    if workload == "highdeg":
        return HighDegreeBatch(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
