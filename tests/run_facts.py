"""Run facts for the CI log, gating nothing: import times, wall times, tracemalloc peaks and the work counts of the
interlacing check, the zero solver, fresh families, the determinant transform and the real multiply-adds on the
paper's CLI configurations.

    PYTHONPATH=src python tests/run_facts.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

import christoffel
from christoffel import TolerancePolicy, bound_separation, cli, gauss_rule, mp_family, pj_family, stieltjes_check

TABLES = (("--table", "1"), ("--table", "2"), ("--table", "3"), ("--verify",))
GRIDS = (
    ("--grid",),
    ("--grid", "--n", "16", "--precision-bits", "113"),
    ("--grid", "--lambda", "100", "--phi", "0.5"),
    # exits 1: four cells (10, m, m + 2) fail on a residual above rel_tol at 64 bits
    ("--grid", "--n", "10", "--precision-bits", "64"),
)

# {dotted name: tally}: a tally maps a call's arguments to its count, None counts 1.  The interlacing routes: the
# points swept in doubles for g's rows, which families makes, the verdict's work on them in zeros, and the zeros
# whose g row the doubles left to the kernel (a _Rows row read for the first time)
ROUTES = {
    "families._sweep_rows": lambda family, n, points, prec: len(points),
    "zeros.interlace_strict": lambda G, g, degree, outer, *rest: len(outer),
    "zeros._q_at": lambda G, g, points, prec: len(points),
    "families._Rows.__getitem__": lambda rows, i: i not in rows._kernel,
    "core._root_counts": None,
}
ENCLOSURES = dict.fromkeys(("zeros._enclose", "zeros._count_below", "zeros._count_pairs"))
FRESH = {
    "families.RecurrenceFamily.__init__": None,
    # the rows kernel_rows will append; a new store starts with row 0
    "families.RecurrenceFamily.kernel_rows": lambda fam, n, prec: max(0, n + 1 - len(fam._store.get(("recurrence", prec), [None]))),
    "core._chorner": None,
}
# the Bareiss entry updates of the cofactor minors, and the complex magnitudes of their pivot search and of the
# transform's scale and imaginary-residue checks (on --verify 1121 updates and 803 magnitudes, 523 of them pivots')
BAREISS = dict.fromkeys(("core._cupdate", "core._cabs"))
# the real multiply-adds of products, divisions, ladders, expansions, connection pairs and their identity defects,
# each core._accumulate call tallied by its row's length (on --grid 134282)
MULADDS = {"core._accumulate": lambda out, wm, we, pairs, i, prec: len(pairs)}
COUNTS = {**ROUTES, **ENCLOSURES, **FRESH, **BAREISS, **MULADDS}

# cli.dispatch's peak in a fresh interpreter that imports nothing more, after a full collection, so that it follows
# allocation and not when the collector runs: --table 1 reads 54 KiB and --verify 1115 KiB, with this module imported
# first or not
PEAK = """import gc, sys, tracemalloc
from christoffel import cli
config = cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:]))
gc.collect()
tracemalloc.start()
cli.dispatch(config)
print(*sys.argv[1:], f"peak {tracemalloc.get_traced_memory()[1] / 1024:.0f} KiB")
"""


def import_cost(target: str = "christoffel.cli") -> tuple:
    """({christoffel module: own import time in us}, the whole ``import target`` in us), from ``-X importtime`` in a
    fresh interpreter on a copy of the package without bytecode, with ``PYTHONDONTWRITEBYTECODE=1``: a fresh
    checkout's import, so each module's time includes compiling it, and the keys are the modules it loads."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(christoffel.__file__).parent, Path(tmp, "christoffel"), ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-X", "importtime", "-c", f"import {target}"]
        lines = subprocess.run(argv, env=env, check=True, stderr=subprocess.PIPE, text=True).stderr.splitlines()
    rows = [line.removeprefix("import time:").split("|") for line in lines[1:]]  # self | cumulative | name
    own = {name.strip(): int(us) for us, _, name in rows if name.strip().split(".")[0] == "christoffel"}
    return own, int(rows[-1][1])


def resolve(name: str) -> tuple:
    """(owner, attribute) of a dotted name in christoffel, such as ``"families.RecurrenceFamily.kernel_rows"``."""
    *path, attr = name.split(".")
    return functools.reduce(getattr, path, christoffel), attr


@contextlib.contextmanager
def counting(tallies: dict):
    """Count the calls of each name in ``tallies`` in the Counter it yields, wrapping a function in every
    christoffel module that holds it and a method on its class, and restore them all on exit.  A name is read
    from its owner's ``vars``: a renamed one raises ``KeyError``, and ``object.__init__`` stands in for none."""
    seen = Counter()

    def counted(name, call, tally):
        def run(*args, **kwargs):
            seen[name] += tally(*args, **kwargs) if tally else 1
            return call(*args, **kwargs)

        return run

    with contextlib.ExitStack() as undo:
        for name, tally in tallies.items():
            owner, attr = resolve(name)
            call = vars(owner)[attr]
            holders = [owner]
            if isinstance(owner, ModuleType):
                holders = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "christoffel" and vars(m).get(attr) is call]
            for holder in holders:
                setattr(holder, attr, counted(name, call, tally))
                undo.callback(setattr, holder, attr, call)
        yield seen


def quiet(argv) -> int:
    """cli.main's exit code on ``argv``, its report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def log_counts(title: str, configs, tallies: dict) -> None:
    print(f"== {title}")
    for argv in configs:
        with counting(tallies) as seen:
            code = quiet(argv)
        print(*argv, f"exit {code}:", ", ".join(f"{name} {seen[name]}" for name in tallies))


def main() -> None:
    # the library import leaves the connection layer (transform) to its first use; the CLI loads every module
    for target in ("christoffel", "christoffel.cli"):
        print(f"== Import times of {target} in a fresh interpreter, sources compiled (-X importtime)")
        own, total = import_cost(target)
        for name, us in own.items():
            print(name, f"self {us / 1000:.1f} ms")
        print(f"christoffel modules {sum(own.values()) / 1000:.1f} ms of {total / 1000:.1f} ms for the whole import")

    print("== CLI wall times, in process")
    for argv in (*TABLES, GRIDS[0]):
        started = time.perf_counter()
        code = quiet(argv)
        print(*argv, f"exit {code}", f"{time.perf_counter() - started:.3f} s")

    print("== Degree-48 solver wall times on fresh families (the highdeg benchmark's shape)")
    policy = TolerancePolicy()
    for fam in (mp_family("0.5", "0.9", policy), pj_family(-60, 8, policy)):
        for step, args in ((bound_separation, (fam, 48)), (stieltjes_check, (fam, 1, 48)), (gauss_rule, (fam, 48))):
            started = time.perf_counter()
            step(*args, policy)
            print(fam.label, step.__name__, f"{time.perf_counter() - started:.3f} s")

    print("== CLI tracemalloc peaks, each in a fresh process")
    for argv in (TABLES[0], TABLES[3], GRIDS[0]):
        print(subprocess.run([sys.executable, "-c", PEAK, *argv], check=True, stdout=subprocess.PIPE, text=True).stdout, end="")

    log_counts("Interlacing routes: points swept in doubles for g's rows, zeros handed to interlace_strict, those left"
               " open by doubles for _q_at, g rows the doubles left to the kernel, and the Sturm chains of G that name"
               " the failed cells", (*GRIDS, TABLES[3]), ROUTES)
    log_counts("Enclosures, and Sturm counts in doubles and on kernel pairs", TABLES, ENCLOSURES)
    log_counts("Fresh-family work: families built, recurrence rows built, complex Horner calls", (*TABLES, GRIDS[0]), FRESH)
    log_counts("Determinant transforms: Bareiss entry updates and complex magnitudes", TABLES, BAREISS)
    log_counts("Real multiply-adds", GRIDS, MULADDS)


if __name__ == "__main__":
    main()
