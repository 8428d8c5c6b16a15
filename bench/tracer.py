"""Outside-in span tracing of christoffel, and the per-layer metrics derived from it.

:meth:`Tracer.install` wraps functions of ``core``, ``families``,
``associated``, ``transform``, ``zeros`` and ``cli`` without touching their
source: each wrapper replaces the original wherever a christoffel module
holds it as an attribute (``cli`` and ``transform`` import functions by
name, so patching the defining module alone would miss their calls).
Methods are patched on their class.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``run`` labels the work item that was
being computed.  Spans stay in memory until :meth:`Tracer.write`.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

MODULES = ("core", "families", "associated", "transform", "zeros", "cli")

# Called once per coefficient from Polynomial construction; spans there
# would outnumber every other span by an order of magnitude and time the
# tracer rather than the program.
SKIPPED = {"core.to_scalar", "core.require_finite"}

# Private functions and methods that are layer boundaries of their own.
EXTRA = {
    "core": {
        "Polynomial": ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                       "__divmod__", "__call__", "__repr__"),
    },
    "families": {None: ("_ladder",)},
    "cli": {"Report": ("to_json",)},
}

RING = tuple(f"core.Polynomial.{m}" for m in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__divmod__"))
SOLVE = "zeros.zeros_golub_welsch"
EVAL = "families.eval_with_derivative"
DECOMPOSE = "transform.connection_decompose"


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.run = ""

    def label(self, run: str):
        self.run = run

    def wrap(self, name, fn, tally=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run)
            if tally is not None:
                self.counts[tally[0]] += tally[1](result)
            return result

        return traced

    def install(self):
        """Patch every traced function of the christoffel package imported by the workload."""
        package = sys.modules["christoffel"]
        modules = [importlib.import_module(f"christoffel.{m}") for m in MODULES]
        holders = [package, *modules]
        tallies = {
            SOLVE: ("zeros.zeros_computed", len),
            "cli.dispatch": ("cli.rows", lambda report: len(report.rows)),
        }
        for short, module in zip(MODULES, modules):
            targets = [
                (None, attr) for attr, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not attr.startswith("_") and f"{short}.{attr}" not in SKIPPED
            ]
            for owner, attrs in EXTRA.get(short, {}).items():
                targets += [(owner, attr) for attr in attrs]
            for owner, attr in targets:
                name = f"{short}.{owner}.{attr}" if owner else f"{short}.{attr}"
                if owner:
                    cls = getattr(module, owner)
                    setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, tallies.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)

    def write(self, path):
        """Write the spans as tab-separated ``name start end parent run`` lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\trun\n")
            for name, start, end, parent, run in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run}\n")


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics, named as in BENCHMARK.json, from spans and boundary counts."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    self_time = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            self_time[parent] -= durations[index]

    def members(*group):
        return [i for i, name in enumerate(names) if name in group]

    def calls(*group):
        return len(members(*group))

    def self_s(*group):
        return sum((self_time[i] for i in members(*group)), 0.0)

    def inclusive_s(*group):
        # outermost spans only, so recursion and nesting inside the group
        # (``_ladder`` calling itself, ``__sub__`` calling ``__add__``) count once
        total = 0.0
        for i in members(*group):
            parent = parents[i]
            while parent >= 0 and names[parent] not in group:
                parent = parents[parent]
            if parent < 0:
                total += durations[i]
        return total

    decompose_ms = sorted(durations[i] * 1e3 for i in members(DECOMPOSE))
    if len(decompose_ms) > 1:
        deciles = statistics.quantiles(decompose_ms, n=10)
    else:
        deciles = (decompose_ms or [0.0]) * 9
    zeros_computed = counts["zeros.zeros_computed"]
    newton_evals = sum(1 for i in members(EVAL) if parents[i] >= 0 and names[parents[i]] == SOLVE)
    generate = ("families.generate", "families.generate_all", "families._ladder")
    residuals = ("associated.associated_identity_residual", "associated.extension_identity_residual")
    return {
        "core.polymul_calls": calls("core.Polynomial.__mul__", "core.Polynomial.__rmul__"),
        "core.ring_s": self_s(*RING),
        "core.horner_calls": calls("core.Polynomial.__call__"),
        "core.repr_calls": calls("core.Polynomial.__repr__"),
        "families.generate_calls": calls(*generate),
        "families.generate_s": inclusive_s(*generate),
        "families.eval_calls": calls(EVAL),
        "families.eval_s": inclusive_s(EVAL),
        "families.even_modifier_calls": calls("families.even_modifier"),
        "families.even_modifier_s": inclusive_s("families.even_modifier"),
        "associated.calls": calls("associated.associated"),
        "associated.s": inclusive_s("associated.associated"),
        "associated.residual_s": inclusive_s(*residuals),
        "transform.decompose_calls": calls(DECOMPOSE),
        "transform.decompose_self_s": self_s(DECOMPOSE),
        "transform.decompose_ms.p50": deciles[4],
        "transform.decompose_ms.p90": deciles[8],
        "transform.determinant_calls": calls("transform.christoffel_transform"),
        "transform.determinant_s": inclusive_s("transform.christoffel_transform"),
        "zeros.solve_calls": calls(SOLVE),
        "zeros.zeros_computed": zeros_computed,
        "zeros.solve_self_s": self_s(SOLVE),
        "zeros.newton_evals_per_zero": newton_evals / zeros_computed if zeros_computed else 0.0,
        "zeros.gauss_self_s": self_s("zeros.gauss_rule"),
        "zeros.polyroots_calls": calls("zeros.polynomial_real_roots"),
        "zeros.polyroots_s": inclusive_s("zeros.polynomial_real_roots"),
        "zeros.interlace_calls": calls("zeros.interlace_strict"),
        "zeros.interlace_s": inclusive_s("zeros.interlace_strict"),
        "zeros.stieltjes_self_s": self_s("zeros.stieltjes_check"),
        "cli.dispatch_s": inclusive_s("cli.dispatch"),
        "cli.serialize_s": inclusive_s("cli.Report.to_json"),
        "cli.rows": counts["cli.rows"],
    }
