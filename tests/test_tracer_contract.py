"""The names bench/tracer.py patches and reads must exist, or ``--trace 1`` breaks or reads 0 silently."""

from __future__ import annotations

import ast
import importlib
import inspect
import types
from pathlib import Path

from christoffel import Polynomial, mp_family
from christoffel.families import _ladder

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Execute the tracer source in a fresh module, without importing or caching it."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_extra_names_resolve():
    tracer = _load_tracer()
    for short, owners in tracer.EXTRA.items():
        assert short in tracer.MODULES
        module = importlib.import_module(f"christoffel.{short}")
        for owner, attrs in owners.items():
            for attr in attrs:
                if owner is None:
                    assert callable(getattr(module, attr, None)), f"{short}.{attr}"
                else:
                    assert attr in vars(getattr(module, owner)), f"{short}.{owner}.{attr}"


def _metric_names(tracer) -> set:
    """Every span name ``layer_metrics`` reads: its constants, literals and local tuples."""
    names = {*tracer.RING, tracer.SOLVE, tracer.EVAL, tracer.DECOMPOSE}
    tree = ast.parse(inspect.getsource(tracer.layer_metrics))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in ("generate", "residuals"):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("calls", "self_s", "inclusive_s"):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return names


def test_tracer_metric_names_resolve():
    """A span name ``layer_metrics`` reads is a function or method the tracer wraps."""
    tracer = _load_tracer()
    names = _metric_names(tracer)
    assert {"families._ladder", "associated.extension_identity_residual", "zeros.stieltjes_check"} <= names
    for name in names:
        short, *path = name.split(".")
        assert short in tracer.MODULES and name not in tracer.SKIPPED, name
        module = importlib.import_module(f"christoffel.{short}")
        if len(path) == 2:
            owner, attr = path
            assert attr in tracer.EXTRA.get(short, {}).get(owner, ()), name
            assert callable(vars(getattr(module, owner)).get(attr)), name
        else:
            (attr,) = path
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
            assert not attr.startswith("_") or attr in tracer.EXTRA.get(short, {}).get(None, ()), name


def test_ladder_returns_exactly_n_plus_one_polynomials(policy):
    fam = mp_family("0.5", "0.9", policy)
    for n in (4, 0, 7):
        ladder = _ladder(fam, n, policy.precision_bits)
        assert isinstance(ladder, tuple) and len(ladder) == n + 1
        assert all(isinstance(p, Polynomial) and p.degree == j for j, p in enumerate(ladder))
