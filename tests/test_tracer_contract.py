"""The names bench/tracer.py patches must exist, or ``--trace 1`` breaks silently."""

from __future__ import annotations

import importlib
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


def test_ladder_returns_exactly_n_plus_one_polynomials(policy):
    fam = mp_family("0.5", "0.9", policy)
    for n in (4, 0, 7):
        ladder = _ladder(fam, n, policy.precision_bits)
        assert isinstance(ladder, tuple) and len(ladder) == n + 1
        assert all(isinstance(p, Polynomial) and p.degree == j for j, p in enumerate(ladder))
