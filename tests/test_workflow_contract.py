"""The names the CI workflow's Python steps wrap and read must exist.

Those steps log counts and gate nothing (``continue-on-error``), so a renamed
function would show only as a traceback under a green check.
"""

from __future__ import annotations

import ast
import importlib
import re
import textwrap
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _scripts() -> dict:
    """{step name: its Python source} for each step that feeds a heredoc to ``python -``."""
    steps = re.split(r"\n\s*- name: ", WORKFLOW.read_text(encoding="utf-8"))[1:]
    out = {}
    for step in steps:
        body = re.search(r"python - [^\n]*<<'EOF'\n(.*?)\n\s*EOF$", step, re.S | re.M)
        if body:
            out[step.splitlines()[0]] = textwrap.dedent(body.group(1))
    return out


def _named(source: str) -> set:
    """(owner, attribute) for every name the script imports from christoffel, and every attribute of what it
    imports (a module, a class taken from one) that it reads, assigns or passes to ``getattr``/``setattr``;
    names bound by plain assignments are followed."""
    tree = ast.parse(source)
    package = importlib.import_module("christoffel")
    env, strings, loops, named = {}, {}, {}, set()

    def resolve(node):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute) and resolve(node.value) is not None:
            return getattr(resolve(node.value), node.attr, None)
        return None

    nodes = sorted((n for n in ast.walk(tree) if hasattr(n, "lineno")), key=lambda n: (n.lineno, n.col_offset))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "christoffel":
            for alias in node.names:
                try:  # a submodule, imported as the import statement would
                    env[alias.asname or alias.name] = importlib.import_module(f"christoffel.{alias.name}")
                except ModuleNotFoundError:
                    env[alias.asname or alias.name] = getattr(package, alias.name, None)
                named.add((package, alias.name))
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], (ast.Name, ast.Tuple)):
            targets = node.targets[0].elts if isinstance(node.targets[0], ast.Tuple) else [node.targets[0]]
            values = node.value.elts if isinstance(node.value, ast.Tuple) and len(targets) > 1 else [node.value]
            for target, value in zip(targets, values):
                if isinstance(target, ast.Name) and resolve(value) is not None:
                    env[target.id] = resolve(value)
                elif isinstance(target, ast.Name) and isinstance(value, ast.Tuple):
                    strings[target.id] = [c.value for c in value.elts if isinstance(c, ast.Constant)]
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Name) and node.iter.id in strings:
            loops[node.target.id] = strings[node.iter.id]
        elif isinstance(node, ast.Attribute) and resolve(node.value) is not None:
            named.add((resolve(node.value), node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("getattr", "setattr"):
            owner, attr = node.args[:2]
            if resolve(owner) is not None and isinstance(attr, ast.Name):
                named.update((resolve(owner), name) for name in loops.get(attr.id, ()))
    return named


def test_workflow_names_exist():
    named = {(owner.__name__, attr): hasattr(owner, attr) for script in _scripts().values() for owner, attr in _named(script)}
    missing = sorted(f"{owner}.{attr}" for (owner, attr), found in named.items() if not found)
    assert not missing, f"the workflow names {missing}, which no longer exist"
    # the private names the logging steps wrap are among those checked, so the parsing above sees them
    assert {
        ("christoffel.zeros", "_q_at"),
        ("christoffel.zeros", "_enclose"),
        ("christoffel.zeros", "_count_pairs"),
        ("christoffel.core", "_chorner"),
        ("christoffel.transform", "_chorner"),
        ("RecurrenceFamily", "kernel_rows"),
        ("christoffel.cli", "interlace_strict"),
    } <= set(named)
