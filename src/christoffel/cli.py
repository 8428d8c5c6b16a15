"""Command-line driver: reference tables, degree-law grid, verification suites.

Four modes, selected by a mutually exclusive flag:

* ``--table 1|2|3``  recompute every cell of the corresponding reference
  table (extreme zeros and inner bounds) and compare against the printed
  values at their printed precision;
* ``--grid``         run the connection decomposition over a grid of
  (n, m, k) cells and check the degree law plus interlacing behaviour;
* ``--verify``       run the identity residual suites of all modules;
* ``--decompose``    run a single connection decomposition and dump it.

Each mode is a row function ``(config, policy) -> (rows, extra_meta)``;
:func:`dispatch` checks the flags, builds the tolerance policy, times the
mode and builds the :class:`Report` from its rows.

Reports are emitted as JSON (default) or CSV.  Exit status: 0 when nothing
failed (flagged cells are allowed), 1 on any failure, 2 on configuration
errors (``ValueError``: bad flags or flags the mode does not read,
parameters outside a family's range, non-finite values or tolerances, an
``abs_tol`` as wide as a gap between zeros, and an ``--out`` path that
cannot be written), 3 on numerical failure (``ArithmeticError``: a
degenerate transform, zeros that are not simple, a Newton polish that does
not converge, a repeated root of a grid cell's G).

A handful of printed table cells disagree with their recomputed values at
far beyond the printed rounding; these are embedded as flagged cells with
the recomputed reference attached and are reported as "flagged", not
"fail".  See the README for the list.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from mpmath import mp

from . import __version__
from .core import TolerancePolicy, to_scalar
from .families import _sweep, even_modifier, generate, generate_all, mp_family, mp_symmetry_residual, pj_family, recurrence_residual
from .associated import associated_identity_residual, extension_identity_residual
from .transform import christoffel_transform, connection_decompose, connection_degree_law
from .zeros import (
    bound_separation,
    gauss_rule,
    interlace_strict,
    stieltjes_check,
    zeros_golub_welsch,
)

ENV_PRECISION = "CHRISTOFFEL_PRECISION_BITS"

# Tolerance for matching a flagged cell against its recomputed reference.
_FLAG_TOL = "5e-4"

# The RunConfig fields that pick a table, a family or a cell, by flag.
_FLAGS = {"table_id": "--table", "family": "--family", "lam": "--lambda", "phi": "--phi",
          "a": "--a", "b": "--b", "n": "--n", "m": "--m", "k": "--k"}

# Each family's name, constructor and parameter fields, in the constructor's order.
_FAMILIES = {"mp": ("Meixner-Pollaczek", mp_family, ("lam", "phi")),
             "pj": ("Pseudo-Jacobi", pj_family, ("a", "b"))}

# Reference tables.  Cells are kept exactly as printed; "accepted" entries
# carry the recomputed value for cells whose printed figure disagrees with
# recomputation far beyond its rounding (suspected misprints).
_TABLES = {
    1: {
        "family": "mp",
        "n": 30,
        "columns": ("x_min", "B0", "B2", "x_max"),
        "rows": [
            {"params": {"lambda": "0.5", "phi": "0.08"},
             "cells": {"x_min": "-650.578", "B0": "-367.963", "B2": "-0.307", "x_max": "0.010"},
             "accepted": {}},
            {"params": {"lambda": "0.5", "phi": "0.9"},
             "cells": {"x_min": "-53.239", "B0": "-23.410", "B2": "-0.019", "x_max": "11.016"},
             "accepted": {}},
            {"params": {"lambda": "0.5", "phi": "1.57"},
             "cells": {"x_min": "-24.912", "B0": "-0.023", "B2": "-0.0002", "x_max": "24.870"},
             "accepted": {"B2": "-1.9582e-5"}},
            {"params": {"lambda": "20", "phi": "0.1"},
             "cells": {"x_min": "-853.298", "B0": "-488.366", "B2": "-83.720", "x_max": "-52.403"},
             "accepted": {}},
            {"params": {"lambda": "20", "phi": "1.57"},
             "cells": {"x_min": "-39.186", "B0": "-0.039", "B2": "-0.007", "x_max": "39.113"},
             "accepted": {}},
        ],
    },
    2: {
        "family": "pj",
        "n": 5,
        "columns": ("x_min", "B2", "B1", "B0", "x_max"),
        "rows": [
            {"params": {"a": "-10", "b": "8"},
             "cells": {"x_min": "0.3455", "B2": "0.8889", "B1": "1.6", "B0": "2.6667", "x_max": "3.5733"},
             "accepted": {}},
            {"params": {"a": "-5.5", "b": "8"},
             "cells": {"x_min": "1.1189", "B2": "1.7778", "B1": "16", "B0": "58.6667", "x_max": "60.7767"},
             "accepted": {}},
            {"params": {"a": "-5.0001", "b": "3"},
             "cells": {"x_min": "0.2456", "B2": "0.7500", "B1": "30000", "B0": "149988", "x_max": "149988"},
             "accepted": {}},
            {"params": {"a": "-5.5", "b": "0"},
             "cells": {"x_min": "-2.1428", "B2": "0", "B1": "0", "B0": "0", "x_max": "2.1428"},
             "accepted": {}},
        ],
    },
    3: {
        "family": "pj",
        "n": 25,
        "columns": ("x_min", "B2", "B0", "x_max"),
        "rows": [
            {"params": {"a": "-35", "b": "8"},
             "cells": {"x_min": "-1.6655", "B2": "0.2353", "B0": "2.5455", "x_max": "4.8432"},
             # recomputed smallest zero is -1.0655 (confirmed independently
             # by double-precision tridiagonal eigenvalues, polynomial root
             # finding at 256 bits and weight-function quadrature)
             "accepted": {"x_min": "-1.0655"}},
            {"params": {"a": "-35", "b": "1"},
             "cells": {"x_min": "-1.1237", "B2": "0.0294", "B0": "0.3185", "x_max": "2.5933"},
             # recomputed smallest zero is -2.1237; B0 = 35/110 = 0.31818
             "accepted": {"x_min": "-2.1237", "B0": "0.31818"}},
            {"params": {"a": "-35", "b": "0"},
             "cells": {"x_min": "-2.3478", "B2": "0", "B0": "0", "x_max": "2.3478"},
             "accepted": {}},
            {"params": {"a": "-55", "b": "5"},
             "cells": {"x_min": "-0.9916", "B2": "0.09926", "B0": "0.2957", "x_max": "1.4992"},
             # recomputed B2 = 5/54 = 0.0926
             "accepted": {"B2": "0.0926"}},
        ],
    },
}


@dataclass
class RunConfig:
    command: str  # "table" | "grid" | "verify" | "decompose"
    table_id: Optional[int] = None
    family: Optional[str] = None  # "mp" | "pj"
    lam: Optional[str] = None
    phi: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None
    precision_bits: int = 256
    rel_tol: Optional[str] = None
    abs_tol: Optional[str] = None
    fmt: str = "json"
    out: Optional[str] = None

    def policy(self) -> TolerancePolicy:
        return TolerancePolicy(self.precision_bits, self.rel_tol, self.abs_tol)


@dataclass
class Report:
    meta: dict
    rows: list
    summary: dict

    @property
    def exit_code(self) -> int:
        return 0 if self.summary.get("fail", 0) == 0 else 1

    def to_json(self) -> str:
        return json.dumps(
            {"meta": self.meta, "rows": self.rows, "summary": self.summary},
            indent=2,
            ensure_ascii=False,
        ) + "\n"

    def to_csv(self) -> str:
        flat_rows = [_flatten(r) for r in self.rows]
        fields: list = []
        for fr in flat_rows:
            for key in fr:
                if key not in fields:
                    fields.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\r\n")
        writer.writeheader()
        for fr in flat_rows:
            writer.writerow(fr)
        return buf.getvalue()


def _flatten(obj, prefix: str = "") -> dict:
    out = {}
    for key, val in obj.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(val, dict):
            out.update(_flatten(val, name))
        elif isinstance(val, (list, tuple)):
            out[name] = ";".join(str(v) for v in val)
        else:
            out[name] = "" if val is None else str(val)
    return out


def _fmt(x, sig: int = 12) -> str:
    # nstr writes the whole mantissa as a decimal integer, which Python refuses past 4300 digits
    # (about 14,300 bits), so a value wider than 4096 bits is rounded first; others print as they are
    if x._mpf_[3] > 4096:
        with mp.workprec(4096):
            x = +x
    return mp.nstr(x, sig)


def _meta(config: RunConfig, policy: TolerancePolicy, elapsed: float, extra: dict) -> dict:
    meta = {
        "version": __version__,
        "command": config.command,
        "precision_bits": policy.precision_bits,
        "rel_tol": _fmt(policy.rel_tol, 6),
        "abs_tol": _fmt(policy.abs_tol, 6),
        **extra,
    }
    # everything under "timestamp" is exempt from the byte-identical
    # reproducibility contract
    meta["timestamp"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(elapsed, 3),
    }
    return meta


def _summarise(rows) -> dict:
    counts = {"rows": len(rows), "pass": 0, "flagged": 0, "fail": 0}
    for r in rows:
        counts[r["verdict"]] += 1
    return counts


def _cell_tolerance(printed: str) -> mp.mpf:
    """Half a unit of the printed precision, times ten: 5e-4 for 4 decimals."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return mp.mpf(5) * mp.mpf(10) ** (-decimals)


def _table_rows(config: RunConfig, policy: TolerancePolicy):
    if config.table_id not in _TABLES:
        raise ValueError(f"unknown table {config.table_id}")
    spec = _TABLES[config.table_id]
    build = _FAMILIES[spec["family"]][1]
    n = spec["n"]
    rows = []
    for fixture in spec["rows"]:
        params = fixture["params"]
        with policy.workprec():
            report = bound_separation(build(*params.values(), policy), n, policy)
            computed = {c: report.bounds[int(c[1])] if c[0] == "B" else getattr(report, c) for c in spec["columns"]}
            cell_verdicts = {}
            deviation = {}
            tolerance = {}
            flag_tol = to_scalar(_FLAG_TOL)
            for col in spec["columns"]:
                printed = fixture["cells"][col]
                tol = _cell_tolerance(printed)
                dev = abs(computed[col] - to_scalar(printed))
                deviation[col] = _fmt(dev, 3)
                tolerance[col] = _fmt(tol, 3)
                accepted = fixture["accepted"].get(col)
                if accepted is None:
                    cell_verdicts[col] = "pass" if dev <= tol else "fail"
                else:
                    ref_dev = abs(computed[col] - to_scalar(accepted))
                    cell_verdicts[col] = "flagged" if ref_dev <= flag_tol else "fail"
        if any(v == "fail" for v in cell_verdicts.values()):
            verdict = "fail"
        elif any(v == "flagged" for v in cell_verdicts.values()):
            verdict = "flagged"
        else:
            verdict = "pass"
        rows.append(
            {
                "inputs": {**params, "n": n},
                "computed": {c: _fmt(v) for c, v in computed.items()},
                "expected": dict(fixture["cells"]),
                "accepted": dict(fixture["accepted"]),
                "deviation": deviation,
                "tolerance": tolerance,
                "cells": cell_verdicts,
                "verdict": verdict,
            }
        )
    return rows, {"table": config.table_id}


def _degree_law(decomp) -> tuple:
    """The measured and predicted degrees of (a, G), as report fields, and whether they match."""
    law = connection_degree_law(decomp.k, decomp.m)
    fields = {
        "deg_a": decomp.a_poly.degree,
        "deg_G": decomp.G_poly.degree,
        "law_deg_a": law.deg_a,
        "law_deg_G": law.deg_G,
        "linear_G": law.linear_G,
    }
    return fields, fields["deg_a"] == law.deg_a and fields["deg_G"] == law.deg_G


def _sign_changes(values) -> int:
    """Sign changes along ``values``, zero entries dropped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sign_at(f, xm: int, xe: int) -> int:
    """f(x) 2**(k deg f), k = max(0, -xe), at x = xm * 2**xe for ascending integer coefficients ``f``:
    an exact integer of f(x)'s sign."""
    k = max(0, -xe)
    xm <<= max(0, xe)
    acc = 0
    for shift, c in enumerate(reversed(f)):
        acc = acc * xm + (c << k * shift)
    return acc


def _root_counts(G, zp, cell) -> tuple:
    """(real, below, above): the real roots of G, those below x_1 and those above x_n, counted exactly (Sturm).

    G's kernel pairs and the points x_1, x_n of ``zp.points`` are dyadic rationals, so the chain is
    formed on integers: G scaled to integer coefficients, G', then each negated pseudo-remainder,
    taken with the positive multiplier |lc|**delta and divided by its content, which keeps every
    sign.  With V(x) the chain's sign changes at x, V(a) - V(b) counts the roots in (a, b], so a
    root at x_1 is not below; V(-inf) and V(inf) read the leading coefficients.  A constant G has
    no roots; a nonconstant last element is a repeated root of G, an ``ArithmeticError`` naming ``cell``.
    """
    from math import gcd  # integers only: fractions would cost every CLI start its import

    if G.degree < 1:
        return 0, 0, 0
    low = min(e for m, e in G._pairs if m)
    chain = [[m << (e - low) if m else 0 for m, e in G._pairs]]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        scale, lead = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            q, s = lead * r[-1], len(r) - len(b)
            r = [scale * c - (q * b[i - s] if i >= s else 0) for i, c in enumerate(r[:-1])]
        while r and not r[-1]:
            r.pop()
        if not r:
            raise ArithmeticError(f"connection coefficient G of cell (n, m, k) = {cell} has a repeated root")
        content = gcd(*r)
        chain.append([-c // content for c in r])
    ends = [_sign_changes([f[-1] * (-1) ** (len(f) - 1) for f in chain]), _sign_changes([f[-1] for f in chain])]
    at = [_sign_changes([_sign_at(f, *x) for f in chain]) for x in (zp.points[0], zp.points[-1])]
    below = ends[0] - at[0] - (_sign_at(chain[0], *zp.points[0]) == 0)
    return ends[0] - ends[1], below, at[1] - ends[1]


def _grid_interlace(decomp, zp, rows, policy: TolerancePolicy) -> str:
    """Interlace verdict of G g_{n-m,k} against the zeros ``zp`` of p_n (see :func:`_grid_rows`).

    ``rows[i]`` holds the shifted family's sweep rows at zp[i], (g_{j,k}, g_{j,k}') as kernel
    pairs (m, e, dm, de) for j = 0, 1, ...; the sign changes of g_0..g_{n-m} at x count g's
    zeros above x (Sturm), and one at x_1 is not outside.  A failed cell is named by counts
    alone: G's nonreal roots, and its real ones inside and outside [x_1, x_n], from
    :func:`_root_counts`; no root is solved for.
    """
    n, m = decomp.n, decomp.m
    G = decomp.G_poly
    verdict = None
    if G.degree == m - 1:
        verdict = interlace_strict(G, [row[n - m] for row in rows], n - m, zp, policy)
        if verdict.strict:
            return "holds"
    real, below, above = _root_counts(G, zp, (n, m, decomp.k))
    if G.degree > real:
        return f"fails({G.degree - real} nonreal G roots)"
    if verdict is not None:
        return "fails(common zeros)" if verdict.common else "fails"
    first, last = ([r[0] for r in row[: n - m + 1]] for row in (rows[0], rows[-1]))
    outside = n - m - _sign_changes(first) - (first[-1] == 0) + _sign_changes(last) + below + above
    return f"fails(size {n - m + real} vs {len(zp) - 1}, {outside} outside span)"


def _grid_rows(config: RunConfig, policy: TolerancePolicy):
    """Degree-law and interlacing grid for the Meixner-Pollaczek family.

    Cells: n in 4..n_max (default 12), m in 2..n, k in 0..m+2.  For every
    cell the measured degrees of (a, G) must match the law and the identity
    residual must sit below tolerance.  When deg G = m-1, which the law gives
    for every k <= m, the zeros of G * g_{n-m,k} must strictly interlace the
    zeros of p_n (the paper's theorem).  That is decided by the sign
    alternation of G * g at the zeros of p_n (G by Horner, g by its
    recurrence); no root of G or g is computed, not even to name a failed cell.
    g is evaluated once per (n, k): one recurrence sweep of the shifted
    family at each zero of p_n, to the degree n-m of the first cell that
    needs it, gives g_{n-m,k} for every later m.  The sweep rows stay kernel pairs, and
    ``interlace_strict`` forms q = G g and q' from G and the rows, on pairs, rounded as by mpf.
    The modifiers, shifted families and left sides are kept by the family.
    For m = 2, k = 3 the product has n+1 zeros, which cannot interlace n
    zeros one-per-gap; the grid asserts that failure and counts, exactly, the roots of G
    (:func:`_root_counts`, a Sturm chain of G) and, by sign changes of the same sweep rows
    (Sturm again), the zeros of g outside [x_1, x_n].
    """
    lam = "0.5" if config.lam is None else config.lam
    phi = "0.9" if config.phi is None else config.phi
    n_max = 12 if config.n is None else config.n
    if n_max < 4:
        raise ValueError("grid needs --n of at least 4")
    fam = mp_family(lam, phi, policy)
    prec = policy.precision_bits
    rows = []
    for n in range(4, n_max + 1):
        zp = zeros_golub_welsch(fam, n, policy)  # every n has interlace cells (m = 2)
        sweeps = {}  # k -> [(g_{j,k}, g_{j,k}') for j <= n-m] at each zero of p_n, kernel pairs
        for m in range(2, n + 1):
            for k in range(0, m + 3):
                decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
                degrees, degrees_ok = _degree_law(decomp)
                residual_ok = decomp.residual <= policy.rel_tol
                interlace = "n/a"
                interlace_ok = True
                if degrees["deg_G"] == m - 1 or (m == 2 and k == 3):
                    if k not in sweeps:  # m is the smallest gap of this k, so n - m the highest degree
                        table = fam.shifted(k).kernel_rows(n - m, prec)
                        sweeps[k] = [[] for _ in zp.points]
                        for p, out in zip(zp.points, sweeps[k]):
                            _sweep(table, n - m, *p, prec, out)
                    interlace = _grid_interlace(decomp, zp, sweeps[k], policy)
                    interlace_ok = (interlace == "holds") == (degrees["deg_G"] == m - 1)
                ok = degrees_ok and residual_ok and interlace_ok
                rows.append(
                    {
                        "inputs": {"n": n, "m": m, "k": k},
                        "computed": {
                            **degrees,
                            "residual": _fmt(decomp.residual, 3),
                            "interlace": interlace,
                            "B": _fmt(decomp.B) if decomp.B is not None else None,
                        },
                        "verdict": "pass" if ok else "fail",
                    }
                )
    return rows, {"lambda": lam, "phi": phi, "n_max": n_max}


def _verify_rows(config: RunConfig, policy: TolerancePolicy):
    rng = random.Random(20250810)
    rows = []

    def record(suite, case, value, threshold, ok):
        rows.append(
            {
                "suite": suite,
                "case": case,
                "value": value,
                "threshold": threshold,
                "verdict": "pass" if ok else "fail",
            }
        )

    def res_row(suite, case, residual):
        record(suite, case, _fmt(residual, 3), _fmt(policy.rel_tol, 3), residual <= policy.rel_tol)

    def sampled(residual, fam, cases, span):
        """The worst residual(fam, *case, x) over three random x in [-span, span] per case."""
        worst = mp.mpf(0)
        for case in cases:
            for _ in range(3):
                worst = max(worst, residual(fam, *case, to_scalar(rng.uniform(-span, span)), policy))
        return worst

    # each parameter set is built once, so its ladder, zeros and shifted
    # families are shared by every suite that uses it
    mp_fams = {case: mp_family(*case, policy) for case in (("0.5", "0.9"), ("20", "0.1"), ("3.25", "2.4"))}
    pj_fams = {case: pj_family(*case, policy) for case in (("-35", "8"), ("-26", "-4"), ("-23.5", "0"))}
    families = [*mp_fams.values(), *pj_fams.values()]
    mp_base, pj_base = mp_fams["0.5", "0.9"], pj_fams["-35", "8"]

    for fam in families:
        res_row("recurrence", fam.label, sampled(recurrence_residual, fam, [(2,), (9,), (17,)], 4))

    for fam in families:
        res_row("associated-bridge", fam.label, sampled(associated_identity_residual, fam, [(6, 3), (12, 7), (20, 20)], 3))
        res_row("extension", fam.label, sampled(extension_identity_residual, fam, [(5, 0), (5, 1), (8, 5), (10, 10)], 3))

    for (lam, phi), fam in mp_fams.items():
        res_row("mp-symmetry", f"MP(lambda={lam}, phi={phi})", sampled(mp_symmetry_residual, fam, [(5,), (12,)], 5))

    with policy.workprec():
        pj_oracle = pj_family("-12", "8", policy)
        for fam, tag, k in [(mp_base, "MP", k) for k in (1, 2, 3)] + [(pj_oracle, "PJ", 1)]:
            mod = even_modifier(fam, k, policy)
            worst = mp.mpf(0)
            dets = [christoffel_transform(fam, mod, deg, policy) for deg in range(0, 7)]
            for deg, det in enumerate(dets):
                ref = generate(fam.shifted(k), deg, policy)
                worst = max(worst, (det - ref).inf_norm() / max(1, ref.inf_norm()))
            res_row("transform-oracle", f"{tag} k={k}", worst)
            if (tag, k) == ("MP", 2):
                gs = dets[:5]  # read again by the discrete-orthogonality suite

    for fam, cells in (
        (mp_base, [(8, 2, 0), (8, 2, 1), (8, 2, 2), (8, 2, 3), (9, 3, 2), (4, 2, 4)]),
        (pj_family("-20", "8", policy), [(7, 2, 0), (7, 2, 1), (9, 4, 1)]),
    ):
        worst = mp.mpf(0)
        deg_ok = True
        for n, m, k in cells:
            decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
            worst = max(worst, decomp.residual)
            deg_ok = deg_ok and _degree_law(decomp)[1]
        res_row("decomposition-residual", fam.label, worst)
        record("decomposition-degrees", fam.label, "match" if deg_ok else "mismatch", "match", deg_ok)

    with policy.workprec():
        stieltjes_cases = [
            (mp_base, 0, 10, "coprime"),
            (mp_base, 1, 10, "coprime"),
            (mp_base, 2, 10, "coprime"),
            (pj_base, 0, 12, "coprime"),
            (pj_base, 1, 12, "coprime"),
            (pj_base, 2, 12, "coprime"),
            (pj_family("-5.5", "0", policy), 1, 5, "common_zero"),
            (mp_family("0.5", mp.pi / 2, policy), 2, 9, "common_zero"),
            (mp_fams["20", "0.1"], 0, 8, "coprime"),
        ]
    for fam, k, n, branch in stieltjes_cases:
        verdict = stieltjes_check(fam, k, n, policy)
        ok = verdict.ok and verdict.branch == branch
        record(
            "stieltjes",
            f"{fam.label} k={k} n={n}",
            f"{verdict.branch}:{'ok' if verdict.ok else ';'.join(verdict.violations)}",
            f"{branch}:ok",
            ok,
        )

    # normalised by the discrete norms so the gate scales with precision
    for fam, n in ((mp_base, 10), (pj_base, 10)):
        nodes, weights = gauss_rule(fam, n, policy)
        with policy.workprec():
            ladder = generate_all(fam, n - 1, policy)
            vals = [[p(x) for x in nodes.values] for p in ladder]
            norms = [sum(w * v * v for v, w in zip(vals[j], weights)) for j in range(n)]
            worst = mp.mpf(0)
            for j in range(n):
                for l in range(j):
                    s = sum(w * a * b for a, b, w in zip(vals[j], vals[l], weights))
                    worst = max(worst, abs(s) / mp.sqrt(norms[j] * norms[l]))
        res_row("gauss-orthogonality", f"{fam.label} n={n}", worst)

    # discrete orthogonality of the transform oracle's MP k=2 output under the modified weight
    with policy.workprec():
        nodes, weights = gauss_rule(mp_base, 12, policy)
        cs = list(map(even_modifier(mp_base, 2, policy).c, nodes.values))
        gs = [[g(x) for x in nodes.values] for g in gs]
        worst = mp.mpf(0)
        for j in range(5):
            for l in range(j):
                s = sum(w * c * a * b for w, c, a, b in zip(weights, cs, gs[j], gs[l]))
                norm = sum(w * c * a**2 for w, c, a in zip(weights, cs, gs[j]))
                worst = max(worst, abs(s) / norm)
    res_row("transform-discrete-orthogonality", "MP(0.5,0.9) k=2", worst)

    bound_cases = list(families)
    for _ in range(4):
        bound_cases.append(mp_family(to_scalar(rng.uniform(0.1, 25)), to_scalar(rng.uniform(0.05, 3.1)), policy))
        bound_cases.append(pj_family(to_scalar(rng.uniform(-60, -22)), to_scalar(rng.uniform(-10, 10)), policy))
    for fam in bound_cases:
        n = 12 if fam.max_valid_degree is None else min(12, fam.max_valid_degree)
        report = bound_separation(fam, n, policy)
        ok = all(report.separated.values()) and report.ordering_ok
        record(
            "bound-separation",
            f"{fam.label} n={n}",
            f"separated={sorted(report.separated.items())} ordering={report.ordering_ok}",
            "all separated, ordering holds",
            ok,
        )

    return rows, {}


def _family(config: RunConfig, policy: TolerancePolicy):
    if config.family not in _FAMILIES:
        raise ValueError("--family must be mp or pj")
    name, build, fields = _FAMILIES[config.family]
    values = [getattr(config, field) for field in fields]
    if None in values:
        raise ValueError(f"{name} needs {' and '.join(_FLAGS[field] for field in fields)}")
    return build(*values, policy)


def _decompose_rows(config: RunConfig, policy: TolerancePolicy):
    if config.n is None or config.m is None or config.k is None:
        raise ValueError("--decompose needs --n, --m and --k")
    fam = _family(config, policy)
    decomp = connection_decompose(fam, even_modifier(fam, config.k, policy), config.n, config.m, policy)
    degrees, degrees_ok = _degree_law(decomp)
    residual_ok = decomp.residual <= policy.rel_tol
    row = {
        "inputs": {
            "family": fam.label,
            "n": config.n,
            "m": config.m,
            "k": config.k,
        },
        "computed": {
            **degrees,
            "a_coeffs": [_fmt(c) for c in decomp.a_poly.coeffs],
            "G_coeffs": [_fmt(c) for c in decomp.G_poly.coeffs],
            "g_coeffs": [_fmt(c) for c in decomp.g_poly.coeffs],
            "scale": _fmt(decomp.scale),
            "B": _fmt(decomp.B) if decomp.B is not None else None,
            "residual": _fmt(decomp.residual, 3),
            "d": [_fmt(v) for v in decomp.work],
        },
        "verdict": "pass" if (degrees_ok and residual_ok) else "fail",
    }
    return [row], {}


# Each command's row function and the RunConfig fields of _FLAGS it reads;
# --decompose also reads its family's two parameters.
_MODES = {
    "table": (_table_rows, {"table_id"}),
    "grid": (_grid_rows, {"lam", "phi", "n"}),
    "verify": (_verify_rows, set()),
    "decompose": (_decompose_rows, {"family", "n", "m", "k"}),
}


def dispatch(config: RunConfig) -> Report:
    if config.command not in _MODES:
        raise ValueError(f"unknown command {config.command!r}")
    rows_of, reads = _MODES[config.command]
    if config.command == "decompose":
        families = [config.family] if config.family in _FAMILIES else _FAMILIES
        reads = reads.union(*(_FAMILIES[family][2] for family in families))
    unread = [flag for field, flag in _FLAGS.items() if getattr(config, field) is not None and field not in reads]
    if unread:
        raise ValueError(f"--{config.command} does not read {', '.join(unread)}")
    policy = config.policy()
    started = time.monotonic()
    rows, extra_meta = rows_of(config, policy)
    elapsed = time.monotonic() - started
    return Report(meta=_meta(config, policy, elapsed, extra_meta), rows=rows, summary=_summarise(rows))


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; every destination is a :class:`RunConfig` field."""
    parser = argparse.ArgumentParser(
        prog="christoffel",
        description="Orthogonal polynomial connection formulas, zero bounds and reference-table reproduction.",
    )
    # argparse takes "-1e30" for an option flag because its negative-number
    # pattern has no exponent; with this one "--a -1e30" parses as "--a=-1e30".
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-inf$")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", dest="table_id", type=int, choices=(1, 2, 3), help="reproduce a reference table")
    mode.add_argument("--grid", dest="command", action="store_const", const="grid", help="run the degree-law grid")
    mode.add_argument("--verify", dest="command", action="store_const", const="verify", help="run the identity verification suites")
    mode.add_argument("--decompose", dest="command", action="store_const", const="decompose", help="run one connection decomposition")
    parser.set_defaults(command="table")
    parser.add_argument("--family", choices=("mp", "pj"), help="family for --decompose")
    parser.add_argument("--lambda", dest="lam", help="Meixner-Pollaczek lambda")
    parser.add_argument("--phi", help="Meixner-Pollaczek phi")
    parser.add_argument("--a", help="Pseudo-Jacobi a")
    parser.add_argument("--b", help="Pseudo-Jacobi b")
    parser.add_argument("--n", type=int, help="polynomial degree (or grid n cap)")
    parser.add_argument("--m", type=int, help="decomposition gap")
    parser.add_argument("--k", type=int, help="modifier order")
    parser.add_argument("--precision-bits", type=int, default=None)
    parser.add_argument("--rel-tol", default=None)
    parser.add_argument("--abs-tol", default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def config_from_args(args) -> RunConfig:
    bits = args.precision_bits
    if bits is None:
        raw = os.environ.get(ENV_PRECISION, "256")
        try:
            bits = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_PRECISION} must be an integer number of bits, got {raw!r}") from None
    return RunConfig(**{**vars(args), "precision_bits": bits})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        report = dispatch(config)
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    text = report.to_csv() if config.fmt == "csv" else report.to_json()
    if config.out:
        try:
            Path(config.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"configuration error: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
