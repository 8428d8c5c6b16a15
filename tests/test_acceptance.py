"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configured: table cells match their printed
precision (5e-3 for 3-decimal cells, 5e-4 for 4-decimal cells), identity
residuals stay below 2**-(precision_bits/2) at 256 bits, Gauss orthogonality
below 1e-30.  Cells whose printed value provably disagrees with recomputation
are compared against the recomputed reference and counted as flagged; the
literal printed-value assertions for the two misprinted smallest-zero cells
of table 3 live in a strict xfail test at the bottom.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from christoffel import (
    TolerancePolicy,
    christoffel_transform,
    connection_decompose,
    connection_degree_law,
    even_modifier,
    gauss_rule,
    generate,
    generate_all,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    polynomial_real_roots,
    recurrence_residual,
    stieltjes_check,
    zeros_golub_welsch,
)
from christoffel.associated import associated_identity_residual, extension_identity_residual
from christoffel.core import _relative, _to_mpf, _unpack
from christoffel.families import _ladder
from christoffel.cli import RunConfig, dispatch
from polyhelpers import max_rel_coeff_diff

POLICY = TolerancePolicy()


def _announce(num: int, name: str, ok: bool, elapsed: float, note: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {note}" if note else ""
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.2f}s){tail}")


def test_criterion_1_table1_reproduction():
    started = time.monotonic()
    report = dispatch(RunConfig(command="table", table_id=1))
    elapsed = time.monotonic() - started

    ok = report.summary["fail"] == 0
    flagged_cells = [
        (row["inputs"]["lambda"], row["inputs"]["phi"], col)
        for row in report.rows
        for col, v in row["cells"].items()
        if v == "flagged"
    ]
    ok = ok and flagged_cells == [("0.5", "1.57", "B2")]
    with POLICY.workprec():
        for row in report.rows:
            for col, verdict in row["cells"].items():
                if verdict == "pass":
                    dev = mp.mpf(row["deviation"][col])
                    ok = ok and dev <= mp.mpf("5e-3")
        flagged_row = next(r for r in report.rows if r["verdict"] == "flagged")
        recomputed = mp.mpf(flagged_row["computed"]["B2"])
        ok = ok and abs(recomputed - mp.mpf("-1.9582e-5")) < mp.mpf("1e-8")
    ok = ok and elapsed < 5.0
    _announce(1, "table 1 reproduction (5 rows, n=30, <5s)", ok, elapsed,
              "printed B2=-0.0002 at phi=1.57 flagged; recomputed -1.9582e-5")
    assert ok


def _rational_pj_bounds(a_str: str, b_str: str, n: int):
    a, b = Fraction(a_str), Fraction(b_str)
    return {
        0: -a * b / ((a + n) * (a + n - 1)),
        1: -b / (a + n),
        2: -b / (a + 1),
    }


def test_criterion_2_table2_reproduction():
    from christoffel import inner_bound

    started = time.monotonic()
    report = dispatch(RunConfig(command="table", table_id=2))
    elapsed = time.monotonic() - started

    ok = report.summary == {"rows": 4, "pass": 4, "flagged": 0, "fail": 0}
    with POLICY.workprec():
        for row in report.rows:
            for col in ("x_min", "B2", "B1", "B0", "x_max"):
                printed = row["expected"][col]
                decimals = len(printed.split(".")[1]) if "." in printed else 0
                if decimals == 4:
                    dev = mp.mpf(row["deviation"][col])
                    ok = ok and dev <= mp.mpf("5e-4")
            # bound cells against exact rational evaluation
            exact = _rational_pj_bounds(row["inputs"]["a"], row["inputs"]["b"], 5)
            for k in (0, 1, 2):
                got = inner_bound(pj_family(row["inputs"]["a"], row["inputs"]["b"], POLICY), 5, k, POLICY)
                want = mp.mpf(exact[k].numerator) / exact[k].denominator
                ok = ok and abs(got - want) <= mp.ldexp(1, -100) * max(1, abs(want))
    ok = ok and elapsed < 2.0
    _announce(2, "table 2 reproduction (4 rows, n=5, rational bounds, <2s)", ok, elapsed)
    assert ok


def test_criterion_3_table3_reproduction():
    from christoffel import inner_bound

    started = time.monotonic()
    report = dispatch(RunConfig(command="table", table_id=3))
    elapsed = time.monotonic() - started

    ok = report.summary["fail"] == 0
    rows = {(r["inputs"]["a"], r["inputs"]["b"]): r for r in report.rows}
    with POLICY.workprec():
        # spec-recorded discrepancies: recomputed values accepted
        ok = ok and rows[("-55", "5")]["cells"]["B2"] == "flagged"
        ok = ok and abs(inner_bound(pj_family(-55, 5, POLICY), 25, 2, POLICY) - mp.mpf(5) / 54) < mp.mpf("1e-30")
        ok = ok and rows[("-35", "1")]["cells"]["B0"] == "flagged"
        ok = ok and abs(inner_bound(pj_family(-35, 1, POLICY), 25, 0, POLICY) - mp.mpf(35) / 110) < mp.mpf("1e-30")
        # all remaining 4-decimal cells match print, except the two smallest-zero
        # cells that are themselves misprints (see the xfail test below)
        misprinted = {(("-35", "8"), "x_min"), (("-35", "1"), "x_min")}
        for key, row in rows.items():
            for col, verdict in row["cells"].items():
                if (key, col) in misprinted:
                    ok = ok and verdict == "flagged"
                    continue
                if verdict == "pass":
                    printed = row["expected"][col]
                    decimals = len(printed.split(".")[1]) if "." in printed else 0
                    if decimals == 4:
                        ok = ok and mp.mpf(row["deviation"][col]) <= mp.mpf("5e-4")
        for (a, b), row in rows.items():
            exact = _rational_pj_bounds(a, b, 25)
            for k in (0, 2):
                got = inner_bound(pj_family(a, b, POLICY), 25, k, POLICY)
                want = mp.mpf(exact[k].numerator) / exact[k].denominator
                ok = ok and abs(got - want) <= mp.ldexp(1, -100) * max(1, abs(want))
        # the recomputed smallest zeros behind the two flagged x_min cells
        ok = ok and abs(mp.mpf(rows[("-35", "8")]["computed"]["x_min"]) - mp.mpf("-1.0655")) < mp.mpf("5e-4")
        ok = ok and abs(mp.mpf(rows[("-35", "1")]["computed"]["x_min"]) - mp.mpf("-2.1237")) < mp.mpf("5e-4")
    ok = ok and elapsed < 5.0
    _announce(3, "table 3 reproduction (4 rows, n=25, <5s)", ok, elapsed,
              "4 flagged cells: 2 recorded bound discrepancies + 2 misprinted smallest zeros")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "printed smallest-zero cells of table 3 rows (a=-35,b=8) and (a=-35,b=1) "
        "are misprints: recomputed -1.0655 and -2.1237 (printed -1.6655 / -1.1237), "
        "confirmed by double-precision tridiagonal eigenvalues, 256-bit polynomial "
        "root finding, weight-function quadrature orthogonality and the "
        "shift-by-one mixed recurrence; the literal 5e-4 agreement is unattainable"
    ),
)
def test_criterion_3_literal_xmin_prints():
    report = dispatch(RunConfig(command="table", table_id=3))
    rows = {(r["inputs"]["a"], r["inputs"]["b"]): r for r in report.rows}
    with POLICY.workprec():
        assert abs(mp.mpf(rows[("-35", "8")]["computed"]["x_min"]) - mp.mpf("-1.6655")) <= mp.mpf("5e-4")
        assert abs(mp.mpf(rows[("-35", "1")]["computed"]["x_min"]) - mp.mpf("-1.1237")) <= mp.mpf("5e-4")


def test_criterion_4_degree_law_grid(default_grid):
    report = json.loads(default_grid.run.out)
    elapsed = default_grid.run.dispatch_s  # one real default-grid dispatch

    expected_cells = sum(m + 3 for n in range(4, 13) for m in range(2, n + 1))
    ok = report["summary"]["rows"] == expected_cells
    ok = ok and report["summary"]["fail"] == 0
    degree_matches = 0
    for row in report["rows"]:
        c = row["computed"]
        if c["deg_a"] == c["law_deg_a"] and c["deg_G"] == c["law_deg_G"]:
            degree_matches += 1
        m, k = row["inputs"]["m"], row["inputs"]["k"]
        ok = ok and ((c["deg_G"] == m - 1) == (k <= m))
    ok = ok and degree_matches == expected_cells
    ok = ok and elapsed < 60.0
    _announce(4, f"degree-law grid ({expected_cells} cells, 100% match, <60s)", ok, elapsed)
    assert ok


def test_criterion_5_identity_residual_suites():
    started = time.monotonic()
    rng = random.Random(20250810)
    tol = POLICY.rel_tol  # 2**-(precision_bits/2)
    worst = mp.mpf(0)
    ok = True

    def draw_points(source=rng):
        return [source.uniform(-6, 6) for _ in range(10)]

    def check_decomposition(fam, n, m, k, source=rng):
        """The connection identity at ten drawn points, and the degree law."""
        nonlocal worst, ok
        decomp = connection_decompose(fam, even_modifier(fam, k, POLICY), n, m, POLICY)
        law = connection_degree_law(k, m)
        ok = ok and (decomp.a_poly.degree, decomp.G_poly.degree) == (law.deg_a, law.deg_G)
        worst = max(worst, decomp.residual)
        with POLICY.workprec():
            ladder = _ladder(fam, n, POLICY.precision_bits)
            mod_c = even_modifier(fam, k, POLICY).c
            for x in draw_points(source):
                x = mp.mpf(x)
                t1 = mod_c(x) * decomp.g_poly(x)
                t2 = decomp.a_poly(x) * ladder[n](x)
                t3 = decomp.G_poly(x) * ladder[n - 1](x)
                total, *terms = (_unpack(t._mpf_) for t in (t1 - t2 + t3, t1, t2, t3))
                worst = max(worst, _to_mpf(*_relative(total, terms, POLICY.precision_bits)))

    for family_kind in ("mp", "pj"):
        for _ in range(50):
            if family_kind == "mp":
                fam = mp_family(rng.uniform(0.05, 30), rng.uniform(0.05, 3.09), POLICY)
            else:
                fam = pj_family(rng.uniform(-60, -21), rng.uniform(-12, 12), POLICY)

            n = rng.randint(2, 20)
            for x in draw_points():
                worst = max(worst, recurrence_residual(fam, n, x, POLICY))

            n = rng.randint(3, 20)
            m = rng.randint(2, n)
            for x in draw_points():
                worst = max(worst, associated_identity_residual(fam, n, m, x, POLICY))

            n = rng.randint(1, 10)
            m = rng.randint(0, 10)
            for x in draw_points():
                worst = max(worst, extension_identity_residual(fam, n, m, x, POLICY))

            if family_kind == "mp":
                n = rng.randint(0, 20)
                for x in draw_points():
                    worst = max(worst, mp_symmetry_residual(fam, n, x, POLICY))

            n = rng.randint(4, 20)
            m = rng.randint(2, 5)
            k = rng.randint(0, 3 if family_kind == "mp" else 1)
            check_decomposition(fam, n, m, k)

    # Pseudo-Jacobi at k = 2 and 3, where the modifier (1+x^2)^k repeats its
    # zeros; drawn from their own generator so the draws above stay as they are
    pj_rng = random.Random(20250811)
    for _ in range(30):
        fam = pj_family(pj_rng.uniform(-60, -21), pj_rng.uniform(-12, 12), POLICY)
        for k in (2, 3):
            m = pj_rng.randint(2, 5)
            # the decomposition reads degrees up to n - m + 2k
            n = pj_rng.randint(max(4, m), min(20, fam.max_valid_degree + m - 2 * k))
            check_decomposition(fam, n, m, k, pj_rng)

    ok = ok and worst <= tol
    elapsed = time.monotonic() - started
    _announce(5, "identity residual suites (50 draws/family and 60 PJ k=2,3 cells, 10 points each)", ok, elapsed,
              f"worst relative residual {mp.nstr(worst, 3)} vs tolerance {mp.nstr(tol, 3)}")
    assert ok


def test_criterion_6_transform_oracle_equivalence():
    started = time.monotonic()
    tol = POLICY.rel_tol
    worst = mp.mpf(0)
    fam = mp_family("0.5", "0.9", POLICY)
    for k in (1, 2, 3):
        mod = even_modifier(fam, k, POLICY)
        shifted = fam.shifted(k)
        for deg in range(0, 11):
            det = christoffel_transform(fam, mod, deg, POLICY)
            ref = generate(shifted, deg, POLICY)
            with POLICY.workprec():
                worst = max(worst, max_rel_coeff_diff(det, ref))
    pj = pj_family(-12, 8, POLICY)
    for k in (1, 2, 3):
        # (1+x^2)^k for k >= 2 repeats the zeros +-i: confluent rows
        mod = even_modifier(pj, k, POLICY)
        shifted = pj.shifted(k)
        for deg in range(0, pj.max_valid_degree - 2 * k + 1):
            det = christoffel_transform(pj, mod, deg, POLICY)
            ref = generate(shifted, deg, POLICY)
            with POLICY.workprec():
                worst = max(worst, max_rel_coeff_diff(det, ref))
    ok = worst <= tol
    elapsed = time.monotonic() - started
    _announce(6, "transform vs parameter-shift oracle (MP k=1..3, PJ k=1..3)", ok, elapsed,
              f"worst coefficient deviation {mp.nstr(worst, 3)}")
    assert ok


def test_criterion_7_interlacing_property_suite():
    started = time.monotonic()
    ok = True
    notes = []

    coprime_cases = [
        (mp_family("0.5", "0.9", POLICY), k, n) for k in (0, 1, 2) for n in (5, 10, 16)
    ] + [
        (mp_family(20, "0.1", POLICY), k, 8) for k in (0, 1, 2)
    ] + [
        (pj_family(-35, 8, POLICY), k, n) for k in (0, 1, 2) for n in (6, 12, 25)
    ] + [
        (pj_family(-26, -4, POLICY), k, 9) for k in (0, 1, 2)
    ]
    for fam, k, n in coprime_cases:
        verdict = stieltjes_check(fam, k, n, POLICY)
        if not (verdict.ok and verdict.branch == "coprime"):
            ok = False
            notes.append(f"coprime {fam.label} k={k} n={n}: {verdict.violations}")

    with POLICY.workprec():
        right_angle = mp_family("0.5", mp.pi / 2, POLICY)
    common_cases = [
        (pj_family("-5.5", 0, POLICY), 1, 5),
        (pj_family("-23.5", 0, POLICY), 1, 11),
        (pj_family("-23.5", 0, POLICY), 2, 11),
        (right_angle, 0, 7),
        (right_angle, 1, 9),
        (right_angle, 2, 9),
    ]
    for fam, k, n in common_cases:
        verdict = stieltjes_check(fam, k, n, POLICY)
        good = (
            verdict.ok
            and verdict.branch == "common_zero"
            and len(verdict.common) == 1
        )
        with POLICY.workprec():
            good = good and abs(verdict.common[0] - verdict.bound) <= POLICY.abs_tol
        if not good:
            ok = False
            notes.append(f"common-zero {fam.label} k={k} n={n}: {verdict.violations}")

    # k=3 gap-2 cells: the n+1 zeros of G * g cannot interlace the n zeros of
    # p_n (two land outside the extreme-zero span), so no bound follows
    for fam in (mp_family("0.5", "0.9", POLICY), mp_family("2.5", "1.2", POLICY)):
        for n in (6, 9):
            decomp = connection_decompose(fam, even_modifier(fam, 3, POLICY), n, 2, POLICY)
            roots, nonreal = polynomial_real_roots(decomp.G_poly, POLICY)
            zg = zeros_golub_welsch(fam.shifted(3), n - 2, POLICY)
            zp = zeros_golub_welsch(fam, n, POLICY)
            product = sorted(list(zg.values) + roots)
            with POLICY.workprec():
                outside = sum(1 for v in product if v < zp[0] or v > zp[-1])
            fails = (len(product) + nonreal == n + 1) and (nonreal > 0 or outside >= 1 or len(product) != n - 1)
            if not fails:
                ok = False
                notes.append(f"k3-gap2 {fam.label} n={n}: interlacing unexpectedly possible")

    elapsed = time.monotonic() - started
    _announce(7, "gap-2 interlacing suite (coprime, common-zero, k=3 failure)", ok, elapsed,
              "; ".join(notes))
    assert ok, notes


def test_criterion_8_gauss_orthogonality():
    started = time.monotonic()
    bound = mp.mpf("1e-30")
    worst = mp.mpf(0)
    cases = [
        (mp_family("0.5", "0.9", POLICY), 8),
        (mp_family("0.5", "0.9", POLICY), 15),
        (mp_family(20, "1.57", POLICY), 15),
        (pj_family(-35, 8, POLICY), 15),
        (pj_family(-55, 5, POLICY), 15),
        (pj_family(-35, 8, POLICY), 8),
    ]
    for fam, n in cases:
        nodes, weights = gauss_rule(fam, n, POLICY)
        with POLICY.workprec():
            ladder = generate_all(fam, n, POLICY)
            for j in range(n + 1):
                for l in range(j):
                    if j + l <= 2 * n - 1:
                        s = sum(w * ladder[j](x) * ladder[l](x) for x, w in zip(nodes.values, weights))
                        worst = max(worst, abs(s))
    ok = worst <= bound
    elapsed = time.monotonic() - started
    _announce(8, "Gauss-rule orthogonality (n<=15, both families)", ok, elapsed,
              f"worst |sum| = {mp.nstr(worst, 3)} vs 1e-30")
    assert ok
