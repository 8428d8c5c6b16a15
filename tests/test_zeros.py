from __future__ import annotations

import inspect
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from christoffel import (
    bound_separation,
    christoffel_transform,
    connection_degree_law,
    custom_family,
    eval_with_derivative,
    even_modifier,
    gauss_orthogonality,
    gauss_rule,
    generate_all,
    inner_bound,
    interlace_strict,
    modified_orthogonality,
    mp_family,
    pj_family,
    polynomial_real_roots,
    stieltjes_check,
    zeros_golub_welsch,
)
from christoffel import cli, zeros
from christoffel.cli import main
from christoffel.core import Polynomial, TolerancePolicy, _add, _to_mpf, _unpack
from christoffel.families import _gershgorin, _jacobi_frame

from polyhelpers import (
    assert_bound_extremes_are_the_full_solve,
    assert_certificate_agrees,
    bound_families,
    mpf_g,
    mpf_grid_q,
    mpf_count_below,
    mpf_frame,
    mpf_gauss_orthogonality,
    mpf_gershgorin,
    mpf_interlace_strict,
    mpf_is_zero,
    mpf_isolate,
    mpf_modified_orthogonality,
    mpf_zeros,
)

_ONE = (1, 0, 0, 0)  # the row of g = 1: g(x) = 1 and g'(x) = 0 as kernel pairs


def _outer(*values):
    """A ZeroSet of the ascending ``values``, as exact mpf values."""
    return zeros.ZeroSet(tuple(mp.mpf(v) for v in values), "outer")


def _solved(fam, n, pol) -> tuple:
    """The zeros of a spectrum of fam's degree-n member built afresh, without zeros_golub_welsch's gap check.

    Degree 1 is C(1), as zeros_golub_welsch gives it."""
    if n == 1:
        return tuple(fam.recurrence(1, pol.precision_bits)[0][1:])
    return zeros._Spectrum(fam, n, pol).zeros().values


def _rows(fam, d, outer, policy) -> list:
    """(p_d(x), p_d'(x)) of fam at each zero x of ``outer``, as kernel pairs: the rows interlace_strict reads."""
    return [(*_unpack(v._mpf_), *_unpack(s._mpf_)) for v, s in (eval_with_derivative(fam, d, x, policy) for x in outer.values)]


def test_degree_one_zero_is_recurrence_offset(policy):
    fam = pj_family(-10, 8, policy)
    zs = zeros_golub_welsch(fam, 1, policy)
    assert len(zs) == 1
    with policy.workprec():
        assert abs(zs[0] - fam.C(1)) <= policy.rel_tol


def test_symmetric_pj_quintic_zeros(policy):
    zs = zeros_golub_welsch(pj_family("-5.5", 0, policy), 5, policy)
    with policy.workprec():
        assert abs(zs[0] - mp.mpf("-2.1428")) < mp.mpf("5e-4")
        assert abs(zs[-1] - mp.mpf("2.1428")) < mp.mpf("5e-4")
        assert abs(zs[2]) < policy.abs_tol
        assert abs(zs[0] + zs[-1]) <= mp.ldexp(1, -200)


def test_mp_degree_thirty_extreme_zeros(policy):
    zs = zeros_golub_welsch(mp_family("0.5", "0.9", policy), 30, policy)
    with policy.workprec():
        assert abs(zs[0] - mp.mpf("-53.239")) < mp.mpf("5e-3")
        assert abs(zs[-1] - mp.mpf("11.016")) < mp.mpf("5e-3")


def test_zero_residuals_after_newton(policy):
    for fam, n in ((mp_family("0.5", "0.08", policy), 30), (pj_family("-5.0001", 3, policy), 5)):
        zs = zeros_golub_welsch(fam, n, policy)
        with policy.workprec():
            for z in zs.values:
                v, _ = eval_with_derivative(fam, n, z, policy)
                ladder = generate_all(fam, n, policy)
                scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(ladder[n].coeffs))
                assert abs(v) / scale <= policy.rel_tol


def test_zero_simplicity_gaps(policy):
    for fam, n in ((mp_family(20, "0.1", policy), 25), (pj_family(-35, 8, policy), 25)):
        zs = zeros_golub_welsch(fam, n, policy)
        with policy.workprec():
            assert min(b - a for a, b in zip(zs.values, zs.values[1:])) > policy.abs_tol


def _count_polish(monkeypatch) -> list:
    """Replace zeros._polish by a wrapper that appends the degree to the returned list on every call."""
    calls = []
    polish = zeros._polish

    def counted(rows, label, n, *args):
        calls.append(n)
        return polish(rows, label, n, *args)

    monkeypatch.setattr(zeros, "_polish", counted)
    return calls


def test_zeros_are_solved_once_per_family(policy, monkeypatch):
    calls = _count_polish(monkeypatch)
    fam, n = mp_family("0.5", "0.9", policy), 12
    report = bound_separation(fam, n, policy)
    assert stieltjes_check(fam, 1, n, policy).ok
    nodes, _ = gauss_rule(fam, n, policy)
    assert nodes.values[0] == report.x_min
    assert len(calls) == n
    # bound separation finishes only the two extreme zeros and encloses only their cells: the
    # walk's float counts prove every gap.  The Gauss rule finishes the other 28 from the same
    # cells, and no zero gets a second enclosure
    enclosed, enclose = Counter(), zeros._enclose
    monkeypatch.setattr(zeros, "_enclose", lambda *args: enclosed.update([args[-1]]) or enclose(*args))
    fam, n = mp_family("0.5", "0.08", policy), 30
    calls.clear()
    bound_separation(fam, n, policy)
    assert len(calls) == 2
    assert sorted(enclosed) == [1, n]
    gauss_rule(fam, n, policy)
    assert len(calls) == n
    assert len(enclosed) == n and set(enclosed.values()) == {1}
    # the spectrum is the one store of the zeros, and a bound separation after the full solve
    # reads its ZeroSet's own ends without polishing again; with every zero polished, the
    # spectrum keeps no cells and no count closure
    assert ("spectrum", n, policy.precision_bits) in fam._store
    assert [key for key in fam._store if key[:1] == ("zeros",)] == []
    zs = zeros_golub_welsch(fam, n, policy)
    kept = vars(fam._store["spectrum", n, policy.precision_bits])
    assert "cells" not in kept and not any(callable(value) for value in kept.values())
    calls.clear()
    report = bound_separation(fam, n, policy)
    assert not calls and report.x_min is zs.values[0] and report.x_max is zs.values[-1]


@pytest.mark.parametrize("bits", [64, 256])
def test_bound_extremes_are_the_full_solve_bit_for_bit(bits):
    # W+31's 64-bit cells leave a cluster, so it takes the full solve, which raises at 64 bits
    pol = TolerancePolicy(precision_bits=bits)
    outcomes = Counter(
        (label, assert_bound_extremes_are_the_full_solve(family, n, pol))
        for label, family, degrees in bound_families(pol)
        for n in degrees
    )
    extremes = {"MP(0.5,0.9)": 4, "MP(0.5,pi/2)": 4, "PJ(-5.5,0)": 2, "PJ(-35,8)": 4}
    w31 = ("W+31", "raises" if bits == 64 else "full solve")
    assert outcomes == Counter({(label, "extremes"): k for label, k in extremes.items()} | {w31: 1})


def _extremes_enclosures(monkeypatch) -> list:
    """One set per call of _Spectrum.extremes: the cells (from 1) that it enclosed."""
    seen, inside, enclose, extremes = [], [], zeros._enclose, zeros._Spectrum.extremes

    def spied_enclose(*args):
        if inside:
            inside[-1].add(args[-1])
        return enclose(*args)

    def spied_extremes(spectrum, policy):
        inside.append(set())
        try:
            return extremes(spectrum, policy)
        finally:
            seen.append(inside.pop())

    monkeypatch.setattr(zeros, "_enclose", spied_enclose)
    monkeypatch.setattr(zeros._Spectrum, "extremes", spied_extremes)
    return seen


def test_bound_separation_keeps_the_gap_check(policy, monkeypatch):
    # a tolerance at or above a gap fails the certificate, and the full solve raises its own
    # error; MP(20, 0.1)'s zeros lie far from 0, so just above its smallest relative gap the
    # tolerance is too large only by the zeros' size, which the certificate has to count too.
    # Such a tolerance is too large for the walk's band too, so every gap falls back to the
    # boxes, which encloses the first gap's two cells.  Under the default tolerance the walk
    # proves every gap, and only the extremes are enclosed and polished.  A family fully solved
    # under the default tolerance certifies from its kept boxes, and raises the same.
    for family, n in ((lambda pol: pj_family(-35, 8, pol), 25), (lambda pol: mp_family(20, "0.1", pol), 25)):
        zs = zeros_golub_welsch(solved := family(policy), n, policy)
        with policy.workprec():
            unit = min(1, zs[-1] - zs[0])
            gaps = [(v - u, (v - u) / max(unit, abs(u), abs(v))) for u, v in zip(zs.values, zs.values[1:])]
            gap, relative = min(g for g, _ in gaps), min(r for _, r in gaps)
            tolerances = (2 * gap, gap, 1, relative * (1 + mp.ldexp(1, -20)))
        for tol in tolerances:
            loose = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=tol)
            with pytest.raises(ValueError, match="abs_tol .* is at least the gap") as full:
                zeros_golub_welsch(family(loose), n, loose)
            for fam in (family(loose), solved):
                enclosed = _extremes_enclosures(monkeypatch)
                with pytest.raises(ValueError) as bound:
                    bound_separation(fam, n, loose)
                assert str(bound.value) == str(full.value)
                # a fresh spectrum encloses the first gap's cells; the solved one has every box already
                assert enclosed == [set()] if fam is solved else {1, 2} <= enclosed[0]
                monkeypatch.undo()
        calls, enclosed = _count_polish(monkeypatch), _extremes_enclosures(monkeypatch)
        assert bound_separation(family(policy), n, policy).x_max == zs[-1]
        assert len(calls) == 2 and enclosed == [{1, n}]
        monkeypatch.undo()


def test_gaps_the_walk_cannot_prove_take_their_neighbours_boxes(policy, monkeypatch):
    # The first midpoint of MP(1.5, pi/2)'s walk is its zero 0, eigenvalue 7 of 13: the float
    # counts disagree there, a 64-bit pair count decides, and the gap above it is not proved,
    # so extremes encloses cells 7 and 8 besides the ends.  W+31's top pair, which 64-bit
    # midpoints leave in one cell, proves no gap and takes boxes (-inf, inf) without an
    # enclosure, and its closer pairs' gaps fall to the boxes too: extremes declines.
    with policy.workprec():
        fam = mp_family("1.5", mp.pi / 2, policy)
    paired, count_pairs = [], zeros._count_pairs
    monkeypatch.setattr(zeros, "_count_pairs", lambda *args: paired.append(args[-1]) or count_pairs(*args))
    spectrum = zeros._Spectrum(fam, 13, policy)
    assert paired == [64] and set(range(1, 13)) - spectrum.proved == {7}
    enclosed = _extremes_enclosures(monkeypatch)
    assert spectrum.extremes(policy) == (spectrum.zero(0), spectrum.zero(12)) and enclosed == [{1, 7, 8, 13}]
    w31 = {label: family for label, family, _ in bound_families(policy)}["W+31"](policy)
    spectrum = zeros._Spectrum(w31, 31, policy)
    assert spectrum.boxes[-2:] == [(-math.inf, math.inf)] * 2 and 30 not in spectrum.proved
    assert spectrum.extremes(policy) is None and not {30, 31} & enclosed[-1]
    assert [z._mpf_ for z in spectrum.zeros().values] == [z._mpf_ for z in zeros_golub_welsch(w31, 31, policy).values]


def test_only_equal_float_counts_prove_a_gap(policy, monkeypatch):
    # Eigenvalue 2 lies 2**-62 below the end A of a 40th-level walk cell [A, B), and eigenvalues 3 and 4,
    # 2e-30 apart, 2**-62 below B (1 and 5, at -1 and 1, fix the Gershgorin interval).  The cell is
    # as wide as 2 W to within the float counts' error, and at its midpoint they read 1 and 2: clamped
    # to the cell's counts (2, 4) both are 2, which splits it with no 64-bit count, but the counts
    # differ, so the walk proves no gap from them, and eigenvalues 2 and 3 stay unproved.
    A, B = (9710366080396909609, -64), (9710366080430531150, -64)
    with policy.workprec():
        diag = [mp.mpf(-1), _to_mpf(*A) - mp.ldexp(1, -62), _to_mpf(*B) - mp.ldexp(1, -62)]
    diag += [diag[-1], mp.mpf(1)]
    fam = custom_family(lambda j: diag[j - 1], lambda j: mp.mpf("1e-60"))
    paired, count_pairs = [], zeros._count_pairs
    monkeypatch.setattr(zeros, "_count_pairs", lambda *args: paired.append(args[1:3]) or count_pairs(*args))
    spectrum = zeros._Spectrum(fam, 5, policy)
    mm, me = _add(*A, *B, 64)
    xs = zeros._scaled(mm, me - 1, *spectrum.origin, spectrum.scale)
    counts = [zeros._count_below(spectrum.fdiag, spectrum.foffsq, xs + s * spectrum.band, zeros._TINY) for s in (-1, 1)]
    assert counts == [1, 2] and A in paired and (mm, me - 1) not in paired
    assert spectrum.proved == {1, 4}


def test_cached_zeros_are_checked_under_each_tolerance(policy, monkeypatch):
    fam, n = pj_family(-35, 8, policy), 25
    zs = zeros_golub_welsch(fam, n, policy)
    with policy.workprec():
        gap = min(b - a for a, b in zip(zs.values, zs.values[1:]))
    loose = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=2 * gap)
    calls = _count_polish(monkeypatch)
    with pytest.raises(ValueError, match="abs_tol .* is at least the gap"):
        zeros_golub_welsch(fam, n, loose)
    assert calls == []
    assert zeros_golub_welsch(fam, n, policy) is zs


def _jacobi_eigenvalues(fam, n, policy):
    """Eigenvalues of the Jacobi matrix by mpmath's dense symmetric solver."""
    C, L = fam.recurrence(n, policy.precision_bits)
    with policy.workprec():
        T = mp.zeros(n, n)
        for i in range(n):
            T[i, i] = C[i + 1]
            if i + 1 < n:
                T[i, i + 1] = T[i + 1, i] = mp.sqrt(L[i + 2])
        return sorted(mp.eigsy(T, eigvals_only=True))


@pytest.mark.parametrize("m", [10, 15])
def test_wilkinson_close_pairs_are_separated(policy, m):
    # W+_{2m+1}: its top pair is 7.2e-14 apart at m = 10, which doubles
    # resolve, and 4.9e-25 apart at m = 15, which needs working precision.
    fam = custom_family(lambda j: mp.mpf(abs(m - (j - 1))), lambda j: mp.mpf(1), label=f"W+{2 * m + 1}")
    n = 2 * m + 1
    zs = zeros_golub_welsch(fam, n, policy)
    ev = _jacobi_eigenvalues(fam, n, policy)
    assert len(zs) == n
    with policy.workprec():
        assert ev[-1] - ev[-2] < mp.mpf("1e-13")
        assert max(abs(z - e) for z, e in zip(zs.values, ev)) <= policy.abs_tol


_EXTREME_SCALES = [
    (lambda j: j * mp.mpf(10) ** 400, lambda j: mp.mpf(10) ** 799, None),
    (lambda j: j * mp.mpf(10) ** -400, lambda j: mp.mpf(10) ** -801, "1e-480"),
    (lambda j: j * mp.mpf(10) ** -400, lambda j: mp.mpf(10) ** -801, None),
    (lambda j: mp.mpf(10) ** 10, lambda j: mp.mpf(1), None),
    (lambda j: mp.mpf(10) ** 30, lambda j: mp.mpf(1), None),
]


@pytest.mark.parametrize(
    "C, Lam, abs_tol", _EXTREME_SCALES, ids=["1e400", "1e-400", "1e-400-default-tol", "offset-1e10", "offset-1e30"]
)
def test_zeros_at_extreme_scales(policy, C, Lam, abs_tol):
    # Entries outside the double range need the shift and scale.  Zeros 1e10
    # or 1e30 from the origin but O(1) apart are closer than 64-bit midpoints
    # resolve.  The 1e-400 zeros are 1e-400 apart; the simple-zero check
    # measures gaps relative to the spectrum's scale, so the default abs_tol
    # passes them as a tiny one does.
    pol = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=abs_tol)
    fam, n = custom_family(C, Lam), 12
    zs = zeros_golub_welsch(fam, n, pol)
    ev = _jacobi_eigenvalues(fam, n, pol)
    with pol.workprec():
        assert all(abs(z - e) <= pol.rel_tol * abs(e) for z, e in zip(zs.values, ev))


@pytest.mark.parametrize("exponent", [20, 22, 25, 30])
def test_zeros_far_from_the_origin_against_their_width(policy, exponent):
    # Diagonal 10**e and Lambda = 1: the zeros are 10**e + 2 cos(j pi / 13).
    # The 64-bit Gershgorin width rounds to 0, and with it the zero-pivot
    # stand-in, which ended in a bare ZeroDivisionError for e = 20, 22, 25.
    fam = custom_family(lambda j: mp.mpf(10) ** exponent, lambda j: mp.mpf(1), label=f"offset 1e{exponent}")
    zs = zeros_golub_welsch(fam, 12, policy)
    with policy.workprec():
        exact = [mp.mpf(10) ** exponent + 2 * mp.cos(j * mp.pi / 13) for j in range(12, 0, -1)]
        assert max(abs(z - e) for z, e in zip(zs.values, exact)) <= policy.abs_tol


def test_one_point_at_64_bits_is_bisected_to_the_spread_at_working_precision(monkeypatch):
    # Diagonal 1e20 and Lambda = 1: the 64-bit Gershgorin spread rounds to 0,
    # so every cell is bisected again at working precision.  Those cells stop
    # at 2**-44 of the spread there, about 43 counts per zero, not where their
    # midpoints round to an end (2,273 counts for these 12 zeros at 256 bits).
    # The working-precision counts run on kernel pairs, in _count_pairs.
    pol = TolerancePolicy(precision_bits=256)
    calls, count_pairs = [], zeros._count_pairs

    def spied(rows, xm, xe, tiny, prec):
        calls.append((xm, xe))
        return count_pairs(rows, xm, xe, tiny, prec)

    monkeypatch.setattr(zeros, "_count_pairs", spied)
    _solved(custom_family(lambda j: mp.mpf(10) ** 20, lambda j: mp.mpf(1), label="offset 1e20"), 12, pol)
    assert len(calls) <= 12 * 50


def test_zeros_closer_than_64_bits_resolve_fail_by_name():
    # 64 bits cannot tell these zeros apart; the failure names the family and
    # the degree instead of dividing by a zero pivot
    pol = TolerancePolicy(precision_bits=64)
    fam = custom_family(lambda j: mp.mpf(10) ** 30, lambda j: mp.mpf(1), label="offset 1e30")
    with pytest.raises(ArithmeticError, match="offset 1e30 degree 12") as err:
        zeros_golub_welsch(fam, 12, pol)
    assert not isinstance(err.value, ZeroDivisionError)


def test_float_counts_keep_the_64_bit_cells(monkeypatch):
    # A zero of this family lies within double rounding of a cell midpoint;
    # only the recount at 64 bits puts it on the side a 64-bit count does,
    # and Newton's last bits depend on the cell it starts from.  The
    # enclosures' margins are read from _BAND when a zero is solved, so at
    # _BAND = 1 they cover every scaled point (all lie within 1/2 of 0) and
    # decide no count, and both float counts disagree: every count is the
    # recount at 64 bits.
    pol = TolerancePolicy(precision_bits=64)
    fast = _solved(mp_family("3.901", "2.473", pol), 30, pol)
    monkeypatch.setattr(zeros, "_BAND", 1.0)  # every count at 64 bits
    assert _solved(mp_family("3.901", "2.473", pol), 30, pol) == fast


def test_enclosures_decide_only_where_both_float_counts_agree():
    # Just outside _enclose's (u, v), the float counts count64 takes at
    # x -/+ _BAND already fall on the decided side of eigenvalue k, so a
    # decision there gives count64's clamped count; a tighter margin fails
    # this.  Newton in a cell without eigenvalue k, here converging to
    # eigenvalue k + 1, gets no certificate.
    rng = random.Random(5)
    for n in (2, 7, 30):
        fdiag = [rng.uniform(-0.4, 0.4) for _ in range(n)]
        foffsq = [rng.uniform(0, 0.2) ** 2 for _ in range(n - 1)]
        with mp.workprec(128):
            T = mp.zeros(n, n)
            for i in range(n):
                T[i, i] = fdiag[i]
                if i + 1 < n:
                    T[i, i + 1] = T[i + 1, i] = mp.sqrt(foffsq[i])
            ev = [float(v) for v in sorted(mp.eigsy(T, eigvals_only=True))]
        halves = [min(abs(lam - e) for e in ev if e != lam) / 3 for lam in ev]
        cells = [(lam - h, lam + h) for lam, h in zip(ev, halves)]
        for k, (lam, (lo, hi)) in enumerate(zip(ev, cells), 1):
            u, v = zeros._enclose(fdiag, foffsq, lo, hi, k)
            assert u < lam < v and v - u < 2.0**-46
            below, above = math.nextafter(u, -1), math.nextafter(v, 1)
            assert zeros._count_below(fdiag, foffsq, below + zeros._BAND, zeros._TINY) < k
            assert zeros._count_below(fdiag, foffsq, above - zeros._BAND, zeros._TINY) >= k
        for k, (lo, hi) in enumerate(cells[1:], 1):
            assert zeros._enclose(fdiag, foffsq, lo, hi, k) == (-math.inf, math.inf)


def _undecided_cells(monkeypatch) -> list:
    """Record each zero whose certified enclosure sent a midpoint of its descent back to the float counts of count64.

    Wraps ``_walk`` to know the cell and its enclosure while it runs, and
    ``_count_below`` to see a float count there (no enclosure is formed during a walk).
    """
    walk, count_below = zeros._walk, zeros._count_below
    cells, undecided = [], []

    def spied_walk(count, a, b, ca, cb, width, prec, box=(-math.inf, math.inf), *args):
        cells.append((cb, box))
        try:
            return walk(count, a, b, ca, cb, width, prec, box, *args)
        finally:
            cells.pop()

    def spied_count_below(diag, offsq, x, tiny):
        if cells and cells[-1][1][0] > -math.inf:
            undecided.append(cells[-1][0])
        return count_below(diag, offsq, x, tiny)

    monkeypatch.setattr(zeros, "_walk", spied_walk)
    monkeypatch.setattr(zeros, "_count_below", spied_count_below)
    return undecided


def _isolation_cases():
    for bits in (64, 113, 256, 512):
        pol = TolerancePolicy(precision_bits=bits)
        for fam in (mp_family("0.5", "0.9", pol), pj_family(-60, 8, pol)):
            for n in (1, 2, 5, 12, 30, 48):
                yield fam, n, pol
    for C, Lam, abs_tol in _EXTREME_SCALES:
        pol = TolerancePolicy(abs_tol=abs_tol)
        yield custom_family(C, Lam), 12, pol
    yield custom_family(lambda j: mp.mpf(abs(15 - (j - 1))), lambda j: mp.mpf(1), label="W+31"), 31, TolerancePolicy()
    pol = TolerancePolicy(precision_bits=64)
    yield mp_family("3.901", "2.473", pol), 30, pol


def test_certified_enclosures_keep_every_zero_of_the_count_route(monkeypatch):
    # An enclosure that certifies nothing decides no count, so every midpoint
    # goes through count64; the zeros must not change in a single bit.  Some
    # midpoint inside an enclosure's margin must reach count64 as well.
    cases = list(_isolation_cases())
    undecided = _undecided_cells(monkeypatch)
    fast = [_solved(fam, n, pol) for fam, n, pol in cases]
    assert undecided, "no midpoint fell inside a certified enclosure's margin"
    monkeypatch.undo()
    monkeypatch.setattr(zeros, "_enclose", lambda *args: (-math.inf, math.inf))
    for (fam, n, pol), values in zip(cases, fast):
        assert _solved(fam, n, pol) == values, f"{fam.label} degree {n} at {pol.precision_bits} bits"


def _descent_cases():
    """_isolation_cases, and at every precision MP(1.5, pi/2), whose cells straddle 0, and the extreme scales."""
    yield from _isolation_cases()
    for bits in (64, 113, 256, 512):
        pol = TolerancePolicy(precision_bits=bits)
        with pol.workprec():
            yield mp_family("1.5", mp.pi / 2, pol), 48, pol
        for i, (C, Lam, _) in enumerate(_EXTREME_SCALES[:4] if bits == 64 else _EXTREME_SCALES):
            yield custom_family(C, Lam, label=f"extreme scale {i}"), 12, pol  # 1e30 shares 64-bit cells


@pytest.mark.parametrize("enclosed", [True, False], ids=["enclosures", "no-enclosures"])
def test_every_walk_is_the_mpf_walk(monkeypatch, enclosed):
    # mpf_isolate counting at every midpoint with the walk's own count is the reference:
    # each walk on integers (the first 64-bit walk, a cluster's walk at working precision
    # and each descent, with or without enclosures) must give its cells, ends by value and
    # counts.  Cells straddling 0 refine a descent's unit (an odd exact A + B).
    walk, seen = zeros._walk, []
    bind = inspect.signature(walk).bind
    monkeypatch.setattr(zeros, "_walk", lambda *args: seen.append((bind(*args).arguments, walk(*args))) or seen[-1][1])
    if not enclosed:
        monkeypatch.setattr(zeros, "_enclose", lambda *args: (-math.inf, math.inf))
    for fam, n, pol in _descent_cases():
        _solved(fam, n, pol)
    kinds, refined = Counter(), 0
    for call, cells in seen:
        count, a, b, ca, cb, width, prec = (call[name] for name in ("count", "a", "b", "ca", "cb", "width", "prec"))
        kinds["descent" if "box" in call else count.__name__] += 1
        with mp.workprec(prec):
            ref = mpf_isolate(
                lambda x: count(_unpack(x), ca, cb), *(_to_mpf(*p)._mpf_ for p in (a, b)), ca, cb, _to_mpf(*width)._mpf_, prec
            )
        got = [(_to_mpf(*u), _to_mpf(*v), cu, cv) for u, v, cu, cv in cells]
        assert got == [(mp.make_mpf(x), mp.make_mpf(y), cu, cv) for x, y, cu, cv in ref], f"{ca + 1}..{cb} in {call.get('box')}"
        if "box" in call:
            refined += cells[0][0][1] < min(a[1], b[1])
    assert kinds["descent"] == 1265 and refined > 0
    assert kinds["count64"] == sum(n > 1 for _, n, _ in _descent_cases()) and kinds["count_wp"] > 0


@pytest.mark.parametrize("bits", [64, 256])
def test_kernel_counts_are_the_mpf_loop(bits):
    # _count_pairs is the mpf Sturm loop on kernel pairs: the same count at random
    # points and at the diagonal entries, where a pivot can vanish, over entries of
    # small integers (exact zero pivots) and of wide-ranging exponents (_add's far path)
    rng = random.Random(bits)

    def draw():
        if rng.random() < 0.5:
            return mp.mpf(rng.randint(-3, 3))
        return mp.ldexp(rng.choice((-1, 1)) * mp.mpf(rng.getrandbits(bits + 8)), rng.randint(-2 * bits, 20) - bits)

    with mp.workprec(bits):
        tiny = mp.ldexp(1, -150)
        for _ in range(300):
            n = rng.randint(1, 12)
            diag, offsq = [draw() for _ in range(n)], [abs(draw()) or mp.mpf(1) for _ in range(n - 1)]
            rows = [(*_unpack(c._mpf_), *_unpack(v._mpf_)) for c, v in zip(diag, [mp.mpf(0), *offsq])]
            for x in (rng.choice(diag), draw(), (diag[0] + diag[-1]) / 2):
                count = zeros._count_pairs(rows, *_unpack(x._mpf_), _unpack(tiny._mpf_), bits)
                assert count == mpf_count_below(diag, offsq, x, tiny), f"n = {n} at x = {x}"


def test_table_1_counts_only_where_no_enclosure_decides(monkeypatch, capsys):
    # --table 1's descents decide almost every midpoint from their enclosures' integer
    # thresholds: count64 runs at most 200 times (550 when each descent called it), the
    # float counts stay at 313 (593 when every cell was enclosed, two counts each), only the
    # 10 polished cells are enclosed (150 when every cell was), and no count runs on mpf values
    counted, walk, count_below = Counter(), zeros._walk, zeros._count_below
    enclose = zeros._enclose
    monkeypatch.setattr(zeros, "_enclose", lambda *args: counted.update(["enclose"]) or enclose(*args))

    def spied_walk(count, *args):
        return walk(lambda x, *cell: counted.update([count.__name__]) or count(x, *cell), *args)

    monkeypatch.setattr(zeros, "_walk", spied_walk)
    monkeypatch.setattr(zeros, "_count_below", lambda *args: counted.update([type(args[2]).__name__]) or count_below(*args))
    assert main(["--table", "1"]) == 0
    capsys.readouterr()
    assert counted.pop("enclose") == 10
    assert counted["float"] == 313 and set(counted) <= {"float", "count64", "count_wp"} and counted["count64"] <= 200


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_spectrum_set_up_is_the_mpf_set_up_bit_for_bit(bits):
    # families._jacobi_frame sets a spectrum up on kernel rows and raw mpf values: every value is the mpf
    # set-up's, representation and all, over the bound families and a member whose 64-bit spread is 0
    pol = TolerancePolicy(precision_bits=bits)
    cases = [(family(pol), n) for _, family, degrees in bound_families(pol) for n in degrees]
    cases.append((custom_family(lambda j: mp.mpf(10) ** 20, lambda j: mp.mpf(1), label="offset 1e20"), 12))
    for fam, n in cases:
        frame = _jacobi_frame(fam.kernel_rows(n, bits)[1 : n + 1], bits)
        lo, hi, spread, tiny, width, unit, centre, widen, scale, fdiag, foffsq = mpf_frame(fam, n, pol)
        pairs = [_unpack(v._mpf_) for v in (lo, hi, spread, tiny, width, unit, centre, widen)]
        assert [*frame[:9], *map(float.hex, frame[9] + frame[10])] == [*pairs, scale, *map(float.hex, fdiag + foffsq)], (
            f"{fam.label} degree {n}"
        )
    assert frame[2] == (0, 0) and (frame[4] != (0, 0)) == (bits > 64)  # the offset member's width is at working precision
    # and the interval alone on random rows at 64 bits and at working precision: random mantissas and
    # exponents of both parities, and exact squares, so the roots round every way, and ends compared by value
    rng = random.Random(bits)
    with mp.workprec(bits):
        for _ in range(300):
            n = rng.randint(1, 6)
            offsq = [mp.ldexp(rng.getrandbits(bits) | 1, rng.randint(-bits - 9, 9 - bits)) for _ in range(n - 1)]
            offsq = [v if rng.random() < 0.8 else mp.ldexp(rng.getrandbits(bits // 2) ** 2, rng.randint(-bits, 0)) for v in offsq]
            diag = [mp.ldexp(rng.getrandbits(bits) - 2 ** (bits - 1), rng.randint(-bits - 3, 3 - bits)) for _ in range(n)]
            rows = [(*_unpack(c._mpf_), *_unpack(v._mpf_)) for c, v in zip(diag, [mp.mpf(0), *offsq])]
            for prec in (64, bits):
                with mp.workprec(prec):
                    ends = mpf_gershgorin([+c for c in diag], [+v for v in offsq])
                assert [_to_mpf(*p)._mpf_ for p in _gershgorin(rows, prec)] == [v._mpf_ for v in ends], (diag, offsq, prec)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_solver_is_the_mpf_bisection_and_newton_bit_for_bit(bits):
    # the spectrum bisects and polishes on kernel pairs; the zeros must be the bits
    # of the mpf loops it replaced, counting at 64 bits at every midpoint.
    # W+31 takes the re-bisection at working precision.
    pol = TolerancePolicy(precision_bits=bits)
    with pol.workprec():
        right_angle = mp_family("1.5", mp.pi / 2, pol)  # C == 0
    families = (mp_family("0.5", "0.9", pol), pj_family(-60, 8, pol), right_angle)
    cases = [(fam, n) for fam in families for n in (1, 2, 5, 12, 30, 48)]
    for i, (C, Lam, _) in enumerate(_EXTREME_SCALES):
        # at 64 bits, zeros 1e30 from the origin and O(1) apart share cells
        cases.append((custom_family(C, Lam, label=f"extreme scale {i}"), 12))
    cases.append((custom_family(lambda j: mp.mpf(abs(15 - (j - 1))), lambda j: mp.mpf(1), label="W+31"), 31))
    for fam, n in cases:
        assert [z._mpf_ for z in _solved(fam, n, pol)] == [z._mpf_ for z in mpf_zeros(fam, n, pol)], (
            f"{fam.label} degree {n}"
        )


def test_polish_raises_at_the_iteration_cap(policy, monkeypatch):
    # Newton steps that flip direction each time never shrink, so the polish
    # runs into its cap instead of returning its last iterate.  The polish
    # evaluates p_n through the recurrence sweep, on kernel pairs.
    def flipping(rows, n, xm, xe, prec, out=None):
        flipping.sign = -flipping.sign
        return flipping.sign, 0, 1, 0  # p_n = -/+1, p_n' = 1

    flipping.sign = 1
    monkeypatch.setattr(zeros, "_sweep", flipping)
    with pytest.raises(ArithmeticError, match=r"MP\(lambda=0.5, phi=0.9\) degree 6 did not converge .* bracket \[-"):
        zeros_golub_welsch(mp_family("0.5", "0.9", policy), 6, policy)


def test_invalid_family_ranges_rejected(policy):
    with pytest.raises(ValueError):
        zeros_golub_welsch(pj_family(-5, 1, policy), 5, policy)
    neg = custom_family(lambda n: mp.mpf(0), lambda n: mp.mpf(-1), None)
    with pytest.raises(ValueError):
        zeros_golub_welsch(neg, 3, policy)


def test_zeros_negate_under_mirror(policy):
    lam, phi = "2.5", "0.7"
    fam = mp_family(lam, phi, policy)
    with policy.workprec():
        cot = mp.cos(mp.mpf(phi)) / mp.sin(mp.mpf(phi))
        lam_s = mp.mpf(lam)
        inv = 1 / (4 * mp.sin(mp.mpf(phi)) ** 2)
    mirror = custom_family(
        lambda n: (lam_s + n - 1) * cot,
        lambda n: (n - 1) * (2 * lam_s + n - 2) * inv,
        None,
    )
    n = 9
    zs = zeros_golub_welsch(fam, n, policy)
    zm = zeros_golub_welsch(mirror, n, policy)
    with policy.workprec():
        for a, b in zip(zs.values, reversed(zm.values)):
            assert abs(a + b) <= policy.rel_tol * max(1, abs(a))


def test_gauss_rule_degree_one(policy):
    nodes, weights = gauss_rule(pj_family(-10, 8, policy), 1, policy)
    assert weights == (1,)
    with policy.workprec():
        assert abs(nodes[0] - mp.mpf(8) / 9) <= policy.rel_tol


def test_gauss_rule_orthogonality_and_positivity(policy):
    for fam in (mp_family("0.5", "0.9", policy), pj_family(-35, 8, policy)):
        n = 8
        nodes, weights = gauss_rule(fam, n, policy)
        with policy.workprec():
            assert abs(sum(weights) - 1) <= mp.ldexp(1, -200)
            ladder = generate_all(fam, n, policy)
            for j in range(n):
                for l in range(j):
                    if j + l <= 2 * n - 1:
                        s = sum(w * ladder[j](x) * ladder[l](x) for x, w in zip(nodes.values, weights))
                        assert abs(s) <= mp.mpf("1e-30")
            norm3 = sum(w * ladder[3](x) ** 2 for x, w in zip(nodes.values, weights))
            assert norm3 > 0


def _mpf_gauss_weights(family, n, policy) -> tuple:
    """The Christoffel-function weights by the loop on mpf values that gauss_rule ran before its kernel."""
    nodes = zeros_golub_welsch(family, n, policy)
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        h = [mp.mpf(1)]
        for j in range(2, n + 1):
            h.append(h[-1] * L[j])
        weights = []
        for x in nodes.values:
            p_prev, p = mp.mpf(0), mp.mpf(1)  # p_{-1}, p_0
            denom = mp.mpf(1)  # j = 0 term
            for j in range(1, n):
                p, p_prev = (x - C[j]) * p - L[j] * p_prev, p
                denom += p * p / h[j]
            weights.append(1 / denom)
        total = sum(weights)
        return tuple(w / total for w in weights)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_gauss_weights_are_the_mpf_loop_bit_for_bit(bits):
    pol = TolerancePolicy(precision_bits=bits)
    with pol.workprec():
        right_angle = mp_family("1.5", mp.pi / 2, pol)  # C == 0
    # zeros of order 1 against C = 1e-40: x - C(j), p_j and the weight sum add operands over _NEAR exponents apart
    tiny_c = custom_family(lambda j: mp.mpf("1e-40"), lambda j: mp.mpf(1), label="C = 1e-40")
    for fam in (mp_family("0.5", "0.9", pol), pj_family(-60, 8, pol), right_angle, tiny_c):
        for n in (1, 2, 3, 7, 12, 19, 48):
            _, weights = gauss_rule(fam, n, pol)
            assert [w._mpf_ for w in weights] == [w._mpf_ for w in _mpf_gauss_weights(fam, n, pol)], (fam.label, n)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_orthogonality_sums_are_the_mpf_loops_bit_for_bit(bits):
    # --verify's two orthogonality suites on kernel pairs against the mpf loops they replaced, on its
    # families and MP(0.5, pi/2); the modified weight's sums on canonical transforms of degrees 0..4
    pol = TolerancePolicy(precision_bits=bits)
    with pol.workprec():
        fams = [mp_family(*params, pol) for params in (("0.5", "0.9"), ("20", "0.1"), ("3.25", "2.4"), ("0.5", mp.pi / 2))]
        fams += [pj_family(*params, pol) for params in (("-35", "8"), ("-26", "-4"), ("-23.5", "0"))]
    for fam in fams:
        assert gauss_orthogonality(fam, 10, pol)._mpf_ == mpf_gauss_orthogonality(fam, 10, pol)._mpf_, fam.label
    for fam, k, n in ((fams[0], 2, 12), (fams[3], 2, 12), (fams[3], 1, 9), (fams[4], 1, 10)):
        modifier = even_modifier(fam, k, pol)
        gs = [christoffel_transform(fam, modifier, deg, pol) for deg in range(5)]
        ours, oracle = modified_orthogonality(fam, modifier, gs, n, pol), mpf_modified_orthogonality(fam, modifier, gs, n, pol)
        assert ours._mpf_ == oracle._mpf_, (fam.label, k)


def test_interlace_basic_cases(policy):
    # q = G g with g = 1, so the zeros of q are those of G
    assert interlace_strict(Polynomial([0, 1]), [_ONE] * 2, 0, _outer(-1, 1), policy).strict
    assert not interlace_strict(Polynomial([-2, 1]), [_ONE] * 2, 0, _outer(-1, 1), policy).strict
    with pytest.raises(ValueError, match="q must have degree 1 to interlace 2 zeros, got 2"):
        interlace_strict(Polynomial([0, -2, 1]), [_ONE] * 2, 0, _outer(-1, 1), policy)
    # right degree with a zero on an outer zero: reported, not an error
    assert interlace_strict(Polynomial([0, -2, 1]), [_ONE] * 3, 0, _outer(-1, 0, 1), policy).common == (0,)
    # the degree of q counts g's: G = 1 and g = x - 1 (g' = 1) against the zeros 0 and 2
    g = [(-1, 0, 1, 0), (1, 0, 1, 0)]
    assert interlace_strict(Polynomial([1]), g, 1, _outer(0, 2), policy).strict
    with pytest.raises(ValueError, match="q must have degree 1 to interlace 2 zeros, got 2"):
        interlace_strict(Polynomial([0, 1]), g, 1, _outer(0, 2), policy)


def test_interlace_needs_one_row_of_g_per_outer_zero(policy):
    # zip would silently drop the zeros without a row, or the rows without a zero
    for g in ([_ONE] * 2, [_ONE] * 4):
        with pytest.raises(ValueError, match=f"g needs one row per outer zero, 3, got {len(g)}"):
            interlace_strict(Polynomial([0, -2, 1]), g, 0, _outer(-1, 0, 3), policy)
    # ZeroSet keeps its values' order, and the sign argument needs them ascending, so zeros out of order raise
    for values, pair in (((0, 2, 1), "2.0 before 1.0"), ((2, 1, 0), "2.0 before 1.0"), ((2, -1, 2), "2.0 before -1.0")):
        with pytest.raises(ValueError, match=f"^outer zeros must be strictly ascending, got {pair}$"):
            interlace_strict(Polynomial([mp.mpf("0.75"), -2, 1]), [_ONE] * 3, 0, _outer(*values), policy)
    # a plain sequence has no kernel pairs, nor ZeroSet's finiteness check
    for outer in ([mp.mpf(-1), mp.mpf(0), mp.mpf(3)], (mp.mpf(-1), mp.mpf(0), mp.mpf(3))):
        with pytest.raises(ValueError, match=f"outer zeros must be a ZeroSet, got {type(outer).__name__}"):
            interlace_strict(Polynomial([0, -2, 1]), [_ONE] * 3, 0, outer, policy)
    # q = 0 has no zeros to interlace: G = 0 (degree -1) with a g of degree 3 would sum to 2, and with no outer
    # zeros G = 0 with g of degree 0 would sum to -1
    for G, g, degree, outer in ((Polynomial([0]), [_ONE] * 3, 3, _outer(-1, 0, 3)),
                                (Polynomial([]), [], 0, zeros.ZeroSet((), "x"))):
        with pytest.raises(ValueError, match="q = G g is 0"):
            interlace_strict(G, g, degree, outer, policy)
    # the degree of g meets the one rule for degrees (families._order): True and 1.0 would pass as 1, and g = 0
    # (degree -1) with G = 1 and no outer zeros would sum to -1
    for G, g, degree, outer, message in ((Polynomial([0, 1]), [_ONE] * 3, True, _outer(-1, 0, 3), "an integer, got True"),
                                         (Polynomial([0, 1]), [_ONE] * 3, 1.0, _outer(-1, 0, 3), "an integer, got 1.0"),
                                         (Polynomial([1]), [], -1, zeros.ZeroSet((), "x"), "nonnegative, got -1")):
        with pytest.raises(ValueError, match=f"^degree of g must be {message}$"):
            interlace_strict(G, g, degree, outer, policy)


def test_zero_set_reads_real_numbers_and_rejects_the_rest():
    # floats, ints and decimal strings are read as by core.to_scalar; an mpf is kept as the same object
    zs = zeros.ZeroSet((-1.5, 2, "2.5"), "x")
    assert zs.values == (mp.mpf("-1.5"), 2, mp.mpf("2.5")) and all(isinstance(x, mp.mpf) for x in zs.values)
    assert zs.points == tuple(_unpack(x._mpf_) for x in zs.values)
    x = mp.mpf("0.1")
    assert zeros.ZeroSet((x,), "x").values[0] is x
    # the kernel would read inf and nan as 0
    for values in ((1.0, mp.inf), (float("-inf"),), (mp.nan,)):
        with pytest.raises(ValueError, match="zeros of x must be finite"):
            zeros.ZeroSet(values, "x")
    for values in ((complex(1, 2),), (mp.mpc(0, 1),), ("one",)):
        with pytest.raises(ValueError, match="expected a real number"):
            zeros.ZeroSet(values, "x")


def test_interlace_reports_common_zeros(policy):
    verdict = interlace_strict(Polynomial([0, -1, 1]), [_ONE] * 3, 0, _outer(-1, 0, 2), policy)  # x (x - 1)
    assert not verdict.strict
    assert verdict.common == (0,)


def test_consecutive_degrees_interlace(policy):
    rng = random.Random(13)
    fams = [mp_family(20, "0.1", policy), mp_family("0.5", "2.7", policy), pj_family(-35, 8, policy)]
    fams.append(mp_family(rng.uniform(0.1, 8), rng.uniform(0.2, 2.9), policy))
    for fam in fams:
        for n in (2, 12, 30):
            if fam.max_valid_degree is not None and n > fam.max_valid_degree:
                continue
            outer = zeros_golub_welsch(fam, n, policy)
            assert interlace_strict(Polynomial([1]), _rows(fam, n - 1, outer, policy), n - 1, outer, policy).strict


def test_sign_verdict_matches_direct_zero_comparison(policy):
    """Sign alternation agrees with b[i] < a[i] < b[i+1] on solved zero sets."""
    cases = [
        (mp_family("0.5", "0.9", policy), mp_family(lam, phi, policy), 8)
        for lam in ("0.5", "1.5", "4")
        for phi in ("0.9", "0.7", "1.2")
    ] + [
        (pj_family(-35, 8, policy), pj_family(a, b, policy), 12)
        for a in (-35, -30, -20)
        for b in (8, 6, -2)
    ]
    outcomes = set()
    for outer_fam, inner_fam, n in cases:
        b = zeros_golub_welsch(outer_fam, n, policy)
        a = zeros_golub_welsch(inner_fam, n - 1, policy)
        with policy.workprec():
            direct = all(b[i] < a[i] < b[i + 1] for i in range(n - 1))
        g = _rows(inner_fam, n - 1, b, policy)
        assert interlace_strict(Polynomial([1]), g, n - 1, b, policy).strict == direct, inner_fam.label
        outcomes.add(direct)
    assert outcomes == {True, False}


def test_mp_bound_reference_values(policy):
    with policy.workprec():
        assert abs(inner_bound(mp_family("0.5", "0.08", policy), 30, 0, policy) - mp.mpf("-367.963")) < mp.mpf("5e-3")
        assert abs(inner_bound(mp_family(20, "0.1", policy), 30, 2, policy) - mp.mpf("-83.720")) < mp.mpf("5e-3")
        # cancelled Pochhammer form cross-check
        lam, phi = mp.mpf("0.5"), mp.mpf("0.9")
        cot = mp.cos(phi) / mp.sin(phi)
        expect = -lam * (lam + 1) / (lam + 30) * cot
        assert abs(inner_bound(mp_family(lam, phi, policy), 30, 2, policy) - expect) <= policy.rel_tol
        assert abs(expect - mp.mpf("-0.0195")) < mp.mpf("5e-4")
    with pytest.raises(ValueError):
        inner_bound(mp_family("0.5", "0.9", policy), 30, 3, policy)


def test_mp_bound_equals_recurrence_offset(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        assert abs(inner_bound(fam, 30, 0, policy) - fam.C(30)) <= policy.rel_tol


def test_pj_bound_reference_values(policy):
    with policy.workprec():
        b = [inner_bound(pj_family(-10, 8, policy), 5, k, policy) for k in (0, 1, 2)]
        for got, frac in zip(b, (Fraction(80, 30), Fraction(8, 5), Fraction(8, 9))):
            assert abs(got - mp.mpf(frac.numerator) / frac.denominator) <= policy.rel_tol
        assert abs(inner_bound(pj_family("-5.0001", 3, policy), 5, 1, policy) - 30000) < mp.mpf("0.5")
        assert all(inner_bound(pj_family("-5.5", 0, policy), 5, k, policy) == 0 for k in (0, 1, 2))
    with pytest.raises(ValueError):
        inner_bound(pj_family(-10, 8, policy), 5, 3, policy)
    # PJ bounds need a < -n: a = -5 is a valid family, but not at degree 5
    with pytest.raises(ValueError):
        inner_bound(pj_family(-5, 3, policy), 5, 0, policy)


def test_inner_bound_needs_a_built_in_family(policy):
    fam = mp_family("0.5", "0.9", policy)
    copy = custom_family(fam.C, fam.Lambda)
    with pytest.raises(ValueError, match="no closed-form bounds"):
        inner_bound(copy, 5, 0, policy)


def test_bound_separation_table_rows(policy):
    rep = bound_separation(mp_family("0.5", "0.08", policy), 30, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[0] < rep.bounds[1] < rep.bounds[2]
        assert abs(rep.x_min - mp.mpf("-650.578")) < mp.mpf("5e-3")
        assert abs(rep.x_max - mp.mpf("0.010")) < mp.mpf("5e-3")

    rep = bound_separation(pj_family(-35, 8, policy), 25, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[2] < rep.bounds[1] < rep.bounds[0]

    rep = bound_separation(pj_family("-5.5", 0, policy), 5, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    assert all(v == 0 for v in rep.bounds.values())


def test_bound_ordering_reverses(policy):
    rep = bound_separation(mp_family("0.5", "2.7", policy), 12, policy)
    assert rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[2] < rep.bounds[1] < rep.bounds[0]
    rep = bound_separation(pj_family(-35, -8, policy), 12, policy)
    assert rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[0] < rep.bounds[1] < rep.bounds[2]


def test_right_angle_phi_bounds_are_exactly_zero(policy):
    with policy.workprec():
        fam = mp_family("0.5", mp.pi / 2, policy)
        for k in (0, 1, 2):
            assert inner_bound(fam, 12, k, policy) == 0


def test_bound_separation_random_draws(policy):
    rng = random.Random(20250810)
    for _ in range(50):
        fam = mp_family(rng.uniform(0.05, 30), rng.uniform(0.05, 3.09), policy)
        rep = bound_separation(fam, rng.randint(2, 10), policy)
        assert all(rep.separated.values()), rep
        assert rep.ordering_ok, rep
    for _ in range(50):
        fam = pj_family(rng.uniform(-60, -12), rng.uniform(-10, 10), policy)
        rep = bound_separation(fam, rng.randint(2, min(10, fam.max_valid_degree)), policy)
        assert all(rep.separated.values()), rep
        assert rep.ordering_ok, rep


def test_gauss_weights_positive(policy):
    for fam in (mp_family("0.5", "0.08", policy), pj_family(-35, 8, policy)):
        _, weights = gauss_rule(fam, 12, policy)
        assert all(w > 0 for w in weights)


@pytest.mark.parametrize(
    "cell, interlace, ok",
    [
        ((10, 5, 5), "holds", True),
        # m = 2, k = 3: G g has n + 1 zeros, and the theorem's cell must fail
        ((10, 2, 3), "fails(size 11 vs 9, 2 outside span)", True),
        ((4, 2, 4), "n/a", True),  # deg G = 5, not m - 1: no claim to check
        ((10, 4, 6), "n/a", False),  # the residual, 3.15e-10, is above rel_tol = 2**-32
    ],
    ids=["holds", "size", "n/a", "residual"],
)
def test_cell_verdict_reads_the_printed_grid_cells(cell, interlace, ok):
    # MP(0.5, 0.9) at 64 bits, cells whose fields `--grid --n 10 --precision-bits 64` prints
    pol = TolerancePolicy(precision_bits=64)
    fam = mp_family("0.5", "0.9", pol)
    n, m, k = cell
    verdict = zeros.cell_verdict(fam, n, m, k, zeros_golub_welsch(fam, n, pol), {}, pol)
    pair = verdict.decomposition
    assert (verdict.interlace, verdict.ok, pair.residual_ok, pair.follows_law) == (interlace, ok, ok, True)
    assert (pair.n, pair.m, pair.k, pair.law) == (n, m, k, connection_degree_law(k, m))
    assert ok or mp.nstr(pair.residual, 3) == "3.15e-10"


def test_cell_verdict_sweeps_each_k_once_per_n(monkeypatch):
    # the caller keeps the rows per n: gaps m upwards read one sweep per k, and a gap below the first sweeps again
    pol = TolerancePolicy(precision_bits=64)
    fam = mp_family("0.5", "0.9", pol)
    degrees = []
    sweep = zeros._sweep_rows
    monkeypatch.setattr(zeros, "_sweep_rows", lambda family, d, points, prec: degrees.append(d) or sweep(family, d, points, prec))
    zp, sweeps = zeros_golub_welsch(fam, 10, pol), {}
    for m, k in ((5, 5), (6, 5), (7, 5), (3, 2), (2, 2)):
        assert zeros.cell_verdict(fam, 10, m, k, zp, sweeps, pol).interlace == "holds"
    assert degrees == [5, 7, 8] and len(sweeps[2][0]) == 9


def test_stieltjes_coprime_branch(policy):
    verdict = stieltjes_check(mp_family("0.5", "0.9", policy), 2, 10, policy)
    assert verdict.ok and verdict.branch == "coprime" and not verdict.common


def test_stieltjes_classical_case(policy):
    verdict = stieltjes_check(mp_family(20, "0.1", policy), 0, 8, policy)
    assert verdict.ok and verdict.branch == "coprime"


def test_stieltjes_common_zero_branch(policy):
    verdict = stieltjes_check(pj_family("-5.5", 0, policy), 1, 5, policy)
    assert verdict.ok and verdict.branch == "common_zero"
    assert len(verdict.common) == 1
    with policy.workprec():
        assert abs(verdict.common[0]) <= policy.abs_tol
        assert verdict.bound == 0


def test_stieltjes_common_zero_branch_mp_right_angle(policy):
    with policy.workprec():
        fam = mp_family("0.5", mp.pi / 2, policy)
    verdict = stieltjes_check(fam, 2, 9, policy)
    assert verdict.ok and verdict.branch == "common_zero"
    assert len(verdict.common) == 1


def test_stieltjes_failure_path_reports_violations(policy, monkeypatch):
    fam = mp_family("0.5", "0.9", policy)
    n, k = 10, 2
    zp = zeros_golub_welsch(fam, n, policy)
    zg = zeros_golub_welsch(fam.shifted(k), n - 2, policy)
    with policy.workprec():
        beyond = zp[-1] + 1
    monkeypatch.setattr(zeros, "inner_bound", lambda *args: beyond)
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "coprime"
    assert verdict.violations == (
        "zeros of (x-B) g do not interlace the zeros of p_n",
        "bound is not strictly inside the extreme zeros",
    )
    monkeypatch.setattr(zeros, "inner_bound", lambda *args: zg[len(zg) // 2])
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "coprime"
    assert verdict.violations == (
        "bound coincides with a zero of the modified polynomial",
        "zeros of (x-B) g do not interlace the zeros of p_n",
    )


def test_stieltjes_common_zero_failures_report_violations(policy, monkeypatch):
    # PJ(-5.5, 0) at n = 5 shares its middle zero 0 with g_{3,1}, and B_5(1) = 0
    fam, k, n = pj_family("-5.5", "0", policy), 1, 5
    zp = zeros_golub_welsch(fam, n, policy)
    assert stieltjes_check(fam, k, n, policy).ok
    sweep_rows = zeros._sweep_rows

    monkeypatch.setattr(zeros, "inner_bound", lambda *args: mp.mpf("0.25"))
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("common zero 0.0 differs from bound 0.25",)
    monkeypatch.undo()

    # g vanishing at every zero of p_n
    monkeypatch.setattr(zeros, "_sweep_rows", lambda fam, d, points, prec: [[(0, 0, 1, 0)] * (d + 1) for _ in points])
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    x = [mp.nstr(z, 10) for z in zp.values]
    assert verdict.violations == (
        "expected exactly one common zero, found 5",
        f"common zero {x[0]} differs from bound 0.0",
        "common zero is an extreme zero of p_n (index 0)",
        f"common zero {x[1]} differs from bound 0.0",
        f"common zero {x[3]} differs from bound 0.0",
        f"common zero {x[4]} differs from bound 0.0",
        "common zero is an extreme zero of p_n (index 4)",
    )

    # g of one sign at the four zeros of p_n it does not share
    monkeypatch.setattr(
        zeros, "_sweep_rows", lambda fam, d, points, prec: [
            rows if not xm else [(1, 0, 0, 0)] * (d + 1) for (xm, _), rows in zip(points, sweep_rows(fam, d, points, prec))
        ]
    )
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("zeros of g do not interlace the non-common zeros of p_n",)


def test_stieltjes_common_zero_meets_the_bound_by_the_zero_test(policy, monkeypatch):
    # PJ(-1e30, 0) at n = 5 has its zeros within 4e-15 of its common zero 0 = B_5(1): x - B passes the zero
    # test at the spectrum's unit, and a bound moved by 1e-40 fails it
    fam = pj_family("-1e30", "0", policy)
    assert stieltjes_check(fam, 1, 5, policy).ok
    monkeypatch.setattr(zeros, "inner_bound", lambda *args: mp.mpf("1e-40"))
    verdict = stieltjes_check(fam, 1, 5, policy)
    assert verdict.branch == "common_zero"
    assert verdict.violations == ("common zero 0.0 differs from bound 1.0e-40",)


_STIELTJES_CASES = [
    (lambda pol: mp_family("0.5", "0.9", pol), 48, "coprime"),
    (lambda pol: pj_family(-60, 8, pol), 48, "coprime"),
    (lambda pol: mp_family("3.25", "2.4", pol), 20, "coprime"),  # phi > pi/2 and b < 0 reverse the bounds
    (lambda pol: pj_family("-52.5", "-3", pol), 20, "coprime"),
    (lambda pol: pj_family("-5.5", 0, pol), 5, "common_zero"),
    (lambda pol: mp_family("0.5", mp.pi / 2, pol), 9, "common_zero"),
    (lambda pol: pj_family("-1e30", 0, pol), 5, "common_zero"),  # a spectrum 4e-15 wide
]


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("make, n, branch", _STIELTJES_CASES, ids=["mp", "pj", "mp-phi2.4", "pj-b-3", "pj-b0", "mp-right-angle", "pj-a-1e30"])
def test_stieltjes_q_and_verdicts_are_the_mpf_route_bit_for_bit(make, n, branch, bits, monkeypatch):
    # the q = G g that interlace_strict forms for each branch, against the mpf
    # (x - B) g, or g over the non-common zeros, with g from eval_with_derivative
    pol = TolerancePolicy(precision_bits=bits)
    with pol.workprec():
        fam = make(pol)
    calls = []
    interlace = zeros.interlace_strict

    def recorded(G, g, degree, outer, policy):
        verdict = interlace(G, g, degree, outer, policy)
        calls.append((zeros._q_at(G, g, outer.points, bits), outer, verdict))
        return verdict

    monkeypatch.setattr(zeros, "interlace_strict", recorded)
    for k in (0, 1, 2):
        calls.clear()
        result = stieltjes_check(fam, k, n, pol)
        assert result.ok and result.branch == branch, (k, result.violations)
        [(ours, outer, verdict)] = calls
        zp = zeros_golub_welsch(fam, n, pol)
        g = mpf_g(fam.shifted(k), n - 2, zp.values, pol)
        with pol.workprec():
            unit = min(1, zp[-1] - zp[0])
            assert result.common == tuple(x for x, (v, d) in g.items() if mpf_is_zero(v, d, x, unit, pol))
            if branch == "coprime":
                theirs = mpf_grid_q(Polynomial([-inner_bound(fam, n, k, pol), 1]), g, pol)
            else:
                theirs = {x: v for x, (v, _) in g.items() if x not in result.common}
        assert outer.values == tuple(theirs)
        assert [_to_mpf(*v)._mpf_ for v in ours] == [v._mpf_ for v in theirs.values()], k
        assert (verdict.strict, verdict.common) == mpf_interlace_strict(theirs, g, len(outer) - 1, outer, pol)


def test_double_certificate_agrees_on_the_default_grid_and_verify(default_grid, policy, monkeypatch):
    # every sign doubles decide is the kernel q's, at a zero _is_zero rejects, and every verdict is the
    # exact route's; of the default grid's 3,834 zeros, 2 are left to it
    assert len(default_grid.interlaced) == 408
    assert sum(len(outer) for *_, outer, _ in default_grid.interlaced) == 3834
    assert assert_certificate_agrees(default_grid.interlaced) == 2
    # --verify's nine Stieltjes cases
    calls, interlace = [], zeros.interlace_strict
    monkeypatch.setattr(zeros, "interlace_strict", lambda *args: calls.append(args) or interlace(*args))
    with policy.workprec():
        right_angle = mp.pi / 2
    mp_base, pj_base = mp_family("0.5", "0.9", policy), pj_family("-35", "8", policy)
    cases = [(mp_base, k, 10) for k in (0, 1, 2)] + [(pj_base, k, 12) for k in (0, 1, 2)]
    cases += [(pj_family("-5.5", "0", policy), 1, 5), (mp_family("0.5", right_angle, policy), 2, 9), (mp_family("20", "0.1", policy), 0, 8)]
    for fam, k, n in cases:
        assert stieltjes_check(fam, k, n, policy).ok, fam.label
    assert len(calls) == 9
    assert assert_certificate_agrees(calls) == 0


def _declined(G, g, outer, policy) -> list:
    """The indices of the outer zeros the double certificate leaves to the exact route."""
    unit = zeros._unit(outer.points, policy.precision_bits)
    return [i for i, s in enumerate(zeros._decided(G, g, outer, policy.abs_tol, unit)) if not s]


def test_double_certificate_declines_where_doubles_cannot_decide(policy):
    # each case gives the exact route's verdict, and the zeros named take that route
    with policy.workprec():
        right_angle = mp.pi / 2
    # exact common zeros at 0: q = (x - B) g with B = 0 and g(0) = 0, the Stieltjes common_zero cases
    for fam, k, n in ((pj_family("-5.5", "0", policy), 1, 5), (mp_family("0.5", right_angle, policy), 2, 9)):
        zp = zeros_golub_welsch(fam, n, policy)
        G, g = Polynomial([-inner_bound(fam, n, k, policy), 1]), _rows(fam.shifted(k), n - 2, zp, policy)
        assert zp[n // 2] == 0 and n // 2 in _declined(G, g, zp, policy)
        assert assert_certificate_agrees([(G, g, n - 2, zp, policy)]) >= 1
        assert interlace_strict(G, g, n - 2, zp, policy).common == (0,)
    # G(0) = 0 with g = 1, and g(0) = 0 (g = x, g' = 1) with G = x + 2
    cases = [(Polynomial([0, -2, 1]), [_ONE] * 3, 0, [1]), (Polynomial([2, 1]), [(-1, 0, 1, 0), (0, 0, 1, 0), (1, 0, 1, 0)], 1, [1])]
    for G, g, degree, declined in cases:
        outer = _outer(-1, 0, 1)
        assert _declined(G, g, outer, policy) == declined
        assert assert_certificate_agrees([(G, g, degree, outer, policy)]) == 1
        assert interlace_strict(G, g, degree, outer, policy).common == (0,)
    # a coefficient of 2**2000 leaves every zero to the exact route; q = 1 + 2**2000 x interlaces (-1, 1)
    G, outer = Polynomial([1, mp.mpf(2) ** 2000]), _outer(-1, 1)
    assert assert_certificate_agrees([(G, [_ONE] * 2, 0, outer, policy)]) == 2
    assert interlace_strict(G, [_ONE] * 2, 0, outer, policy).strict
    # consecutive degrees at the extreme scales: zeros near 1e+-400 lie outside the doubles' span
    for i, (C, Lam, abs_tol) in enumerate(_EXTREME_SCALES):
        pol = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=abs_tol)
        fam = custom_family(C, Lam)
        outer = zeros_golub_welsch(fam, 12, pol)
        g = _rows(fam, 11, outer, pol)
        if i < 3:
            assert _declined(Polynomial([1]), g, outer, pol) == list(range(12))
        assert_certificate_agrees([(Polynomial([1]), g, 11, outer, pol)])
    # an abs_tol of 1e-400 underflows a double: every zero takes the exact route
    pol = TolerancePolicy(abs_tol="1e-400")
    fam = mp_family("0.5", "0.9", pol)
    outer = zeros_golub_welsch(fam, 12, pol)
    g = _rows(fam, 11, outer, pol)
    assert _declined(Polynomial([1]), g, outer, pol) == list(range(12))
    assert assert_certificate_agrees([(Polynomial([1]), g, 11, outer, pol)]) == 12


def test_zero_test_reads_the_spectrum_scale():
    # the zero test on g measures |g/g'| against abs_tol max(unit, |x|) with unit = min(1, x_n - x_1), as the gap
    # check does, so consecutive degrees of the 1e-400 family interlace under the default tolerance as under a
    # tiny one; against max(1, |x|) every one of its zeros read as common
    for C, Lam, abs_tol in _EXTREME_SCALES[1:3]:
        pol = TolerancePolicy(abs_tol=abs_tol)
        fam = custom_family(C, Lam)
        outer = zeros_golub_welsch(fam, 12, pol)
        verdict = interlace_strict(Polynomial([1]), _rows(fam, 11, outer, pol), 11, outer, pol)
        assert verdict.strict and verdict.common == ()


def test_double_certificate_agrees_at_64_bits(monkeypatch):
    # at 64 bits the kernel's roundings are 2**-63, which the 2**-40 slack covers, and abs_tol is 2**-32:
    # the grid's calls up to n = 8, with none of 855 zeros left to the exact route (test_stieltjes_q_and_verdicts_...
    # checks the Stieltjes verdicts at 64 bits)
    pol = TolerancePolicy(precision_bits=64)
    calls, interlace = [], zeros.interlace_strict
    monkeypatch.setattr(zeros, "interlace_strict", lambda *args: calls.append(args) or interlace(*args))
    cli._grid_rows(cli.RunConfig("grid", n=8, precision_bits=64), pol)
    assert len(calls) == 130 and sum(len(outer) for *_, outer, _ in calls) == 855
    assert assert_certificate_agrees(calls) == 0


@pytest.fixture
def n4_grid(cli_runs):
    return cli_runs(("--grid", "--n", "4"))


def test_root_finder_failure_is_a_numerical_failure(policy, n4_grid, monkeypatch, capsys):
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(args)
        raise mp.NoConvergence("polyroots failed to converge")

    monkeypatch.setattr(mp, "polyroots", no_convergence)
    with pytest.raises(ArithmeticError, match="degree-2 polynomial did not converge"):
        polynomial_real_roots(Polynomial([-1, 0, 1]), policy)
    calls.clear()
    # no CLI mode runs a root finder: the grid names its m = 2, k = 3 cells by Sturm counts of their cubic G,
    # so with polyroots failing it prints the same report as the shared unpatched run
    assert main(["--grid", "--n", "4"]) == n4_grid.code == 0
    patched = capsys.readouterr()
    assert patched.err == n4_grid.err == ""
    reports = [json.loads(out) for out in (patched.out, n4_grid.out)]
    for report in reports:
        del report["meta"]["timestamp"]
    assert reports[0] == reports[1]
    assert "fails(size 5 vs 3, 2 outside span)" in patched.out
    argvs = [
        (["--table", "1"], 0),
        (["--table", "2"], 0),
        (["--table", "3"], 0),
        (["--verify"], 0),
        (["--grid", "--lambda", "20", "--phi", "0.1", "--n", "9"], 0),
        (["--decompose", "--family", "mp", "--lambda", "0.5", "--phi", "0.9", "--n", "8", "--m", "2", "--k", "2"], 0),
    ]
    assert [main(argv) for argv, _ in argvs] == [code for _, code in argvs]
    assert capsys.readouterr().err == ""
    assert calls == []


def test_stieltjes_parameter_validation(policy):
    with pytest.raises(ValueError):
        stieltjes_check(mp_family("0.5", "0.9", policy), 3, 10, policy)
    with pytest.raises(ValueError):
        # base degree outside the validity range
        stieltjes_check(pj_family("-5.5", 8, policy), 2, 6, policy)
    with pytest.raises(ValueError):
        # shift pushes the parameter out of the constructor's range
        stieltjes_check(pj_family("-3.5", 8, policy), 2, 3, policy)


def test_polynomial_real_roots_classification(policy):
    p = Polynomial([-1, 0, 1])  # x^2 - 1
    roots, nonreal = polynomial_real_roots(p, policy)
    assert nonreal == 0
    with policy.workprec():
        assert abs(roots[0] + 1) <= policy.abs_tol and abs(roots[1] - 1) <= policy.abs_tol
    q = Polynomial([1, 0, 1])  # x^2 + 1
    roots, nonreal = polynomial_real_roots(q, policy)
    assert roots == [] and nonreal == 2
    lin = Polynomial([3, 2])
    roots, nonreal = polynomial_real_roots(lin, policy)
    assert nonreal == 0
    with policy.workprec():
        assert abs(roots[0] + mp.mpf(3) / 2) <= policy.rel_tol
