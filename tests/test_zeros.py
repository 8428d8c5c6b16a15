from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from christoffel import (
    bound_separation,
    custom_family,
    eval_with_derivative,
    gauss_rule,
    generate_all,
    inner_bound,
    interlace_strict,
    mp_family,
    pj_family,
    polynomial_real_roots,
    stieltjes_check,
    values_ladder,
    zeros_golub_welsch,
)
from christoffel import zeros
from christoffel.cli import main
from christoffel.core import Polynomial, TolerancePolicy, _to_mpf, _unpack

from polyhelpers import (
    assert_bound_extremes_are_the_full_solve,
    bound_families,
    mpf_grid_q,
    mpf_interlace_strict,
    mpf_is_zero,
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
    return zeros._spectrum(fam, n, pol).zeros(fam).values


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
    """Replace zeros._polish by a wrapper that appends to the returned list on every call."""
    calls = []
    polish = zeros._polish

    def counted(*args):
        calls.append(args[1])
        return polish(*args)

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
    # bound separation finishes only the two extreme zeros; the Gauss rule finishes the
    # other 28 from the same cells, and no zero gets a second enclosure
    enclosed, enclose = Counter(), zeros._enclose
    monkeypatch.setattr(zeros, "_enclose", lambda *args: enclosed.update([args[-1]]) or enclose(*args))
    fam, n = mp_family("0.5", "0.08", policy), 30
    calls.clear()
    bound_separation(fam, n, policy)
    assert len(calls) == 2
    gauss_rule(fam, n, policy)
    assert len(calls) == n
    assert len(enclosed) == n and set(enclosed.values()) == {1}
    # the spectrum is the one store of the zeros, and a bound separation after the full solve
    # reads its ZeroSet's own ends without polishing again
    assert ("spectrum", n, policy.precision_bits) in fam._store
    assert [key for key in fam._store if key[:1] == ("zeros",)] == []
    zs = zeros_golub_welsch(fam, n, policy)
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


def test_bound_separation_keeps_the_gap_check(policy, monkeypatch):
    # a tolerance at or above a gap fails the certificate, and the full solve raises its own
    # error; MP(20, 0.1)'s zeros lie far from 0, so just above its smallest relative gap the
    # tolerance is too large only by the zeros' size, which the certificate has to count too.
    # Under the default tolerance the boxes certify every gap and only the extremes are polished.
    # A family fully solved under the default tolerance certifies from its kept boxes, and raises the same.
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
                with pytest.raises(ValueError) as bound:
                    bound_separation(fam, n, loose)
                assert str(bound.value) == str(full.value)
        calls = _count_polish(monkeypatch)
        assert bound_separation(family(policy), n, policy).x_max == zs[-1]
        assert len(calls) == 2
        monkeypatch.undo()


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
    fam = custom_family(lambda j: mp.mpf(abs(m - (j - 1))), lambda j: mp.mpf(1), label=f"W+{2 * m + 1}", policy=policy)
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
    fam, n = custom_family(C, Lam, policy=pol), 12
    zs = zeros_golub_welsch(fam, n, pol)
    ev = _jacobi_eigenvalues(fam, n, pol)
    with pol.workprec():
        assert all(abs(z - e) <= pol.rel_tol * abs(e) for z, e in zip(zs.values, ev))


@pytest.mark.parametrize("exponent", [20, 22, 25, 30])
def test_zeros_far_from_the_origin_against_their_width(policy, exponent):
    # Diagonal 10**e and Lambda = 1: the zeros are 10**e + 2 cos(j pi / 13).
    # The 64-bit Gershgorin width rounds to 0, and with it the zero-pivot
    # stand-in, which ended in a bare ZeroDivisionError for e = 20, 22, 25.
    fam = custom_family(lambda j: mp.mpf(10) ** exponent, lambda j: mp.mpf(1), label=f"offset 1e{exponent}", policy=policy)
    zs = zeros_golub_welsch(fam, 12, policy)
    with policy.workprec():
        exact = [mp.mpf(10) ** exponent + 2 * mp.cos(j * mp.pi / 13) for j in range(12, 0, -1)]
        assert max(abs(z - e) for z, e in zip(zs.values, exact)) <= policy.abs_tol


def test_one_point_at_64_bits_is_bisected_to_the_spread_at_working_precision(monkeypatch):
    # Diagonal 1e20 and Lambda = 1: the 64-bit Gershgorin spread rounds to 0,
    # so every cell is bisected again at working precision.  Those cells stop
    # at 2**-44 of the spread there, about 43 counts per zero, not where their
    # midpoints round to an end (2,273 counts for these 12 zeros at 256 bits).
    pol = TolerancePolicy(precision_bits=256)
    calls, count_below = [], zeros._count_below

    def spied(diag, offsq, x, tiny):
        calls.append(x)
        return count_below(diag, offsq, x, tiny)

    monkeypatch.setattr(zeros, "_count_below", spied)
    _solved(custom_family(lambda j: mp.mpf(10) ** 20, lambda j: mp.mpf(1), label="offset 1e20", policy=pol), 12, pol)
    assert len(calls) <= 12 * 50


def test_zeros_closer_than_64_bits_resolve_fail_by_name():
    # 64 bits cannot tell these zeros apart; the failure names the family and
    # the degree instead of dividing by a zero pivot
    pol = TolerancePolicy(precision_bits=64)
    fam = custom_family(lambda j: mp.mpf(10) ** 30, lambda j: mp.mpf(1), label="offset 1e30", policy=pol)
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
    """Record each zero whose certified enclosure sent a midpoint back to the float counts of count64.

    Wraps ``_isolate`` to know the cell each count is for, ``_enclose`` to
    keep each zero's enclosure (its own certifying counts are not count64's)
    and ``_count_below`` to see a float count in a single-zero cell.
    """
    isolate, enclose, count_below = zeros._isolate, zeros._enclose, zeros._count_below
    boxes, cells, undecided = {}, [], []

    def in_cells(cell, f, *args):
        cells.append(cell)
        try:
            return f(*args)
        finally:
            cells.pop()

    def spied_isolate(count, *args):
        return isolate(lambda x, ca, cb: in_cells((ca, cb), count, x, ca, cb), *args)

    def spied_enclose(*args):
        boxes[args[-1]] = in_cells(None, enclose, *args)
        return boxes[args[-1]]

    def spied_count_below(diag, offsq, x, tiny):
        if cells and cells[-1] and isinstance(x, float):
            ca, cb = cells[-1]
            if cb - ca == 1 and boxes[cb][0] > -math.inf:
                undecided.append(cb)
        return count_below(diag, offsq, x, tiny)

    monkeypatch.setattr(zeros, "_isolate", spied_isolate)
    monkeypatch.setattr(zeros, "_enclose", spied_enclose)
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
        yield custom_family(C, Lam, policy=pol), 12, pol
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
        cases.append((custom_family(C, Lam, label=f"extreme scale {i}", policy=pol), 12))
    cases.append((custom_family(lambda j: mp.mpf(abs(15 - (j - 1))), lambda j: mp.mpf(1), label="W+31", policy=pol), 31))
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
    neg = custom_family(lambda n: mp.mpf(0), lambda n: mp.mpf(-1), None, policy=policy)
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
        policy=policy,
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
    for fam in (mp_family("0.5", "0.9", pol), pj_family(-60, 8, pol), right_angle):
        for n in (1, 2, 3, 7, 12, 19, 48):
            _, weights = gauss_rule(fam, n, pol)
            assert [w._mpf_ for w in weights] == [w._mpf_ for w in _mpf_gauss_weights(fam, n, pol)], (fam.label, n)


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
    copy = custom_family(fam.C, fam.Lambda, policy=policy)
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
    shifted = fam.shifted(k)
    zp = zeros_golub_welsch(fam, n, policy)
    assert stieltjes_check(fam, k, n, policy).ok
    sweep, g_rows = zeros._sweep, shifted.kernel_rows(n - 2, policy.precision_bits)

    monkeypatch.setattr(zeros, "inner_bound", lambda *args: mp.mpf("0.25"))
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("common zero 0.0 differs from bound 0.25",)
    monkeypatch.undo()

    # g vanishing at every zero of p_n
    monkeypatch.setattr(zeros, "_sweep", lambda rows, *args: (0, 0, 1, 0) if rows is g_rows else sweep(rows, *args))
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
        zeros, "_sweep", lambda rows, m, xm, *args: (1, 0, 0, 0) if rows is g_rows and xm else sweep(rows, m, xm, *args)
    )
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("zeros of g do not interlace the non-common zeros of p_n",)


_STIELTJES_CASES = [
    (lambda pol: mp_family("0.5", "0.9", pol), 48, "coprime"),
    (lambda pol: pj_family(-60, 8, pol), 48, "coprime"),
    (lambda pol: mp_family("3.25", "2.4", pol), 20, "coprime"),  # phi > pi/2 and b < 0 reverse the bounds
    (lambda pol: pj_family("-52.5", "-3", pol), 20, "coprime"),
    (lambda pol: pj_family("-5.5", 0, pol), 5, "common_zero"),
    (lambda pol: mp_family("0.5", mp.pi / 2, pol), 9, "common_zero"),
]


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("make, n, branch", _STIELTJES_CASES, ids=["mp", "pj", "mp-phi2.4", "pj-b-3", "pj-b0", "mp-right-angle"])
def test_stieltjes_q_and_verdicts_are_the_mpf_route_bit_for_bit(make, n, branch, bits, monkeypatch):
    # the q = G g that interlace_strict forms for each branch, against the mpf
    # (x - B) g, or g over the non-common zeros, with g from values_ladder
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
        with pol.workprec():
            g = {x: values_ladder(fam.shifted(k), n - 2, x, pol)[n - 2] for x in zp.values}
            assert result.common == tuple(x for x, (v, d) in g.items() if mpf_is_zero(v, d, x, pol))
            if branch == "coprime":
                B = inner_bound(fam, n, k, pol)
                theirs = mpf_grid_q(Polynomial([-B, 1]), zp.values, fam.shifted(k), n - 2, pol)
            else:
                theirs = {x: vd for x, vd in g.items() if x not in result.common}
        assert outer.values == tuple(theirs)
        assert [(_to_mpf(vm, ve)._mpf_, _to_mpf(dm, de)._mpf_) for vm, ve, dm, de in ours] == [
            (v._mpf_, d._mpf_) for v, d in theirs.values()
        ], k
        assert (verdict.strict, verdict.common) == mpf_interlace_strict(theirs.__getitem__, len(outer) - 1, outer, pol)


def test_root_finder_failure_is_a_numerical_failure(policy, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise mp.NoConvergence("polyroots failed to converge")

    monkeypatch.setattr(mp, "polyroots", no_convergence)
    with pytest.raises(ArithmeticError, match="degree-2 polynomial did not converge"):
        polynomial_real_roots(Polynomial([-1, 0, 1]), policy)
    # the grid names its m = 2, k = 3 cells by the roots of their cubic G
    assert main(["--grid", "--n", "4"]) == 3
    assert capsys.readouterr() == ("", "numerical failure: root finding on a degree-3 polynomial did not converge\n")


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
