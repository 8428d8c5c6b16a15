"""Coefficient-level helpers that only the tests need."""

from __future__ import annotations

import dataclasses
import io
import re
from contextlib import redirect_stdout

import pytest
from mpmath import mp
from mpmath.libmp import mpf_add, mpf_le, mpf_shift, mpf_sub, round_nearest, to_float

from christoffel import (
    ModifierSpec,
    Polynomial,
    RecurrenceFamily,
    TolerancePolicy,
    associated,
    bound_separation,
    christoffel_transform,
    connection_decompose,
    custom_family,
    eval_with_derivative,
    even_modifier,
    gauss_rule,
    generate,
    generate_all,
    interlace_strict,
    mp_family,
    pj_family,
    polynomial_real_roots,
    to_scalar,
    zeros_golub_welsch,
)
from christoffel import cli, zeros
from christoffel.core import _to_mpf, _unpack
from christoffel.families import CUSTOM, MEIXNER_POLLACZEK, _ladder, _point, _snapped_cot, _sweep
from christoffel.transform import DegenerateTransformError, _cofactor_minors, _node_rows
from christoffel.zeros import _BAND, _TINY, _count_below, _is_zero, _q_at, _unit


def coeff(p: Polynomial, i: int) -> mp.mpf:
    """Coefficient of x**i in p (zero beyond the degree)."""
    return p.coeffs[i] if 0 <= i < len(p.coeffs) else mp.mpf(0)


def max_rel_coeff_diff(p: Polynomial, q: Polynomial) -> mp.mpf:
    """Coefficientwise deviation of p from q, relative to max(1, ||q||_inf)."""
    scale = max(q.inf_norm(), mp.mpf(1))
    return (p - q).inf_norm() / scale


def schoolbook_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the schoolbook loop on mpf values at the ambient precision."""
    return Polynomial(poly_mul(p.coeffs, q.coeffs))


# -- the built-in recurrences on mpf values --------------------------------------
#
# mp_family and pj_family define their recurrence once, as a kernel row function;
# these are the mpf closures it replaced, kept as the oracle its bits are checked against.


def mpf_recurrence(family, bits: int) -> tuple:
    """(C, Lambda): the mpf maps of a built-in family's recurrence at the ambient precision, over its
    parameters as the family keeps them, cot(phi) and 1 / (4 sin(phi)^2) formed at ``bits``, the
    precision the family was built at."""
    if family.kind == MEIXNER_POLLACZEK:
        lam, phi = family.params["lambda"], family.params["phi"]
        with mp.workprec(bits):
            cot = _snapped_cot(phi)
            inv_four_sin2 = 1 / (4 * mp.sin(phi) ** 2)
        return (lambda n: -(lam + n - 1) * cot), (lambda n: (n - 1) * (2 * lam + n - 2) * inv_four_sin2)
    a, b = family.params["a"], family.params["b"]

    def Lambda(n):
        an1 = a + n - 1
        return -(n - 1) * (2 * a + n - 1) * (an1 * an1 + b * b) / (an1 * an1 * (4 * an1 * an1 - 1))

    return (lambda n: -a * b / ((a + n - 1) * (a + n))), Lambda


# -- the polynomial ring on mpf values -------------------------------------------
#
# Polynomial keeps its coefficients as kernel pairs; these are the mpf loops its
# operations replaced, on coefficient lists (ascending, trailing zeros trimmed)
# at the ambient precision, kept as the oracle its bits are checked against.


def _trimmed(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def poly_add(a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trimmed(out)


def poly_sub(a, b) -> list:
    out = list(a) + [mp.mpf(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trimmed(out)


def poly_neg(a) -> list:
    return _trimmed([-c for c in a])


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def poly_scaled(a, c) -> list:
    return _trimmed([c * x for x in a])


def poly_derivative(a) -> list:
    return _trimmed([i * c for i, c in enumerate(a)][1:])


def poly_divmod(a, den) -> tuple:
    rem = list(a)
    dlead, dn = den[-1], len(den) - 1
    quo = [mp.mpf(0)] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        f = rem[i] / dlead
        quo[i - dn] = f
        if f != 0:
            for j, c in enumerate(den):
                rem[i - dn + j] -= f * c
        rem[i] = mp.mpf(0)
    return _trimmed(quo), _trimmed(rem)


def poly_inf_norm(a):
    return max((abs(c) for c in a), default=mp.mpf(0))


def poly_defect(lhs, a, p, G, q):
    """The sup norm of lhs - (a p - G q), the ``Polynomial`` chain ``connection_decompose`` formed its identity
    defect by, ``(lhs - (a * p - G * q)).inf_norm()``, on mpf coefficient lists."""
    return poly_inf_norm(poly_sub(lhs, poly_sub(poly_mul(a, p), poly_mul(G, q))))


def poly_horner(a, x):
    acc = mp.mpf(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# -- the connection decomposition on mpf values ----------------------------------
#
# transform.connection_decompose, its monic-basis expansion and the ladders and
# associated sequences it reads run on kernel pairs; these are the mpf loops
# they replaced.


def poly_three_term(polys: list, m: int, cs, ls) -> list:
    """Extend polys = [[1], P_1, ...] in place to P_m, P_j = (x - cs[j]) P_{j-1} - ls[j] P_{j-2}."""
    for j in range(len(polys), m + 1):
        head = [-cs[j], mp.mpf(1)]
        polys.append(head if j == 1 else poly_sub(poly_mul(head, polys[j - 1]), poly_scaled(polys[j - 2], ls[j])))
    return polys


def poly_ladder(family, n: int, prec: int, built: dict) -> list:
    """p_0..p_n of the family by the mpf three-term loop at ``prec`` bits, kept in ``built``."""
    polys = built.setdefault(("ladder", family, prec), [[mp.mpf(1)]])
    if len(polys) <= n:
        C, L = family.recurrence(n, prec)
        with mp.workprec(prec):
            poly_three_term(polys, n, C, L)
    return polys


def poly_associated(family, n: int, m: int, prec: int, built: dict) -> list:
    """S_m anchored at n by the mpf three-term loop, C(n - j + 1) and Lambda(n - j + 2) at step j, kept in ``built``."""
    key = ("associated", family, n, prec)
    if key not in built:
        C, L = family.recurrence(n, prec)
        cs = [None] + [C[n - j + 1] for j in range(1, n + 1)]
        ls = [None, None] + [L[n - j + 2] for j in range(2, n + 1)]
        with mp.workprec(prec):
            built[key] = poly_three_term([[mp.mpf(1)]], n, cs, ls)
    return built[key][m]


def poly_expand_in_monic_basis(f, ladder, low: int) -> list:
    """Coefficients e_low..e_N with f = sum e_i p_i over the monic ladder p_0..p_N, top down to p_low."""
    rem = list(f)
    out = [mp.mpf(0)] * len(f)
    for i in range(len(f) - 1, low - 1, -1):
        e = rem[i]
        out[i] = e
        if e != 0:
            for t, c in enumerate(ladder[i]):
                rem[t] -= e * c
        rem[i] = mp.mpf(0)
    return out[low:]


def poly_decompose(family, modifier, n: int, m: int, policy, built: dict) -> tuple:
    """(a, G, residual, B, scale, work, g) of ``connection_decompose`` by its mpf loops, for a canonical modifier.

    g is the shifted family's p_{n-m}; polynomials are coefficient lists.  ``built`` keeps
    ladders, associated sequences and expansions for the next cell.
    """
    k, prec = modifier.k, policy.precision_bits
    top = max(n, n - m + 2 * k)
    L = family.recurrence(top, prec)[1]
    with policy.workprec():
        ladder = poly_ladder(family, top, prec, built)
        g = poly_ladder(family.shifted(k), n - m, prec, built)[n - m]
        key = ("expansion", family, modifier, n - m, policy)
        if key not in built:
            lhs = poly_mul(modifier.c.coeffs, g)
            built[key] = lhs, poly_expand_in_monic_basis(lhs, ladder, n - m)
        lhs, coeffs = built[key]
        d = [e / coeffs[-1] for e in coeffs]

        a_out = [mp.mpf(0)] * max(m - 1, 2 * k - m + 1)
        g_out = [mp.mpf(0)] * max(m, 2 * k - m)
        for j in range(0, min(m - 2, 2 * k) + 1):
            prod = mp.mpf(1)
            for t in range(m - j - 1):
                prod *= L[n - t]
            w = d[j] / prod
            for i, s in enumerate(poly_associated(family, n - 1, m - j - 2, prec, built)):
                a_out[i] -= w * s
            for i, s in enumerate(poly_associated(family, n, m - j - 1, prec, built)):
                g_out[i] += w * s
        if m - 1 <= 2 * k:
            g_out[0] += d[m - 1]
        for j in range(m, 2 * k + 1):
            for i, s in enumerate(poly_associated(family, n - m + j, j - m, prec, built)):
                a_out[i] += d[j] * s
        for j in range(m + 1, 2 * k + 1):
            w = L[n + 1] * d[j]
            for i, s in enumerate(poly_associated(family, n - m + j, j - m - 1, prec, built)):
                g_out[i] -= w * s
        a = _trimmed(a_out)
        G = _trimmed([-c for c in g_out])
        if not G:
            raise ArithmeticError("connection coefficient G vanished")
        residual = poly_defect(lhs, a, ladder[n], G, ladder[n - 1]) / max(poly_inf_norm(lhs), mp.mpf(1))
        B = -G[0] / G[1] if len(G) == 2 else None
        return a, G, residual, B, 1 / G[-1], tuple(d), g


def _mpf_bits(values) -> list:
    return [v._mpf_ for v in values]


def assert_grid_decompositions_are_the_mpf_loops(lam, phi, bits: int, n_max: int) -> int:
    """Every ``--grid`` cell (4 <= n <= n_max, 2 <= m <= n, k <= m + 2) of MP(lam, phi) at ``bits``
    against :func:`poly_decompose`, bit for bit, and its verdict against the residual gate and the degree law
    read from the oracle's pair; returns the number of cells."""
    policy = TolerancePolicy(precision_bits=bits)
    family = mp_family(lam, phi, policy)
    cells, built = 0, {}
    for n in range(4, n_max + 1):
        for m in range(2, n + 1):
            for k in range(0, m + 3):
                modifier = even_modifier(family, k, policy)
                got = connection_decompose(family, modifier, n, m, policy)
                a, G, residual, B, scale, work, g = poly_decompose(family, modifier, n, m, policy, built)
                assert _mpf_bits(got.a_poly.coeffs) == _mpf_bits(a), (n, m, k)
                assert _mpf_bits(got.G_poly.coeffs) == _mpf_bits(G), (n, m, k)
                assert _mpf_bits(got.g_poly.coeffs) == _mpf_bits(g), (n, m, k)
                assert _mpf_bits(got.work) == _mpf_bits(work), (n, m, k)
                assert (got.residual._mpf_, got.scale._mpf_) == (residual._mpf_, scale._mpf_), (n, m, k)
                assert (got.B is None and B is None) or got.B._mpf_ == B._mpf_, (n, m, k)
                law = (m - 2 if k <= m - 1 else 2 * k - m, max(m - 1, 2 * k - m - 1))
                assert got.law[:2] == law, (n, m, k)
                assert got.follows_law == ((len(a) - 1, len(G) - 1) == law), (n, m, k)
                assert got.residual_ok == (residual <= policy.rel_tol), (n, m, k)
                cells += 1
    return cells


# -- the determinant transform on mpc values ------------------------------------
#
# transform.christoffel_transform forms its node rows and cofactor minors on
# complex kernel quadruples, with one elimination shared by all minors; these
# are the mpc loops it replaced: each minor eliminated on its own.

mpc_horner = poly_horner  # at an mpc point, the complex Horner loop Polynomial.__call__ ran


def mpc_bareiss_det(rows) -> mp.mpc:
    """Fraction-free Gaussian elimination with partial pivoting; returns det."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = mp.mpc(1)
    for r in range(n - 1):
        piv = max(range(r, n), key=lambda i: abs(a[i][r]))
        if a[piv][r] == 0:
            return mp.mpc(0)
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) / prev
            a[i][r] = mp.mpc(0)
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


def mpc_cofactor_minors(node_rows) -> list:
    """All 2k + 1 minors U_j of the 2k x (2k + 1) node-value matrix (delete column j)."""
    width = len(node_rows[0])
    return [mpc_bareiss_det([[row[t] for t in range(width) if t != j] for row in node_rows]) for j in range(width)]


def mpc_node_rows(polys, nodes) -> list:
    zeros = [w for z in nodes for w in (z, -z)]
    rows = []
    for i, w in enumerate(zeros):
        derived = polys
        for _ in range(zeros[:i].count(w)):
            derived = [p.derivative() for p in derived]
        rows.append([mp.mpc(mpc_horner(p.coeffs, w)) for p in derived])
    return rows


def mpc_transform(family, modifier, deg: int, policy) -> Polynomial:
    """christoffel_transform for k >= 1 by the mpc loops."""
    k = modifier.k
    with policy.workprec():
        polys = _ladder(family, deg + 2 * k, policy.precision_bits)[deg:]
        minors = mpc_cofactor_minors(mpc_node_rows(polys, modifier.nodes))
        scale = max(abs(u) for u in minors)
        if scale == 0 or abs(minors[-1]) <= policy.rel_tol * scale:
            raise DegenerateTransformError(
                f"leading cofactor is {mp.nstr(abs(minors[-1]), 6)} against scale "
                f"{mp.nstr(scale, 6)}; transform is degenerate for {family.label}"
            )
        combo = Polynomial()
        for j, u in enumerate(minors):
            d = u / minors[-1]
            if j % 2:
                d = -d
            if abs(d.imag) > policy.abs_tol * max(1, abs(d)):
                raise DegenerateTransformError(
                    f"imaginary residue {mp.nstr(abs(d.imag), 6)} in expansion "
                    "coefficients; modifier nodes are inconsistent"
                )
            combo = combo + polys[j]._scaled(*_unpack(d.real._mpf_))
        return combo.divide_exact(modifier.c, policy)


def _to_mpc(am, ae, bm, be) -> mp.mpc:
    return mp.mpc(_to_mpf(am, ae), _to_mpf(bm, be))


def assert_transform_is_the_mpc_loops(family, modifier, deg: int, policy) -> str:
    """The node rows, the minors and g_{deg,k} of the determinant transform against the mpc loops,
    bit for bit; returns "ok", or the name of the error both routes raise with the same message."""
    prec = policy.precision_bits
    with policy.workprec():
        ladder = _ladder(family, deg + 2 * modifier.k, prec)
        rows = [row[deg : len(ladder)] for row in _node_rows(family, modifier, ladder, prec)]
        oracle_rows = mpc_node_rows(ladder[deg:], modifier.nodes)
        assert [[_to_mpc(*v)._mpc_ for v in row] for row in rows] == [[v._mpc_ for v in row] for row in oracle_rows]
        assert [_to_mpc(*u)._mpc_ for u in _cofactor_minors(rows, prec)] == [u._mpc_ for u in mpc_cofactor_minors(oracle_rows)]
    try:
        g = christoffel_transform(family, modifier, deg, policy)
    except ArithmeticError as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            mpc_transform(family, modifier, deg, policy)
        return type(err).__name__
    assert _mpf_bits(g.coeffs) == _mpf_bits(mpc_transform(family, modifier, deg, policy).coeffs)
    return "ok"


# node sets (re, im) beside the canonical modifiers: distinct nodes, a node
# repeated, the node 0, a node repeated up to sign, and both at once
NODE_SETS = {
    "0.3i,2.7i,0.4": (("0", "0.3"), ("0", "2.7"), ("0.4", "0")),
    "1.5i,1.5i": (("0", "1.5"), ("0", "1.5")),
    "0": (("0", "0"),),
    "0.4,-0.4": (("0.4", "0"), ("-0.4", "0")),
    "0.9i,-0.9i,0": (("0", "0.9"), ("0", "-0.9"), ("0", "0")),
}


def assert_transforms_are_the_mpc_loops(family, bits: int, degrees, node_sets) -> dict:
    """:func:`assert_transform_is_the_mpc_loops` for the canonical modifiers k = 1..3 of
    ``family(policy)`` and the named ``node_sets``, at each degree; returns the count of each outcome."""
    policy = TolerancePolicy(precision_bits=bits)
    with policy.workprec():  # a parameter such as mp.pi / 2 is formed at the policy's precision
        fam = family(policy)
        modifiers = [even_modifier(fam, k, policy) for k in (1, 2, 3)]
        modifiers += [ModifierSpec([mp.mpc(*z) for z in NODE_SETS[name]], policy) for name in node_sets]
    outcomes = {}
    for modifier in modifiers:
        for deg in degrees:
            outcome = assert_transform_is_the_mpc_loops(fam, modifier, deg, policy)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return outcomes


# -- the zero solver on mpf values ----------------------------------------------
#
# zeros._Spectrum bisects on integers (zeros._walk) and runs its Newton steps on kernel
# pairs; these are the mpf loops they replaced, kept as the oracle their bits are checked against.


def mpf_count_below(diag, offsq, x, tiny) -> int:
    """Eigenvalues of the Jacobi matrix strictly below the mpf x: the Sturm pivot loop on mpf values."""
    count = 0
    d = diag[0] - x
    if d == 0:
        d = -tiny
    if d < 0:
        count += 1
    for j in range(1, len(diag)):
        d = (diag[j] - x) - offsq[j - 1] / d
        if d == 0:
            d = -tiny
        if d < 0:
            count += 1
    return count


def mpf_isolate(count, a, b, ca, cb, width, prec):
    """Brackets (a, b, ca, cb) by bisection on raw mpf tuples, midpoints rounded to ``prec`` bits."""
    out = []
    todo = [(a, b, ca, cb)] if ca < cb else []
    while todo:
        a, b, ca, cb = todo.pop()
        mid = mpf_shift(mpf_add(a, b, prec, round_nearest), -1)
        if (cb - ca == 1 and mpf_le(mpf_sub(b, a, prec, round_nearest), width)) or mid in (a, b):
            out.append((a, b, ca, cb))
            continue
        cm = min(max(count(mid), ca), cb)
        if cm < cb:
            todo.append((mid, b, cm, cb))
        if ca < cm:
            todo.append((a, mid, ca, cm))
    return out


def mpf_polish(family, n, lo, hi, policy, unit):
    """Safeguarded Newton on p_n with mpf arithmetic at the ambient precision, from the bracket's centre."""
    w0 = max(hi - lo, mp.ldexp(max(unit, abs(lo)), -mp.prec))
    x_min, x_max = lo - w0, hi + w0
    x = (lo + hi) / 2
    eps_stop = mp.ldexp(1, -(mp.prec - 8))
    floor_step = mp.ldexp(w0, -16)
    prev_step = None
    for _ in range(150):
        p, dp = eval_with_derivative(family, n, x, policy)
        if p == 0 or dp == 0:
            return x
        xn = min(max(x - p / dp, x_min), x_max)
        step = abs(xn - x)
        if step <= eps_stop * max(unit, abs(xn)):
            return xn
        if prev_step is not None and step >= prev_step and prev_step <= floor_step:
            return x
        prev_step = step
        x = xn
    raise ArithmeticError("Newton polish did not converge")


def mpf_gershgorin(diag, offsq) -> tuple:
    """(lo, hi), the Gershgorin interval of the Jacobi matrix, by mpf at the ambient precision."""
    beta = [mp.mpf(0)] + [mp.sqrt(v) for v in offsq] + [mp.mpf(0)]
    lo = min(d - (beta[i] + beta[i + 1]) for i, d in enumerate(diag))
    return lo, max(d + (beta[i] + beta[i + 1]) for i, d in enumerate(diag))


def mpf_frame(family, n: int, policy) -> tuple:
    """The set-up of the degree-n member's spectrum in mpf arithmetic: the oracle of ``families._jacobi_frame``, which
    forms it on kernel pairs with these roundings.

    (lo, hi, spread, tiny, width, unit, centre, widen, scale, fdiag, foffsq) in its order, mpf values up to
    widen, then frexp's exponent of the spread and the shifted and scaled matrix as doubles by ``float``.
    """
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        diag, offsq = C[1 : n + 1], L[2 : n + 1]
        with mp.workprec(64):
            lo, hi = mpf_gershgorin([+c for c in diag], [+v for v in offsq])
            unit = min(hi - lo, 1)
            pad = (hi - lo) * mp.mpf("0.001")
            lo, hi = lo - pad, hi + pad
            spread = hi - lo
            tiny = mp.ldexp(spread or abs(hi), -120)
            width = spread * mp.ldexp(1, -44)
        if not spread:  # 64 bits see one point: cells stop at 2**-44 of the Gershgorin spread at working precision
            lo_wp, hi_wp = mpf_gershgorin(diag, offsq)
            width = mp.ldexp(hi_wp - lo_wp, -44)
        widen = width + mp.ldexp(max(abs(lo), abs(hi)), -60)
        centre = (lo + hi) / 2
        scale = mp.frexp(spread)[1]
        fdiag = [float(mp.ldexp(d - centre, -scale)) for d in diag]
        foffsq = [float(mp.ldexp(v, -2 * scale)) for v in offsq]
        return lo, hi, spread, tiny, width, mp.mpf(unit), centre, widen, scale, fdiag, foffsq


def mpf_zeros(family, n: int, policy) -> tuple:
    """The zeros zeros._Spectrum gives, by mpf bisection with 64-bit Sturm counts at every midpoint and mpf Newton."""
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        diag, offsq = C[1 : n + 1], L[2 : n + 1]
        if n == 1:
            return (diag[0],)
        lo, hi, spread, tiny, width, unit, centre, reach, e, fdiag, foffsq = mpf_frame(family, n, policy)
        width, reach = width._mpf_, reach._mpf_
        with mp.workprec(64):
            d64, o64 = [+c for c in diag], [+v for v in offsq]
        tiny_wp = mp.ldexp(tiny, -mp.prec)
        # float counts on the shifted, scaled matrix where they agree at
        # x -/+ _BAND, which is the 64-bit count there, else the 64-bit count
        def count64(x):
            xs = to_float(mpf_shift(mpf_sub(x, centre._mpf_, 64, round_nearest), -e))
            below = _count_below(fdiag, foffsq, xs - _BAND, _TINY)
            if below == _count_below(fdiag, foffsq, xs + _BAND, _TINY):
                return below
            with mp.workprec(64):
                return mpf_count_below(d64, o64, mp.make_mpf(x), tiny)

        def count_wp(x):
            return mpf_count_below(diag, offsq, mp.make_mpf(x), tiny_wp)

        brackets = []
        for a, b, ca, cb in mpf_isolate(count64, lo._mpf_, hi._mpf_, 0, n, width, 64):
            if cb - ca == 1:
                brackets.append((a, b))
                continue
            a = mpf_sub(a, reach, mp.prec, round_nearest)
            b = mpf_add(b, reach, mp.prec, round_nearest)
            for u, v, cu, cv in mpf_isolate(count_wp, a, b, count_wp(a), count_wp(b), width, mp.prec):
                brackets += [(u, v)] * max(0, min(cv, cb) - max(cu, ca))
        assert len(brackets) == n
        return tuple(sorted(mpf_polish(family, n, mp.make_mpf(a), mp.make_mpf(b), policy, unit) for a, b in brackets))


# -- the interlacing rule and its q on mpf values -------------------------------------
#
# zeros.interlace_strict forms q = G g on kernel pairs and decides on them;
# these are the mpf rule and the mpf q they replaced.


def mpf_is_zero(value, slope, x, unit, policy) -> bool:
    """x is a zero at tolerance: the Newton step |value/slope| is within abs_tol * max(unit, |x|)."""
    return abs(value) <= policy.abs_tol * max(unit, abs(x)) * abs(slope)


def mpf_interlace_strict(q: dict, g: dict, degree: int, outer, policy) -> tuple:
    """(strict, common) by the mpf rule, for q mapping an mpf x to q(x) and g mapping it to (g(x), g'(x)): common
    where q is 0 or g passes the zero test at the unit min(1, x_n - x_1)."""
    xs = tuple(sorted(to_scalar(v) for v in outer))
    assert degree == len(xs) - 1
    with policy.workprec():
        unit = min(1, xs[-1] - xs[0])
        common = tuple(x for x in xs if not q[x] or mpf_is_zero(*g[x], x, unit, policy))
        alternates = all(q[u] * q[w] < 0 for u, w in zip(xs, xs[1:]))
        return alternates and not common, common


def mpf_g(shifted, d: int, xs, policy) -> dict:
    """{x: (g(x), g'(x))} for g = g_{d,k}, by ``eval_with_derivative`` of the shifted family."""
    with policy.workprec():
        return {x: eval_with_derivative(shifted, d, x, policy) for x in xs}


def mpf_grid_q(G: Polynomial, g: dict, policy) -> dict:
    """{x: q(x)} for q = G g, with g from :func:`mpf_g`: G by the mpf Horner loop."""
    with policy.workprec():
        return {x: poly_horner(G.coeffs, x) * v for x, (v, _) in g.items()}


def assert_grid_q_is_the_mpf_route(lam, phi, bits: int, n_max: int) -> int:
    """For every ``--grid`` cell of MP(lam, phi) at ``bits`` that decides interlacing (deg G = m - 1),
    the kernel q that ``interlace_strict`` forms (``zeros._q_at``) at the zeros of p_n against
    :func:`mpf_grid_q`, bit for bit, and its verdict against :func:`mpf_interlace_strict`; returns the
    number of cells."""
    policy = TolerancePolicy(precision_bits=bits)
    family = mp_family(lam, phi, policy)
    cells = 0
    for n in range(4, n_max + 1):
        zp = zeros_golub_welsch(family, n, policy)
        for m in range(2, n + 1):
            for k in range(0, m + 3):
                G = connection_decompose(family, even_modifier(family, k, policy), n, m, policy).G_poly
                if G.degree != m - 1:
                    continue
                shifted, d = family.shifted(k), n - m
                g = [_sweep(shifted.kernel_rows(d, bits), d, *p, bits) for p in zp.points]
                theirs_g = mpf_g(shifted, d, zp.values, policy)
                theirs = mpf_grid_q(G, theirs_g, policy)
                ours = _q_at(G, g, zp.points, bits)
                assert [_to_mpf(*v)._mpf_ for v in ours] == [theirs[x]._mpf_ for x in zp.values], (n, m, k)
                verdict = interlace_strict(G, g, d, zp, policy)
                assert (verdict.strict, verdict.common) == mpf_interlace_strict(theirs, theirs_g, n - 1, zp, policy), (n, m, k)
                cells += 1
    return cells


# -- the double certificate of interlace_strict against its exact route ------------------


def _declining(G, g, outer, abs_tol, unit) -> list:
    return [0] * len(outer)


def exact_verdict(G, g, degree, outer, policy):
    """``interlace_strict``'s verdict with the double certificate declining at every zero, so that each takes ``_q_at``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_decided", _declining)
        return interlace_strict(G, g, degree, outer, policy)


def assert_certificate_agrees(calls) -> int:
    """For each ``interlace_strict`` call (G, g, degree, outer, policy): every sign ``zeros._decided`` gives
    is the sign of ``_q_at``'s q there, where ``_is_zero`` is False for g's row, and the verdict is
    :func:`exact_verdict`.  Returns the number of zeros the certificate leaves to ``_q_at``."""
    left = 0
    for G, g, degree, outer, policy in calls:
        unit = _unit(outer.points, policy.precision_bits)
        signs = zeros._decided(G, g, outer, policy.abs_tol, unit)
        for s, (qm, _), row, x in zip(signs, _q_at(G, g, outer.points, policy.precision_bits), g, outer.points):
            assert not s or (s * qm > 0 and not _is_zero(*row, *x, unit, policy)), (G, _to_mpf(*x))
        left += signs.count(0)
        assert interlace_strict(G, g, degree, outer, policy) == exact_verdict(G, g, degree, outer, policy)
    return left


def _report(argv) -> tuple:
    """(exit code, stdout without meta.timestamp) of ``cli.main(argv)``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, re.sub(r'"timestamp": \{[^}]*\}', "", out.getvalue())


def certified_and_exact_reports(argv) -> tuple:
    """(report, report with every zero on the exact route, zeros the certificate left open) of a CLI run,
    each report an (exit code, stdout without meta.timestamp); every interlacing call of the first run
    passes :func:`assert_certificate_agrees`."""
    calls, interlace = [], zeros.interlace_strict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "interlace_strict", lambda *args: calls.append(args) or interlace(*args))
        certified = _report(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeros, "_decided", _declining)
        exact = _report(argv)
    return certified, exact, assert_certificate_agrees(calls)


def bound_families(policy) -> list:
    """(label, family builder, degrees) for the bound-separation oracle: the paper's families, and W+31's
    recurrence with MP(0.5, 0.9)'s paper facts for its bounds, whose top pair 64-bit midpoints leave in one cell."""
    with policy.workprec():
        right_angle = mp.pi / 2

    def w31(pol):
        row = custom_family(lambda j: mp.mpf(abs(15 - (j - 1))), lambda j: mp.mpf(1)).row
        return dataclasses.replace(mp_family("0.5", "0.9", pol), row=row, label="W+31")

    return [
        ("MP(0.5,0.9)", lambda pol: mp_family("0.5", "0.9", pol), (2, 3, 12, 30)),
        ("MP(0.5,pi/2)", lambda pol: mp_family("0.5", right_angle, pol), (2, 3, 12, 30)),
        ("PJ(-5.5,0)", lambda pol: pj_family("-5.5", 0, pol), (2, 3)),
        ("PJ(-35,8)", lambda pol: pj_family(-35, 8, pol), (2, 3, 12, 30)),
        ("W+31", w31, (31,)),
    ]


def assert_bound_extremes_are_the_full_solve(family, n: int, policy) -> str:
    """bound_separation's x_min and x_max on a fresh ``family(policy)`` are bit for bit the end zeros
    zeros_golub_welsch gives on another, or both raise the same error.

    Returns "raises", "full solve" when bound_separation fell back to it, or "extremes" when it
    polished only those; the full solve that then finishes the spectrum gives the fresh family's
    zeros bit for bit too.
    """
    fam = family(policy)
    try:
        zs = zeros_golub_welsch(family(policy), n, policy)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            bound_separation(fam, n, policy)
        assert str(raised.value) == str(exc)
        return "raises"
    report = bound_separation(fam, n, policy)
    assert (report.x_min._mpf_, report.x_max._mpf_) == (zs[0]._mpf_, zs[-1]._mpf_)
    route = "extremes" if fam.owned(("spectrum", n, policy.precision_bits), pytest.fail).all is None else "full solve"
    assert [z._mpf_ for z in zeros_golub_welsch(fam, n, policy).values] == [z._mpf_ for z in zs.values]
    return route


def solved_span_label(fam, n: int, policy, m: int = 2, k: int = 3) -> str:
    """The grid's label of a cell with deg G != m - 1 (the m = 2, k = 3 cells) from solved zeros: g's by the
    zero solver, G's by polyroots; a G with nonreal roots is named by their number."""
    decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
    g_roots, nonreal = polynomial_real_roots(decomp.G_poly, policy)
    if nonreal:
        return f"fails({nonreal} nonreal G roots)"
    product = list(zeros_golub_welsch(fam.shifted(k), n - m, policy).values) + g_roots
    zp = zeros_golub_welsch(fam, n, policy)
    with policy.workprec():
        outside = sum(1 for v in product if v < zp[0] or v > zp[-1])
    return f"fails(size {len(product)} vs {n - 1}, {outside} outside span)"


# -- the identity residuals and orthogonality sums on mpf values -------------------
#
# The four identity residuals and --verify's two orthogonality suites run on kernel pairs; these are
# the mpf bodies they replaced, kept as the oracle their bits are checked against.


def mpf_relative_residual(total, terms) -> mp.mpf:
    """abs(total) / max(abs(t) for t in terms), or abs(total) when every term is 0, at the ambient precision."""
    scale = max((abs(t) for t in terms), default=mp.mpf(0))
    if scale == 0:
        return abs(mp.mpf(total)) if total else mp.mpf(0)
    return abs(total) / scale


def mpf_recurrence_residual(family, n: int, x, policy) -> mp.mpf:
    with policy.workprec():
        x = _to_mpf(*_point(x, policy))
        ladder = _ladder(family, n, policy.precision_bits)
        cm, ce, lm, le = family.kernel_rows(n, policy.precision_bits)[n]
        t1 = ladder[n](x)
        t2 = (x - _to_mpf(cm, ce)) * ladder[n - 1](x)
        t3 = _to_mpf(lm, le) * ladder[n - 2](x)
        return mpf_relative_residual(t1 - t2 + t3, (t1, t2, t3))


def mpf_associated_identity_residual(family, n: int, m: int, x, policy) -> mp.mpf:
    with policy.workprec():
        x = _to_mpf(*_point(x, policy))
        ladder = _ladder(family, n, policy.precision_bits)
        rows = family.kernel_rows(n, policy.precision_bits)
        prefix = mp.mpf(1)
        for t in range(n - m + 2, n + 1):
            prefix *= _to_mpf(*rows[t][2:])
        t1 = prefix * ladder[n - m](x)
        t2 = associated(family, n, m - 1, policy)(x) * ladder[n - 1](x)
        t3 = associated(family, n - 1, m - 2, policy)(x) * ladder[n](x)
        return mpf_relative_residual(t1 - t2 + t3, (t1, t2, t3))


def mpf_extension_identity_residual(family, n: int, m: int, x, policy) -> mp.mpf:
    with policy.workprec():
        x = _to_mpf(*_point(x, policy))
        ladder = _ladder(family, n + m, policy.precision_bits)
        t1 = ladder[n + m](x)
        t2 = associated(family, n + m, m, policy)(x) * ladder[n](x)
        if m == 0:
            t3 = mp.mpf(0)
        else:
            lm, le = family.kernel_rows(n + 1, policy.precision_bits)[n + 1][2:]
            t3 = _to_mpf(lm, le) * associated(family, n + m, m - 1, policy)(x) * ladder[n - 1](x)
        return mpf_relative_residual(t1 - t2 + t3, (t1, t2, t3))


def mpf_symmetry_residual(family, n: int, x, policy) -> mp.mpf:
    """mp_symmetry_residual on mpf values, with a mirror family of its own."""
    row = family.row
    mirror = RecurrenceFamily(CUSTOM, {}, lambda j, prec: (-row(j, prec)[0], *row(j, prec)[1:]), None, "mirror")
    with policy.workprec():
        x = _to_mpf(*_point(x, policy))
        lhs = generate(family, n, policy)(x)
        rhs = generate(mirror, n, policy)(-x)
        if n % 2:
            rhs = -rhs
        return mpf_relative_residual(lhs - rhs, (lhs, rhs))


def mpf_gauss_orthogonality(family, n: int, policy) -> mp.mpf:
    """--verify's gauss-orthogonality loop on mpf values."""
    nodes, weights = gauss_rule(family, n, policy)
    with policy.workprec():
        ladder = generate_all(family, n - 1, policy)
        vals = [[p(x) for x in nodes.values] for p in ladder]
        norms = [sum(w * v * v for v, w in zip(vals[j], weights)) for j in range(n)]
        worst = mp.mpf(0)
        for j in range(n):
            for l in range(j):
                s = sum(w * a * b for a, b, w in zip(vals[j], vals[l], weights))
                worst = max(worst, abs(s) / mp.sqrt(norms[j] * norms[l]))
    return worst


def mpf_modified_orthogonality(family, modifier, polys, n: int, policy) -> mp.mpf:
    """--verify's transform-discrete-orthogonality loop on mpf values."""
    with policy.workprec():
        nodes, weights = gauss_rule(family, n, policy)
        cs = list(map(modifier.c, nodes.values))
        gs = [[g(x) for x in nodes.values] for g in polys]
        worst = mp.mpf(0)
        for j in range(len(gs)):
            for l in range(j):
                s = sum(w * c * a * b for w, c, a, b in zip(weights, cs, gs[j], gs[l]))
                norm = sum(w * c * a**2 for w, c, a in zip(weights, cs, gs[j]))
                worst = max(worst, abs(s) / norm)
    return worst
