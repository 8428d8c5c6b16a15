"""Coefficient-level helpers that only the tests need."""

from __future__ import annotations

from mpmath import mp
from mpmath.libmp import mpf_add, mpf_le, mpf_shift, mpf_sub, round_nearest, to_float

from christoffel import Polynomial, eval_with_derivative
from christoffel.zeros import _BAND, _TINY, _count_below


def coeff(p: Polynomial, i: int) -> mp.mpf:
    """Coefficient of x**i in p (zero beyond the degree)."""
    return p.coeffs[i] if 0 <= i < len(p.coeffs) else mp.mpf(0)


def max_rel_coeff_diff(p: Polynomial, q: Polynomial) -> mp.mpf:
    """Coefficientwise deviation of p from q, relative to max(1, ||q||_inf)."""
    scale = max(q.inf_norm(), mp.mpf(1))
    return (p - q).inf_norm() / scale


def schoolbook_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q by the schoolbook loop on mpf values at the ambient precision."""
    if p.is_zero() or q.is_zero():
        return Polynomial()
    out = [mp.mpf(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Polynomial(out)


# -- the zero solver on mpf values ----------------------------------------------
#
# zeros._solve runs its bisection and Newton steps on kernel pairs; these are
# the mpf loops it replaced, kept as the oracle its bits are checked against.


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


def mpf_zeros(family, n: int, policy) -> tuple:
    """The zeros zeros._solve gives, by mpf bisection with 64-bit Sturm counts at every midpoint and mpf Newton."""
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        diag, offsq = C[1 : n + 1], L[2 : n + 1]
        if n == 1:
            return (diag[0],)
        with mp.workprec(64):
            d64, o64 = [+c for c in diag], [+v for v in offsq]
            beta = [mp.mpf(0)] + [mp.sqrt(v) for v in o64] + [mp.mpf(0)]
            lo = min(d - (beta[i] + beta[i + 1]) for i, d in enumerate(d64))
            hi = max(d + (beta[i] + beta[i + 1]) for i, d in enumerate(d64))
            unit = min(hi - lo, 1)
            pad = (hi - lo) * mp.mpf("0.001")
            lo, hi = lo - pad, hi + pad
            spread = hi - lo
            tiny = mp.ldexp(spread or abs(hi), -120)
            width = (spread * mp.ldexp(1, -44))._mpf_
        reach = (mp.make_mpf(width) + mp.ldexp(max(abs(lo), abs(hi)), -60))._mpf_
        tiny_wp = mp.ldexp(tiny, -mp.prec)
        # float counts on the shifted, scaled matrix where they agree at
        # x -/+ _BAND, which is the 64-bit count there, else the 64-bit count
        centre = (lo + hi) / 2
        e = mp.frexp(spread)[1]
        fdiag = [float(mp.ldexp(d - centre, -e)) for d in diag]
        foffsq = [float(mp.ldexp(v, -2 * e)) for v in offsq]

        def count64(x):
            xs = to_float(mpf_shift(mpf_sub(x, centre._mpf_, 64, round_nearest), -e))
            below = _count_below(fdiag, foffsq, xs - _BAND, _TINY)
            if below == _count_below(fdiag, foffsq, xs + _BAND, _TINY):
                return below
            with mp.workprec(64):
                return _count_below(d64, o64, mp.make_mpf(x), tiny)

        def count_wp(x):
            return _count_below(diag, offsq, mp.make_mpf(x), tiny_wp)

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
