"""Zeros, Gauss rules, interlacing verdicts and inner bounds for extreme zeros.

Zeros of the degree-n family member are the eigenvalues of the symmetric
tridiagonal Jacobi matrix with diagonal C(1..n) and off-diagonal
sqrt(Lambda(2..n)).  They are isolated by bisection on the Sturm negative
pivot count (which needs only the Lambda values, no square roots), counted
in Python floats on the shifted and power-of-two scaled matrix, and then
polished by safeguarded Newton iteration at working precision on the
recurrence evaluation of p_n; only zeros closer than the bisection's 64-bit
midpoints resolve are bisected at working precision.  Once a cell holds a
single zero, one eigenvalue computed in doubles and certified by two counts
decides the counts at the cell's later midpoints (the argument is next to
``_BAND``), so the cells, and every polished bit, are those of counting at
each midpoint.  Midpoints and Newton iterates are kernel pairs of
:mod:`christoffel.core` (an integer mantissa and an exponent), rounded as the
mpf operations they replace would round them, and Newton evaluates p_n with
the recurrence sweep of :mod:`christoffel.families` on those pairs; a zero
becomes an mpf once, when it is polished.  Eigenvalues of a symmetric
tridiagonal are perfectly conditioned; root-finding on monic coefficients
at n = 30 is not, which is why the coefficients are never touched here.

Interlacing is decided in one place, :func:`interlace_strict`, by the sign
alternation of q = G g at the already computed zeros of p_n, formed on kernel
pairs from G and g's sweep rows there, for the grid and :func:`stieltjes_check`
alike; no zero of q is solved for.  General root finding
(:func:`polynomial_real_roots`) only names failures, such as nonreal roots of
a connection coefficient; when it does not converge it raises
``ArithmeticError`` instead of retrying.

The inner bounds B_n(k), k in {0, 1, 2}, are the roots of the linear
connection coefficient G in the gap-2 decomposition; they sit strictly
between the extreme zeros of p_n.  :func:`inner_bound` evaluates the closed
forms from a family's parameters:

    Meixner-Pollaczek: B_n(k) = -(lam)_k (lam)_n / ((lam)_{n+k-1} tan(phi)),
    evaluated in cancelled form (no large Pochhammer ratios):
        B_n(0) = -(lam+n-1) cot(phi)
        B_n(1) = -lam cot(phi)
        B_n(2) = -lam (lam+1) cot(phi) / (lam+n)

    Pseudo-Jacobi:
        B_n(0) = -a b / ((a+n)(a+n-1))
        B_n(1) = -b / (a+n)
        B_n(2) = -b / (a+1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mpmath import mp

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy
from .core import _add, _cmp, _div, _horner, _round, _to_mpf, _unpack  # the exact-rounding kernel
from .families import MEIXNER_POLLACZEK, PSEUDO_JACOBI, RecurrenceFamily, _point, _snapped_cot, _sweep


@dataclass(frozen=True)
class ZeroSet:
    """Strictly ascending real zeros of one family member, and the same zeros as kernel pairs in ``points``."""

    values: tuple
    label: str
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(_unpack(x._mpf_) for x in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class InterlaceVerdict:
    """strict: q alternates in sign over the outer zeros; common: outer zeros that are zeros of q."""

    strict: bool
    common: tuple = ()


@dataclass(frozen=True)
class BoundReport:
    n: int
    bounds: dict
    x_min: mp.mpf
    x_max: mp.mpf
    separated: dict
    ordering_ok: bool
    label: str


@dataclass(frozen=True)
class StieltjesVerdict:
    """Outcome of the gap-2 interlacing check against the modified sequence.

    ``branch`` is "coprime" when p_n and g_{n-2,k} share no zero, otherwise
    "common_zero".  ``violations`` lists every failed assertion; an instance
    never passes silently.
    """

    label: str
    n: int
    k: int
    branch: str
    bound: mp.mpf
    ok: bool
    common: tuple = ()
    violations: tuple = ()


# Sturm counts in doubles on the shifted, scaled Jacobi matrix, whose entries
# are below 1/2 in size, are exact counts of a matrix within about 2**-51 of
# it (Kahan's backward error bound plus the roundings to double), so no
# eigenvalue lies within this band of x when the counts at x -/+ _BAND agree.
# _ETA bounds that distance with room for the roundings of the comparisons
# against _enclose's bounds.  By Weyl's theorem it also certifies an eigenvalue: counts
# below k at u and at least k at v put eigenvalue k in [u - _ETA, v + _ETA]
# (Kahan 1966; Barth, Martin & Wilkinson 1967), and at a point more than
# _BAND + _ETA outside that enclosure both float counts of a 64-bit count
# fall on the same side of eigenvalue k, which decides its clamped value.
_BAND = 2.0**-49
_ETA = 2.0**-50
_TINY = 2.0**-120  # stands in for a zero pivot in double counts

# Newton iterations allowed per zero; from a 2**-44 bracket it needs four.
_POLISH_CAP = 150


def _count_below(diag, offsq, x, tiny):
    """Eigenvalues of the Jacobi matrix strictly below x (Sturm pivot count).

    Runs in the arithmetic of its arguments: Python floats or mpf.
    """
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


def _enclose(fdiag, foffsq, lo, hi, k):
    """(u, v): a 64-bit count at a scaled point below u clamps to k - 1, above v to k.

    (lo, hi) is the cell of eigenvalue k (from 1), in scaled doubles.
    Safeguarded Newton on det(T - x) = prod d_j over the Sturm pivots, whose
    log-derivative is sum d_j'/d_j with d_j' = -1 + o_{j-1} d_{j-1}'/d_{j-1}**2:
    the pivot count narrows the cell, an iterate outside it is replaced by
    its midpoint, and a step below 2**-45 ends it (quadratic convergence
    leaves the limit far closer).  Counts at the limit -/+ _ETA certify it;
    (u, v) is that enclosure widened by _BAND + _ETA (see _BAND), or
    (-inf, inf), which decides no count, when 60 steps give no certificate.
    """
    x = (lo + hi) / 2
    for _ in range(60):
        below, s, d, dd = 0, 0.0, 1.0, 0.0
        for a, o in zip(fdiag, (0.0, *foffsq)):
            q = o / d
            d, dd = (a - x) - q or -_TINY, q * dd / d - 1.0  # a zero pivot counts as negative
            below += d < 0
            s += dd / d
        lo, hi = (lo, x) if below >= k else (x, hi)
        xn = x - 1 / s if s else x
        if abs(xn - x) <= 2.0**-45:
            m = _BAND + 3 * _ETA  # the enclosure's half-width 2 _ETA, plus _BAND + _ETA
            if _count_below(fdiag, foffsq, xn - _ETA, _TINY) < k <= _count_below(fdiag, foffsq, xn + _ETA, _TINY):
                return xn - m, xn + m
            break
        x = xn if lo < xn < hi else (lo + hi) / 2
    return -math.inf, math.inf


def _gershgorin(diag, offsq):
    """(lo, hi), the Gershgorin interval of the Jacobi matrix, at the current precision."""
    beta = [mp.mpf(0)] + [mp.sqrt(v) for v in offsq] + [mp.mpf(0)]
    lo = min(d - (beta[i] + beta[i + 1]) for i, d in enumerate(diag))
    return lo, max(d + (beta[i] + beta[i + 1]) for i, d in enumerate(diag))


def _isolate(count, a, b, ca, cb, width, prec):
    """Ascending brackets (a, b, ca, cb) of the eigenvalues in [a, b), by bisection.

    a, b and ``width`` are kernel pairs (m, e), and midpoints are rounded
    to ``prec`` bits.  Kernel pairs are not normalised, so ends and widths
    are compared by value.  ``ca`` and ``cb`` are the Sturm counts at a and
    b, so a bracket holds the eigenvalues of index ca+1..cb; ``count(x, ca,
    cb)`` returns the count at the bracket's midpoint x, or any number that
    clamps to the same value in [ca, cb].  A bracket stops once it is no
    wider than ``width`` and holds exactly one eigenvalue, or once its
    midpoint rounds to an end, so only a cluster closer than ``prec`` bits
    resolve stops holding more than one.
    """
    out = []
    todo = [(a, b, ca, cb)] if ca < cb else []
    while todo:
        a, b, ca, cb = todo.pop()
        (am, ae), (bm, be) = a, b
        mm, me = _add(am, ae, bm, be, prec)
        mid = mm, me - 1
        if (cb - ca == 1 and _cmp(*_add(bm, be, -am, ae, prec), *width) <= 0) or not (
            _cmp(*mid, am, ae) and _cmp(*mid, bm, be)
        ):
            out.append((a, b, ca, cb))
            continue
        cm = min(max(count(mid, ca, cb), ca), cb)
        if cm < cb:
            todo.append((mid, b, cm, cb))
        if ca < cm:
            todo.append((a, mid, ca, cm))
    return out


def _polish(family, n, lo, hi, prec, unit):
    """Newton on p_n from the centre of the isolating bracket (lo, hi), at ``prec`` bits.

    The bracket is already a few dozen bits wide, so plain Newton converges
    quadratically; iterates are merely clamped to an inflated copy of the
    bracket.  Termination is on the step size reaching the precision floor,
    not on sign tests, which become meaningless roundoff at the end; steps
    are measured relative to max(unit, |x|).  Running out of iterations
    raises ``ArithmeticError``.

    lo, hi and ``unit`` are kernel pairs, and so is every iterate: a step is
    the sweep of :mod:`christoffel.families`, ``_div`` and ``_add``, the mpf
    operations of the same loop on mpf values, and every test is an exact
    comparison, so the zero, made an mpf once, has the same bits.
    """
    rows = family.kernel_rows(n, prec)
    (lm, le), (hm, he), (um, ue) = lo, hi, unit
    # w0 = max(hi - lo, max(unit, |lo|) 2**-prec); eps_stop = 2**(8 - prec)
    wm, we = _add(hm, he, -lm, le, prec)
    fm, fe = (um, ue) if _cmp(um, ue, abs(lm), le) >= 0 else (abs(lm), le)
    if _cmp(fm, fe - prec, wm, we) > 0:
        wm, we = fm, fe - prec
    x_min = _add(lm, le, -wm, we, prec)
    x_max = _add(hm, he, wm, we, prec)
    xm, xe = _add(lm, le, hm, he, prec)
    xe -= 1
    floor_step = wm, we - 16
    prev_step = None
    for _ in range(_POLISH_CAP):
        pm, pe, dm, de = _sweep(rows, n, xm, xe, prec)
        if not pm or not dm:
            return _to_mpf(xm, xe)
        qm, qe = _div(pm, pe, dm, de, prec)
        nm, ne = _add(xm, xe, -qm, qe, prec)
        if _cmp(nm, ne, *x_min) < 0:
            nm, ne = x_min
        elif _cmp(nm, ne, *x_max) > 0:
            nm, ne = x_max
        sm, se = _add(nm, ne, -xm, xe, prec)
        sm = abs(sm)
        bm, be = (um, ue) if _cmp(um, ue, abs(nm), ne) >= 0 else (abs(nm), ne)
        if _cmp(sm, se, bm, be + 8 - prec) <= 0:
            return _to_mpf(nm, ne)
        if prev_step is not None and _cmp(sm, se, *prev_step) >= 0 and _cmp(*prev_step, *floor_step) <= 0:
            return _to_mpf(xm, xe)
        prev_step = sm, se
        xm, xe = nm, ne
    raise ArithmeticError(
        f"Newton polish of a zero of {family.label} degree {n} did not converge in "
        f"{_POLISH_CAP} iterations on the bracket [{mp.nstr(_to_mpf(*lo), 20)}, {mp.nstr(_to_mpf(*hi), 20)}]"
    )


class _Spectrum:
    """A member's zeros, kept by its family: the cells of :func:`_spectrum`, cell i (from 0) finished by
    ``finish(family, i)`` on request, and ``all``, the ascending :class:`ZeroSet` once :meth:`zeros` has built it.

    Eigenvalue i + 1 lies in centre + 2**scale (u, v) for ``boxes[i]`` = (u, v), (-inf, inf) in a cluster, and its
    polished zero within ``reach`` of it.  The family that keeps the spectrum is passed in: kept, it would make a
    reference cycle."""

    def __init__(self, finish, boxes, centre, scale, reach):
        self.finish, self.boxes, self.centre, self.scale, self.reach, self.polished = finish, boxes, centre, scale, reach, {}
        self.all = None

    def zero(self, family: RecurrenceFamily, i: int) -> mp.mpf:
        if i not in self.polished:
            self.polished[i] = self.finish(family, i)
        return self.polished[i]

    def zeros(self, family: RecurrenceFamily) -> ZeroSet:
        """All n zeros, ascending: every cell finished, sorted once and kept."""
        if self.all is None:
            self.all = ZeroSet(tuple(sorted(self.zero(family, i) for i in range(len(self.boxes)))), family.label)
        return self.all

    def extremes(self, family: RecurrenceFamily, policy: TolerancePolicy):
        """(zero 1, zero n) if the boxes prove that the full solve passes its simple-zero check and both
        zeros lie in their boxes, else None.  Neighbouring boxes (u, v), (u', v') pass it when 2**scale (u' - v),
        less 2 ``reach`` for the zeros' distances from the eigenvalues and 2 more for roundings, beats abs_tol
        times max(1, |centre| + 2**scale), which bounds the check's max(unit, |x|, |y|) for any zeros x, y."""
        gap = min(u - v for (_, v), (u, _) in zip(self.boxes, self.boxes[1:]))
        with policy.workprec():
            size = max(1, abs(self.centre) + mp.ldexp(1, self.scale))
            if not mp.ldexp(gap, self.scale) - 4 * self.reach > policy.abs_tol * size:
                return None
            ends = self.zero(family, 0), self.zero(family, len(self.boxes) - 1)
            if all(u <= mp.ldexp(x - self.centre, -self.scale) <= v for x, (u, v) in zip(ends, self.boxes[:: len(self.boxes) - 1])):
                return ends
        return None


def _spectrum(family: RecurrenceFamily, n: int, policy: TolerancePolicy) -> _Spectrum:
    """The spectrum of the degree-n member (n >= 2): Sturm bisection with counts in doubles, Newton on request.

    The brackets are cells of a bisection of the padded Gershgorin interval
    down to 2**-44 of its width, with midpoints rounded to 64 bits.  Newton's
    last bits depend on where it starts, and reports print roundoff-level
    residuals, so these cells stay fixed however the counts are done.  The
    counts run in doubles on the Jacobi matrix shifted by its Gershgorin
    midpoint and scaled by a power of two at working precision, which fits
    any recurrence mpf holds; a count is redone at 64 bits only when an
    eigenvalue lies within ``_BAND`` of the midpoint.  In a cell holding one
    zero, its certified enclosure from :func:`_enclose` gives the count
    without counting, except at a midpoint within ``_BAND + _ETA`` of it (the
    argument is next to ``_BAND``).  A cell that 64-bit midpoints cannot
    split into single zeros is bisected again at working precision.

    Here the bisection stops once each cell holds one zero, which gets its
    enclosure; the spectrum bisects a cell on and polishes it on request.  A
    cell's bisection does not depend on its siblings', nor do its bits.

    From the cells to the polished zeros everything runs on kernel pairs
    (m, e) of :mod:`christoffel.core`, with the roundings of the mpf loop it
    replaces: midpoints, widths and Newton steps are ``_add``, ``_div`` and
    the recurrence sweep, tests are exact comparisons (``_cmp``), and a
    point enters the double counts as the mpf ``to_float`` would give it,
    its 64-bit offset from the centre cut toward zero to 53 bits.  Only the
    64-bit recounts and the working-precision counts see mpf values.
    """
    prec = policy.precision_bits
    C, L = family.recurrence(n, prec)
    with policy.workprec():
        diag = C[1 : n + 1]
        offsq = L[2 : n + 1]
        with mp.workprec(64):
            d64 = [+c for c in diag]
            o64 = [+v for v in offsq]
            lo, hi = _gershgorin(d64, o64)
            # Newton's step floors are relative to max(unit, |x|): unit is 1,
            # or the Gershgorin width of a smaller spectrum.
            unit = min(hi - lo, 1)
            pad = (hi - lo) * mp.mpf("0.001")
            lo -= pad
            hi += pad
            spread = hi - lo
            tiny = mp.ldexp(spread or abs(hi), -120)
            width = spread * mp.ldexp(1, -44)
        if not spread:  # 64 bits see one point: cells stop at 2**-44 of the spread at working precision
            lo_wp, hi_wp = _gershgorin(diag, offsq)
            width = mp.ldexp(hi_wp - lo_wp, -44)
        centre = (lo + hi) / 2
        scale = mp.frexp(spread)[1]
        fdiag = [float(mp.ldexp(d - centre, -scale)) for d in diag]
        foffsq = [float(mp.ldexp(v, -2 * scale)) for v in offsq]
        cm, ce = _unpack(centre._mpf_)

        def scaled(x):
            # to_float of the 64-bit x - centre: cut toward zero to 53 bits
            m, e = _add(*x, -cm, ce, 64)
            k = abs(m).bit_length() - 53
            if k > 0:
                m, e = (m >> k if m > 0 else -(-m >> k)), e + k
            return math.ldexp(m, e - scale)

        def count64(x, ca, cb):
            xs = scaled(x)
            if cb - ca == 1:
                u, v = cells[ca][2]
                if not u <= xs <= v:
                    return ca if xs < u else cb
            below = _count_below(fdiag, foffsq, xs - _BAND, _TINY)
            if below >= cb:
                return below
            upto = _count_below(fdiag, foffsq, xs + _BAND, _TINY)
            if min(max(upto, ca), cb) == max(below, ca):
                return upto
            with mp.workprec(64):
                return _count_below(d64, o64, _to_mpf(*x), tiny)

        # A cell that 64-bit midpoints cannot split into single zeros is
        # bisected again at working precision.  64-bit counts are exact for a
        # matrix within about 2**-62 max(|lo|, |hi|) of this one, so the cell
        # is first widened past that reach, and only its own indices are kept.
        rm, rexp = _unpack((width + mp.ldexp(max(abs(lo), abs(hi)), -60))._mpf_)
        tiny_wp = mp.ldexp(tiny, -prec)
        width = _unpack(width._mpf_)

        def count_wp(x, *_):
            return _count_below(diag, offsq, _to_mpf(*x), tiny_wp)

        # (a, b, box): a one-zero cell (the spread stops them all) and its enclosure, or a cluster's bracket and None
        cells = []
        for a, b, ca, cb in _isolate(count64, _unpack(lo._mpf_), _unpack(hi._mpf_), 0, n, _unpack(spread._mpf_), 64):
            if cb - ca == 1:
                cells.append((a, b, _enclose(fdiag, foffsq, scaled(a), scaled(b), cb)))
                continue
            a, b = _add(*a, -rm, rexp, prec), _add(*b, rm, rexp, prec)
            for u, v, cu, cv in _isolate(count_wp, a, b, count_wp(a), count_wp(b), width, prec):
                cells += [(u, v, None)] * max(0, min(cv, cb) - max(cu, ca))
        if len(cells) != n:
            raise ArithmeticError(f"isolated {len(cells)} of the {n} zeros of {family.label} degree {n}")
        unit = _unpack(mp.mpf(unit)._mpf_)  # min(hi - lo, 1) may be the int 1

        def finish(family, i):
            a, b, box = cells[i]
            if box:
                [(a, b, _, _)] = _isolate(count64, a, b, i, i + 1, width, 64)
            return _polish(family, n, a, b, prec, unit)

        boxes = [box or (-math.inf, math.inf) for _, _, box in cells]
        # a polished zero lies within 2 rm of its eigenvalue: Newton keeps to its bracket widened
        # by the bracket's width, no more than rm, and 64-bit counts move an end by at most 2**-62 max(|lo|, |hi|)
        return _Spectrum(finish, boxes, centre, scale, 2 * _to_mpf(rm, rexp))


def zeros_golub_welsch(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> ZeroSet:
    """All n zeros of the degree-n member, ascending, at working precision.

    The zeros depend only on the precision, so they are solved once per
    (n, precision) and kept by the family, in its :class:`_Spectrum`; the
    simple-zero check runs on every call, under the caller's ``abs_tol``.
    Zeros out of order are a numerical failure (``ArithmeticError``); a gap
    no wider than ``abs_tol`` times max(unit, |u|, |v|) is the tolerance's
    fault (``ValueError``).  As in the Newton polish, the unit is 1, or the
    span of a smaller spectrum, so the check means the same at every scale.
    """
    family.require_degree(n)
    if n < 2:  # no off-diagonal: the zeros are the diagonal C(1..n), read on each call
        return ZeroSet(tuple(family.recurrence(n, policy.precision_bits)[0][1:]), family.label)
    zs = family.owned(("spectrum", n, policy.precision_bits), lambda: _spectrum(family, n, policy)).zeros(family)
    with policy.workprec():
        unit = min(1, zs.values[-1] - zs.values[0])
        for u, v in zip(zs.values, zs.values[1:]):
            gap = v - u
            if not gap > 0:
                raise ArithmeticError(
                    f"zeros of {family.label} degree {n} are not simple: "
                    f"{mp.nstr(u, 12)} vs {mp.nstr(v, 12)}"
                )
            scale = max(unit, abs(u), abs(v))
            if gap <= policy.abs_tol * scale:
                raise ValueError(
                    f"abs_tol {mp.nstr(policy.abs_tol, 6)} is at least the gap {mp.nstr(gap / scale, 6)} "
                    f"between two zeros of {family.label} degree {n}, relative to {mp.nstr(scale, 6)}"
                )
        return zs


def gauss_rule(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY):
    """Gauss nodes and weights for the family's weight, total mass normalised to 1.

    Weights come from the Christoffel function: w_i is the reciprocal of
    sum_j p_j(x_i)^2 / h_j over j < n with h_j the squared norms, which
    equals the squared-first-eigenvector-component formula without forming
    eigenvectors.
    """
    if n < 1:
        raise ValueError("Gauss rule needs n >= 1")
    nodes = zeros_golub_welsch(family, n, policy)
    prec = policy.precision_bits
    rows = family.kernel_rows(n, prec)
    with policy.workprec():
        # (C(j), L(j), h_j) for j = 1..n-1, with h_j = L(2) ... L(j + 1)
        # multiplied in that order; the loop below is the mpf loop
        # p_j = (x - C(j)) p_{j-1} - L(j) p_{j-2}, denom += p_j * p_j / h_j,
        # w = 1 / denom, with the same operations in the same order.  It runs
        # the recurrence itself: families._sweep's rows give the same bits but
        # also form p_j', which made two degree-48 rules 45 -> 58 ms.
        terms, hm, he = [], 1, 0
        for j in range(1, n):
            _, _, lm, le = rows[j + 1]
            hm, he = _round(hm * lm, he + le, prec)
            terms.append((*rows[j], hm, he))
        weights = []
        for xm, xe in nodes.points:
            pm, pe, qm, qe = 1, 0, 0, 0  # p_0, p_{-1}
            dm, de = 1, 0  # j = 0 term
            for cm, ce, lm, le, hm, he in terms:
                am, ae = _add(xm, xe, -cm, ce, prec)
                am, ae = _round(am * pm, ae + pe, prec)
                bm, be = _round(lm * qm, le + qe, prec)
                pm, pe, qm, qe = *_add(am, ae, -bm, be, prec), pm, pe
                dm, de = _add(dm, de, *_div(*_round(pm * pm, 2 * pe, prec), hm, he, prec), prec)
            weights.append(_to_mpf(*_div(1, 0, dm, de, prec)))
        total = sum(weights)
        return nodes, tuple(w / total for w in weights)


def _is_zero(vm, ve, dm, de, xm, xe, policy) -> bool:
    """x is a zero at tolerance: the Newton step |value/slope| is within abs_tol * max(1, |x|).

    On kernel pairs, the mpf test |value| <= abs_tol * max(1, |x|) * |slope| with its roundings
    (abs rounds too) and an exact comparison.
    """
    prec = policy.precision_bits
    tm, te = _unpack(policy.abs_tol._mpf_)
    xm, xe = _round(abs(xm), xe, prec)
    if _cmp(xm, xe, 1, 0) > 0:
        tm, te = tm * xm, te + xe
    tm, te = _round(tm, te, prec)
    dm, de = _round(abs(dm), de, prec)
    return _cmp(*_round(abs(vm), ve, prec), *_round(tm * dm, te + de, prec)) <= 0


def _q_at(G: Polynomial, g, points, prec: int) -> list:
    """(q(x), q'(x)) for q = G g at each of ``points``, kernel pairs: G, G' by Horner, G g and G' g + G g' as by mpf."""
    with mp.workprec(prec):
        G, dG = G._pairs, G.derivative()._pairs
    q = []
    for (xm, xe), (vm, ve, dm, de) in zip(points, g):
        gm, ge = _horner(G, xm, xe, prec)
        sm, se = _horner(dG, xm, xe, prec)
        tm, te = _round(sm * vm, se + ve, prec)
        q.append((*_round(gm * vm, ge + ve, prec), *_add(tm, te, *_round(gm * dm, ge + de, prec), prec)))
    return q


def interlace_strict(G: Polynomial, g, degree: int, outer: ZeroSet, policy: TolerancePolicy = DEFAULT_POLICY) -> InterlaceVerdict:
    """Whether the zeros of q = G g strictly interlace the zeros in ``outer``.

    g, of degree ``degree``, is its sweep rows: the kernel pairs (vm, ve, dm, de) of g(x) and
    g'(x) at each zero x of ``outer`` in order.  A q of degree len(outer) - 1 interlaces
    exactly when q(x_i) q(x_{i+1}) < 0 for every i (Markov's sign argument
    and its converse, Wendroff 1961), read off the mantissas' signs; for any
    other degree the signs prove nothing, so that raises ``ValueError``, as
    does a g without one row per zero.  Outer zeros that are zeros of q at tolerance
    (:func:`_is_zero`) are reported in ``common`` and make the verdict non-strict.
    """
    if len(g) != len(outer):
        raise ValueError(f"g needs one row per outer zero, {len(outer)}, got {len(g)}")
    if G.degree + degree != len(outer) - 1:
        raise ValueError(f"q must have degree {len(outer) - 1} to interlace {len(outer)} zeros, got {G.degree + degree}")
    vals = _q_at(G, g, outer.points, policy.precision_bits)
    common = tuple(x for x, p, v in zip(outer.values, outer.points, vals) if _is_zero(*v, *p, policy))
    alternates = all(u[0] * w[0] < 0 for u, w in zip(vals, vals[1:]))
    return InterlaceVerdict(strict=alternates and not common, common=common)


def inner_bound(family: RecurrenceFamily, n: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Inner bound B_n(k) for the extreme zeros of p_n, k in {0, 1, 2}, in closed form.

    The parameters were checked when the family was built; the degree is
    checked against its validity range, which is Pseudo-Jacobi's a < -n.
    """
    if k not in (0, 1, 2):
        raise ValueError("bound order k must be 0, 1 or 2")
    if n < 1:
        raise ValueError("bound needs n >= 1")
    family.require_degree(n)
    with policy.workprec():
        if family.kind == MEIXNER_POLLACZEK:
            lam, cot = family.params["lambda"], _snapped_cot(family.params["phi"])
            if k == 0:
                return -(lam + n - 1) * cot
            if k == 1:
                return -lam * cot
            return -lam * (lam + 1) / (lam + n) * cot
        if family.kind == PSEUDO_JACOBI:
            a, b = family.params["a"], family.params["b"]
            if k == 0:
                return -a * b / ((a + n) * (a + n - 1))
            if k == 1:
                return -b / (a + n)
            return -b / (a + 1)
    raise ValueError(f"no closed-form bounds for {family.label}")


def bound_separation(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> BoundReport:
    """All three bounds, the extreme zeros, separation flags and the ordering check.

    The extreme zeros are read from the family's spectrum when :meth:`_Spectrum.extremes` proves that
    the full solve passes its simple-zero check, which polishes only those two if the full solve has
    not run; otherwise they are read from :func:`zeros_golub_welsch`.

    Ordering: Meixner-Pollaczek has B(0) < B(1) < B(2) for phi < pi/2 and the
    reverse for phi > pi/2 (all zero at pi/2); Pseudo-Jacobi has
    B(2) < B(1) < B(0) for b > 0, the reverse for b < 0, all zero at b = 0.
    """
    if n < 2:
        raise ValueError("bound separation needs n >= 2")
    with policy.workprec():
        bounds = {k: inner_bound(family, n, k, policy) for k in (0, 1, 2)}
        spectrum = family.owned(("spectrum", n, policy.precision_bits), lambda: _spectrum(family, n, policy))
        x_min, x_max = spectrum.extremes(family, policy) or zeros_golub_welsch(family, n, policy).values[:: n - 1]  # first, last
        separated = {k: bool(x_min < bounds[k] < x_max) for k in (0, 1, 2)}
        # direction > 0 means B(0) < B(1) < B(2).  cot > 0 pushes MP bounds
        # negative with B(0) lowest; b > 0 puts PJ bounds positive with B(0)
        # highest, hence the sign flip.  At direction 0 all bounds are 0.
        if family.kind == MEIXNER_POLLACZEK:
            direction = _snapped_cot(family.params["phi"])
        else:
            direction = -family.params["b"]
        if direction == 0:
            ordering = all(bounds[k] == 0 for k in (0, 1, 2))
        else:
            lo, mid, hi = (0, 1, 2) if direction > 0 else (2, 1, 0)
            ordering = bounds[lo] < bounds[mid] < bounds[hi]
        return BoundReport(
            n=n,
            bounds=bounds,
            x_min=x_min,
            x_max=x_max,
            separated=separated,
            ordering_ok=bool(ordering),
            label=family.label,
        )


def stieltjes_check(family: RecurrenceFamily, k: int, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> StieltjesVerdict:
    """Gap-2 Stieltjes interlacing checks between p_n and the order-k modified g_{n-2}.

    Co-prime branch: the n-1 zeros of (x - B_n(k)) g_{n-2,k} must interlace
    the n zeros of p_n, with B_n(k) strictly inside the extreme zeros.
    Common-zero branch: exactly one shared zero, equal to B_n(k), interior;
    the n-2 zeros of g interlace the n-1 non-common zeros of p_n.

    g is evaluated at the zeros of p_n by its recurrence sweep, on kernel
    pairs; common zeros are read off those values, and both claims are :func:`interlace_strict`
    on them (G = x - B_n(k), or G = 1 over the non-common zeros), so no zero of g is solved for.
    """
    if k not in (0, 1, 2):
        raise ValueError("modifier order k must be 0, 1 or 2 for the gap-2 check")
    if n < 2:
        raise ValueError("check needs n >= 2")
    shifted = family.shifted(k)
    shifted.require_degree(n - 2)
    prec = policy.precision_bits
    rows = shifted.kernel_rows(n - 2, prec)
    with policy.workprec():
        bound = inner_bound(family, n, k, policy)
        zp = zeros_golub_welsch(family, n, policy)
        g_at = [_sweep(rows, n - 2, *p, prec) for p in zp.points]
        shared = [j for j, (v, p) in enumerate(zip(g_at, zp.points)) if _is_zero(*v, *p, policy)]
        common = tuple(zp[j] for j in shared)
        violations = []
        if not shared:
            branch = "coprime"
            bm, be = _point(bound, policy)
            if _is_zero(*_sweep(rows, n - 2, bm, be, prec), bm, be, policy):
                violations.append("bound coincides with a zero of the modified polynomial")
            verdict = interlace_strict(Polynomial._of([(-bm, be), (1, 0)]), g_at, n - 2, zp, policy)  # (x - B) g
            if verdict.common:
                violations.append(
                    f"common zeros detected between (x-B) g and p_n at {verdict.common}"
                )
            elif not verdict.strict:
                violations.append("zeros of (x-B) g do not interlace the zeros of p_n")
        else:
            branch = "common_zero"
            if len(shared) != 1:
                violations.append(f"expected exactly one common zero, found {len(shared)}")
            for j in shared:
                gap = min(zp[i + 1] - zp[i] for i in (j - 1, j) if 0 <= i < n - 1)
                thr = policy.abs_tol * max(1, gap)
                if abs(zp[j] - bound) > thr:
                    violations.append(
                        f"common zero {mp.nstr(zp[j], 10)} differs from bound {mp.nstr(bound, 10)}"
                    )
                if j in (0, n - 1):
                    violations.append(f"common zero is an extreme zero of p_n (index {j})")
            if len(shared) == 1:
                rest = [i for i in range(n) if i != shared[0]]
                outer = ZeroSet(tuple(zp[i] for i in rest), zp.label)
                if not interlace_strict(Polynomial._of([(1, 0)]), [g_at[i] for i in rest], n - 2, outer, policy).strict:
                    violations.append("zeros of g do not interlace the non-common zeros of p_n")
        if not zp[0] < bound < zp[-1]:
            violations.append("bound is not strictly inside the extreme zeros")
        return StieltjesVerdict(
            label=family.label,
            n=n,
            k=k,
            branch=branch,
            bound=bound,
            ok=not violations,
            common=common,
            violations=tuple(violations),
        )


def polynomial_real_roots(p: Polynomial, policy: TolerancePolicy = DEFAULT_POLICY):
    """(sorted real roots, number of nonreal roots) of a small dense polynomial.

    General-purpose root finder for the connection coefficient G, whose roots
    carry no orthogonality structure; degrees here stay below ~15.  Roots that
    do not converge in 200 steps raise ``ArithmeticError``.
    """
    if p.degree < 1:
        return [], 0
    with policy.workprec():
        try:
            roots = mp.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=policy.precision_bits)
        except mp.NoConvergence:
            raise ArithmeticError(f"root finding on a degree-{p.degree} polynomial did not converge") from None
        real = []
        nonreal = 0
        for z in roots:
            z = mp.mpc(z)
            if abs(z.imag) <= policy.abs_tol * max(1, abs(z)):
                real.append(z.real)
            else:
                nonreal += 1
        real.sort()
        return real, nonreal
