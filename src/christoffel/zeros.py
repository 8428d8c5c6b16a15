"""Zeros, Gauss rules, interlacing verdicts and inner bounds for extreme zeros.

Zeros of the degree-n family member are the eigenvalues of the symmetric
tridiagonal Jacobi matrix with diagonal C(1..n) and off-diagonal
sqrt(Lambda(2..n)).  They are isolated by bisection on the Sturm negative
pivot count (which needs only the Lambda values, no square roots), counted
in Python floats on the shifted and power-of-two scaled matrix, and then
polished by safeguarded Newton iteration at working precision on the
recurrence evaluation of p_n; only zeros closer than the bisection's 64-bit
midpoints resolve are bisected at working precision.  The shift, the scale
and the double matrix are set up on the family's kernel rows
(``families._jacobi_frame``), with the mpf set-up's roundings.  When a cell
holding a single zero is polished, one eigenvalue computed in doubles and
certified by two counts decides the counts at the cell's later midpoints
(the argument is next to ``_BAND``), and the cell walks down on integers,
its midpoints decided by two integer thresholds, so the cells, and every
polished bit, are those of counting at each midpoint.  Midpoints, Newton
iterates and the counts that doubles cannot decide run on kernel pairs of
:mod:`christoffel.core` (an integer mantissa and an exponent), rounded as
the mpf operations they replace would round them, and Newton evaluates p_n
with the recurrence sweep of :mod:`christoffel.families` on those pairs; a
zero becomes an mpf once, when it is polished.  Eigenvalues of a symmetric
tridiagonal are perfectly conditioned; root-finding on monic coefficients
at n = 30 is not, which is why the coefficients are never touched here.

Interlacing is decided in one place, :func:`interlace_strict`, by the sign
alternation of q = G g at the already computed zeros of p_n, for the grid and
:func:`stieltjes_check` alike; no zero of q is solved for.  Each sign, and the
test that the zero is no zero of q, is what q formed on kernel pairs from G and
g's sweep rows gives; doubles with a running error bound decide almost every
one, and only the zeros they leave open form q on pairs.  Nor is a root of G: the grid names a
failed cell by counting G's roots, exactly, on a Sturm chain (``cli._root_counts``).
General root finding (:func:`polynomial_real_roots`) is kept as public API, with
no caller in the library; the tests read it as the oracle for those counts.

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

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, to_scalar
from .core import _add, _cmp, _div, _float, _horner, _round, _to_mpf, _unpack  # the exact-rounding kernel
from .families import MEIXNER_POLLACZEK, PSEUDO_JACOBI, RecurrenceFamily, _jacobi_frame, _point, _snapped_cot, _sweep


@dataclass(frozen=True)
class ZeroSet:
    """Strictly ascending real zeros of one family member, and the same zeros as kernel pairs in ``points``.

    Each value is read by ``core.to_scalar``; one that is not a finite real number raises ``ValueError``."""

    values: tuple
    label: str
    points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(to_scalar, self.values))
        if not all(map(mp.isfinite, values)):
            raise ValueError(f"zeros of {self.label} must be finite, got {', '.join(mp.nstr(x, 8) for x in values)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "points", tuple(_unpack(x._mpf_) for x in values))

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
# A wider band W keeps every count's clamped value, and counts c at both
# x -/+ W (each rounded within 2**-54) put no eigenvalue between them but
# within _ETA of their ends, so eigenvalues c and c + 1 are 2 (W - 2 _ETA) apart.
_BAND = 2.0**-49
_ETA = 2.0**-50
_TINY = 2.0**-120  # stands in for a zero pivot in double counts

# Newton iterations allowed per zero; from a 2**-44 bracket it needs four.
_POLISH_CAP = 150


def _count_below(diag, offsq, x, tiny):
    """Eigenvalues of the Jacobi matrix strictly below x (Sturm pivot count), in doubles."""
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


def _count_pairs(rows, xm, xe, tiny, prec):
    """The count of :func:`_count_below` at x = xm * 2**xe on kernel rows (C(j), Lambda(j)), j = 1..n.

    Each step is the mpf loop's, rounded to ``prec`` bits: (C(j) - x) by ``_add``, Lambda(j) / d by
    ``_div``, their difference by ``_add``, and a zero pivot becomes -tiny (a kernel pair), so the
    count is that loop's.  Lambda(1) is 0, so the first step, from d = 1, is d = C(1) - x.
    """
    tm, te = tiny
    count, dm, de = 0, 1, 0
    for cm, ce, lm, le in rows:
        cm, ce = _add(cm, ce, -xm, xe, prec)
        qm, qe = _div(lm, le, dm, de, prec)
        dm, de = _add(cm, ce, -qm, qe, prec)
        if not dm:
            dm, de = -tm, te
        count += dm < 0
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


def _scaled(xm, xe, cm, ce, scale):
    """The double at which the Sturm counts read x = xm * 2**xe: to_float of the 64-bit x - centre, times 2**-scale.

    centre is cm * 2**ce.  to_float cuts toward zero to 53 bits, and ``ldexp`` rounds, so the
    value is monotone in x, as each of its three steps is.
    """
    m, e = _add(xm, xe, -cm, ce, 64)
    k = abs(m).bit_length() - 53
    if k > 0:
        m, e = (m >> k if m > 0 else -(-m >> k)), e + k
    return math.ldexp(m, e - scale)


def _descend(count, a, b, ca, box, width, centre, scale):
    """The cell ``_isolate(count, a, b, ca, ca + 1, width, 64)`` stops at, for a cell (a, b) of eigenvalue ca + 1 alone.

    ``box`` = (u, v) is that eigenvalue's enclosure: a count at a point whose :func:`_scaled`
    value (from ``centre``, a kernel pair, and ``scale``) is below u clamps to ca, above v to
    ca + 1.  The walk runs on integers, a = A 2**e < b = B 2**e.  Its midpoint is A + B
    rounded to 64 bits and halved, and a width B - A below 2**64 is exact; both ends have at
    most 64 bits, so these are the values of ``_isolate``'s ``_add`` (wider widths take it).
    An odd exact A + B refines the unit, e -> e - 1.  Two integers U < V decide most
    midpoints M without ``_scaled``: it is monotone, so M < U reads below u once the point
    U - 1 does, and M > V above v once V + 1 does, each checked once.  A midpoint between
    them takes ``_scaled`` and the box, and inside the box ``count``.  An infinite box gives
    no U, V, and every midpoint is counted.
    """
    (am, ae), (bm, be), (wm, we), (u, v) = a, b, width, box
    e = min(ae, be)
    A, B = am << (ae - e), bm << (be - e)

    def units(t):  # floor((centre + t 2**scale) / 2**e), exactly
        num, den = t.as_integer_ratio()
        s1, s2 = centre[1] - e, scale - den.bit_length() + 1 - e
        s = min(s1, s2, 0)
        return ((centre[0] << (s1 - s)) + (num << (s2 - s))) >> -s

    U, V = -math.inf, math.inf
    if u > -math.inf:  # _enclose certifies both ends or neither
        # _scaled is within 2**-53 of (x - centre) 2**-scale, so U - 1 and V + 1 this far out certify
        slack = (1 << max(0, scale - 52 - e)) + 1
        U, V = units(u) - slack, units(v) + slack
        if not _scaled(U - 1, e, *centre, scale) < u:
            U = -math.inf
        if not _scaled(V + 1, e, *centre, scale) > v:
            V = math.inf
    w = wm << (we - e) if we >= e else wm >> (e - we)  # floor(width / 2**e)
    while True:
        s = A + B
        k = s.bit_length() - 64
        if k > 0:
            m = _round(s, 0, 64)[0] << (k - 1)
        elif s & 1:
            A, B, e, U, V, m = 2 * A, 2 * B, e - 1, 2 * U - 1, 2 * V + 1, s
            w = wm << (we - e) if we >= e else wm >> (e - we)
        else:
            m = s >> 1
        d = B - A
        if (d <= w if d.bit_length() <= 64 else _cmp(*_round(d, e, 64), *width) <= 0) or m == A or m == B:
            return (A, e), (B, e)
        if m < U:
            A = m
        elif m > V:
            B = m
        else:
            xs = _scaled(m, e, *centre, scale)
            if xs < u or not xs > v and count((m, e), ca, ca + 1) <= ca:
                A = m
            else:
                B = m


def _polish(rows, label, n, lo, hi, prec, unit):
    """Newton on p_n from the centre of the isolating bracket (lo, hi), at ``prec`` bits.

    The bracket is already a few dozen bits wide, so plain Newton converges
    quadratically; iterates are merely clamped to an inflated copy of the
    bracket.  Termination is on the step size reaching the precision floor,
    not on sign tests, which become meaningless roundoff at the end; steps
    are measured relative to max(unit, |x|).  Running out of iterations
    raises ``ArithmeticError``.

    lo, hi and ``unit`` are kernel pairs, and so is every iterate: a step is
    the sweep of :mod:`christoffel.families` on ``rows``, ``_div`` and ``_add``, the mpf
    operations of the same loop on mpf values, and every test is an exact
    comparison, so the zero, made an mpf once, has the same bits.
    """
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
        f"Newton polish of a zero of {label} degree {n} did not converge in "
        f"{_POLISH_CAP} iterations on the bracket [{mp.nstr(_to_mpf(*lo), 20)}, {mp.nstr(_to_mpf(*hi), 20)}]"
    )


class _Spectrum:
    """The spectrum of the degree-n member (n >= 2): Sturm bisection with counts in doubles, Newton on request.

    The brackets are cells of a bisection of the padded Gershgorin interval
    down to 2**-44 of its width, with midpoints rounded to 64 bits.  Newton's
    last bits depend on where it starts, and reports print roundoff-level
    residuals, so these cells stay fixed however the counts are done.  The
    counts run in doubles on the Jacobi matrix shifted by its Gershgorin
    midpoint and scaled by a power of two at working precision, which fits
    any recurrence mpf holds; a count is redone at 64 bits only when an
    eigenvalue lies within the band of the midpoint.  In a cell holding one
    zero, its certified enclosure from :func:`_enclose` gives the count
    without counting, except at a midpoint within ``_BAND + _ETA`` of it (the
    argument is next to ``_BAND``), and :func:`_descend` reads that from two
    integer thresholds, mostly without forming the midpoint's double.  A cell
    that 64-bit midpoints cannot split into single zeros is bisected again at
    working precision.

    Here the bisection stops once each cell holds one zero; :meth:`zero`
    encloses cell i (from 0), bisects it on and polishes it on its first
    request, and :meth:`zeros` sorts all n into ``all`` and drops the cells,
    counts and double matrix.  A cell's bisection does not depend on its
    siblings', nor do its bits.  Eigenvalue i + 1 lies in centre + 2**scale
    (u, v) for ``box(i)`` = (u, v), (-inf, inf) in a cluster, and its
    polished zero within ``reach`` of it; ``boxes`` keeps those formed, None
    for the rest.  The walk to single zeros counts with the band ``band``, W
    = 2**-scale 4 reach or ``_BAND`` if wider, so its agreeing float counts
    prove the gap 2 (W - 2 _ETA) between eigenvalues c and c + 1 for each c
    in ``proved``; the descents count with ``_BAND``.  The spectrum keeps the
    member's kernel rows and label, not the family, and its closures read
    locals, never the spectrum.

    From the set-up to the polished zeros everything runs on kernel pairs
    (m, e) of :mod:`christoffel.core` or raw mpf values, with the roundings
    of the mpf loop it replaces: midpoints, widths and Newton steps are
    ``_add``, ``_div`` and the recurrence sweep, tests are exact comparisons (``_cmp``), and a
    point enters the double counts as the mpf ``to_float`` would give it,
    its 64-bit offset from the centre cut toward zero to 53 bits
    (:func:`_scaled`).  The 64-bit recounts and the working-precision counts
    are the mpf Sturm loop on kernel rows (:func:`_count_pairs`), so no count
    sees an mpf value.
    """

    def __init__(self, family: RecurrenceFamily, n: int, policy: TolerancePolicy):
        prec = policy.precision_bits
        rows = family.kernel_rows(n, prec)
        jacobi = rows[1 : n + 1]
        lo, hi, spread, tiny, width, unit, origin, (rm, rexp), scale, fdiag, foffsq = _jacobi_frame(jacobi, prec)
        rows64 = [(*_round(cm, ce, 64), *_round(lm, le, 64)) for cm, ce, lm, le in jacobi]
        # the walk's band, 4 reach = 8 rm in scaled doubles or _BAND if wider: agreeing float counts prove gaps (see _BAND)
        band = max(_BAND, _float(rm, rexp + 3 - scale))
        proved = set()  # c: the walk's float counts agreed at a point between eigenvalues c and c + 1

        def count64(x, ca, cb):
            xs = _scaled(*x, *origin, scale)
            below = _count_below(fdiag, foffsq, xs - band, _TINY)
            if below >= cb:
                return below
            upto = _count_below(fdiag, foffsq, xs + band, _TINY)
            if min(max(upto, ca), cb) == max(below, ca):
                if below == upto and band > _BAND:
                    proved.add(upto)
                return upto
            return _count_pairs(rows64, *x, tiny, 64)

        def count_wp(x, *_):
            return _count_pairs(jacobi, *x, (tiny[0], tiny[1] - prec), prec)

        # (a, b, single): a one-zero cell (the spread stops them all), or a cell of a cluster's bracket
        cells = []
        for a, b, ca, cb in _isolate(count64, lo, hi, 0, n, spread, 64):
            if cb - ca == 1:
                cells.append((a, b, True))
                continue
            # 64-bit midpoints cannot split this cell into single zeros, so it is bisected again at working
            # precision.  64-bit counts are exact for a matrix within about 2**-62 max(|lo|, |hi|) of this one,
            # so the cell is first widened past that reach, (rm, rexp), and only its own indices are kept.
            a, b = _add(*a, -rm, rexp, prec), _add(*b, rm, rexp, prec)
            for u, v, cu, cv in _isolate(count_wp, a, b, count_wp(a), count_wp(b), width, prec):
                cells += [(u, v, False)] * max(0, min(cv, cb) - max(cu, ca))
        if len(cells) != n:
            raise ArithmeticError(f"isolated {len(cells)} of the {n} zeros of {family.label} degree {n}")
        self.band, band = band, _BAND  # the descents count with _BAND and prove no gap
        self.boxes = [None if single else (-math.inf, math.inf) for _, _, single in cells]
        # a polished zero lies within 2 rm of its eigenvalue: Newton keeps to its bracket widened
        # by the bracket's width, no more than rm, and 64-bit counts move an end by at most 2**-62 max(|lo|, |hi|)
        self.reach, self.proved, self.fdiag, self.foffsq = (rm, rexp + 1), proved, fdiag, foffsq
        self.rows, self.label, self.prec, self.width, self.origin, self.scale = rows, family.label, prec, width, origin, scale
        self.cells, self.count64, self.unit, self.polished, self.all = cells, count64, unit, {}, None

    def box(self, i: int) -> tuple:
        """Cell i's enclosure (u, v) in scaled doubles, from :func:`_enclose` on first need; (-inf, inf) in a cluster."""
        if self.boxes[i] is None:
            a, b = (_scaled(*x, *self.origin, self.scale) for x in self.cells[i][:2])
            self.boxes[i] = _enclose(self.fdiag, self.foffsq, a, b, i + 1)
        return self.boxes[i]

    def zero(self, i: int) -> mp.mpf:
        if i not in self.polished:
            a, b, single = self.cells[i]
            if single:
                a, b = _descend(self.count64, a, b, i, self.box(i), self.width, self.origin, self.scale)
            self.polished[i] = _polish(self.rows, self.label, len(self.cells), a, b, self.prec, self.unit)
        return self.polished[i]

    def zeros(self) -> ZeroSet:
        """All n zeros, ascending: every cell finished, sorted once and kept; the bisection state is dropped."""
        if self.all is None:
            self.all = ZeroSet(sorted(self.zero(i) for i in range(len(self.boxes))), self.label)
            del self.cells, self.count64, self.fdiag, self.foffsq
        return self.all

    def extremes(self, policy: TolerancePolicy):
        """(zero 1, zero n) if the spectrum proves that the full solve passes its simple-zero check and both
        zeros lie in their boxes, else None.  A gap of g between eigenvalues, in scaled doubles, passes it when
        2**scale g, less 2 ``reach`` for the zeros' distances from the eigenvalues and 2 more for roundings,
        beats abs_tol times max(1, |centre| + 2**scale), which bounds the check's max(unit, |x|, |y|) for any
        zeros x, y.  The walk proves g = 2 (band - 2 _ETA) at each boundary in ``proved``; any other boundary,
        or every one when that g falls short of the tolerance, takes u' - v from its neighbours' boxes (u, v), (u', v')."""
        n = len(self.boxes)
        with policy.workprec():
            centre, room = _to_mpf(*self.origin), _to_mpf(self.reach[0], self.reach[1] + 2)  # 4 reach
            size = max(1, abs(centre) + mp.ldexp(1, self.scale))

            def apart(gap):
                return mp.ldexp(gap, self.scale) - room > policy.abs_tol * size

            proved = self.proved if apart(2 * (self.band - 2 * _ETA)) else ()
            if not all(i in proved or apart(self.box(i)[0] - self.box(i - 1)[1]) for i in range(1, n)):
                return None
            ends = self.zero(0), self.zero(n - 1)
            if all(u <= mp.ldexp(x - centre, -self.scale) <= v for x, (u, v) in zip(ends, self.boxes[:: n - 1])):
                return ends
        return None


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
        return ZeroSet(family.recurrence(n, policy.precision_bits)[0][1:], family.label)
    zs = family.owned(("spectrum", n, policy.precision_bits), lambda: _Spectrum(family, n, policy)).zeros()
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


def _double(m: int, e: int, span: int):
    """m * 2**e as a double within 2**-52 of it (0 is 0.0), or None when its leading bit lies outside +-span."""
    if not m:
        return 0.0
    k = m.bit_length() - 64
    if not -span < k + 64 + e <= span:
        return None
    return math.ldexp(m >> k, e + k) if k > 0 else math.ldexp(m, e)


# Doubles decide for a G of degree at most _MAX_DEGREE (the 2**-40 slack covers its (d + 1) 2**-52 roundings)
# whose coefficients, and g and g', have leading bits within +-_SPAN, at an x within +-_SPAN / max(1, deg G).
# Then S, S', mu and a passing left side are normal doubles, above 2**-940, an underflow in Horner's products
# costs below 2**-490 S, and a right side that underflows or overflows only declines (see _decided).
_SPAN = 256
_MAX_DEGREE = 64


def _decided(G: Polynomial, g, points, abs_tol) -> list:
    """Per point, the sign of the q = G g of :func:`_q_at` where doubles certify it and that :func:`_is_zero` is
    False there, else 0.

    G's coefficients, x, g(x) and g'(x) are read as doubles (each within 2**-52).  Horner gives y ~ G(x) with
    Higham's running error bound mu (Accuracy and Stability of Numerical Algorithms, 2nd ed., Algorithm 5.1),
    and the same loop S = sum |G_j| |x|**j and its derivative S', which bounds |G'(x)|.  B = mu + (d + 1) 2**-50 S
    also covers the inputs' roundings, (d + 1) 2**-52 S, and the kernel Horner's, 2d 2**(2 - prec) S with prec
    >= 64, so G(x) as ``_horner`` computes it lies within B of y, and q's sign is its sign times g's.  Then
    (|y| - B) |g| > abs_tol max(1, |x|) (S' |g| + (|y| + B) |g'|), each side moved by 2**-40 for the roundings of
    the doubles and of ``_q_at`` and ``_is_zero`` (a few (d + 1) 2**-52 and 2**-63 each), gives |y| > B, which
    fixes the sign, and makes ``_is_zero`` False.  A zero g, an input outside its span (see ``_SPAN``) and an
    abs_tol that is no normal double decline.
    """
    signs = [0] * len(points)
    d = len(G._pairs) - 1
    tol = _double(*_unpack(abs_tol._mpf_), 1021)
    coeffs = [_double(m, e, _SPAN) for m, e in reversed(G._pairs)]
    if d > _MAX_DEGREE or tol is None or None in coeffs:
        return signs
    lead, rest = coeffs[0], [(c, abs(c)) for c in coeffs[1:]]
    span, slack = _SPAN // max(d, 1), (d + 1) * 2.0**-50
    for i, ((xm, xe), (vm, ve, dm, de)) in enumerate(zip(points, g)):
        x, v, dv = _double(xm, xe, span), _double(vm, ve, _SPAN), _double(dm, de, _SPAN)
        if not v or x is None or dv is None:
            continue
        ax, y, s, s1 = abs(x), lead, abs(lead), 0.0
        mu = s / 2
        for c, a in rest:
            s1 = ax * s1 + s
            s = ax * s + a
            y = x * y + c
            mu = ax * mu + abs(y)
        ay, av = abs(y), abs(v)
        b = (2 * mu - ay) * 2.0**-53 + slack * s
        if (ay - b) * av * (1 - 2.0**-40) > tol * max(1.0, ax) * (s1 * av + (ay + b) * abs(dv)) * (1 + 2.0**-40):
            signs[i] = 1 if (y > 0) == (vm > 0) else -1
    return signs


def _q_at(G: Polynomial, g, points, prec: int) -> list:
    """(q(x), q'(x)) for q = G g at each of ``points``, kernel pairs: G, G' by Horner, G g and G' g + G g' as by mpf.

    The exact route of :func:`interlace_strict`, for the points doubles leave open (G' is formed once per call)."""
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
    other degree, and for q = 0 (degree -1), which has no zeros, the signs prove
    nothing, so that raises ``ValueError``, as does a g without one row per zero.  Outer zeros that are zeros of q at tolerance
    (:func:`_is_zero`) are reported in ``common`` and make the verdict non-strict.

    The signs and zero tests are those of q and q' formed on kernel pairs (:func:`_q_at`), but doubles with an
    error bound decide them first (:func:`_decided`), and only the zeros they leave open take that route.
    """
    if len(g) != len(outer):
        raise ValueError(f"g needs one row per outer zero, {len(outer)}, got {len(g)}")
    q_degree = G.degree + degree if G else -1
    if q_degree != len(outer) - 1:
        raise ValueError(f"q must have degree {len(outer) - 1} to interlace {len(outer)} zeros, got {q_degree}")
    signs, common = _decided(G, g, outer.points, policy.abs_tol), ()
    left = [i for i, s in enumerate(signs) if not s]
    if left:
        vals = _q_at(G, [g[i] for i in left], [outer.points[i] for i in left], policy.precision_bits)
        for i, v in zip(left, vals):
            signs[i] = v[0]
        common = tuple(outer.values[i] for i, v in zip(left, vals) if _is_zero(*v, *outer.points[i], policy))
    alternates = all(u * w < 0 for u, w in zip(signs, signs[1:]))
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
        spectrum = family.owned(("spectrum", n, policy.precision_bits), lambda: _Spectrum(family, n, policy))
        x_min, x_max = spectrum.extremes(policy) or zeros_golub_welsch(family, n, policy).values[:: n - 1]  # first, last
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
                outer = ZeroSet([zp[i] for i in rest], zp.label)
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

    General-purpose root finder, by mpmath's ``polyroots`` at twice the working
    precision, for polynomials such as a connection coefficient G, whose roots
    carry no orthogonality structure.  No CLI mode calls it (the grid counts G's
    roots exactly instead); the tests use it as that count's oracle.  Roots that
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
