"""Zeros, Gauss rules and their orthogonality sums, interlacing verdicts and inner bounds for extreme zeros.

Zeros of the degree-n family member are the eigenvalues of the symmetric
tridiagonal Jacobi matrix with diagonal C(1..n) and off-diagonal
sqrt(Lambda(2..n)).  They are isolated by bisection on the Sturm negative
pivot count (which needs only the Lambda values, no square roots), counted
in Python floats on the shifted and power-of-two scaled matrix, and then
polished by safeguarded Newton iteration at working precision on the
recurrence evaluation of p_n; only zeros closer than the bisection's 64-bit
midpoints resolve are bisected at working precision.  The shift, the scale
and the double matrix are set up on the family's kernel rows
(``families._jacobi_frame``), with the mpf set-up's roundings.  Every
bisection is one walk on integers (:func:`_walk`), its midpoints and widths
the values of mpf arithmetic on the cell's ends.  When a cell holding a
single zero is polished, one eigenvalue computed in doubles and certified by
two counts decides the counts at the cell's later midpoints (the argument is
next to ``_BAND``), mostly by two integer thresholds, so the cells, and
every polished bit, are those of counting at each midpoint.  Newton iterates
and the counts that doubles cannot decide run on kernel pairs of
:mod:`christoffel.core` (an integer mantissa and an exponent), rounded as
the mpf operations they replace would round them, and Newton evaluates p_n
with the recurrence sweep of :mod:`christoffel.families` on those pairs; a
zero becomes an mpf once, when it is polished.  Eigenvalues of a symmetric
tridiagonal are perfectly conditioned; root-finding on monic coefficients
at n = 30 is not, which is why the coefficients are never touched here.

Interlacing is decided in one place, :func:`interlace_strict`, by the sign
alternation of q = G g at the already computed zeros of p_n, for the paper's
theorem on a grid cell (:func:`_grid_interlace`: G g_{n-m,k} interlaces exactly
when k <= m) and its gap-2 case, :func:`stieltjes_check`, alike; no zero of q is
solved for.  A grid cell's whole verdict, its connection pair's and the theorem's,
is :func:`cell_verdict`'s.  g enters as its sweep rows at those zeros, which
``families._sweep_rows`` alone collects.  Each sign is that of q formed on kernel pairs from G and
g's rows, and a zero of p_n is common with q where that q is 0 or g's own row passes the zero test (at
a zero of p_n, c g = -G p_{n-1}, so q vanishes there only with g); doubles with a running error bound
decide almost every sign and test, and only the zeros they leave open form q on pairs.  Nor is a root
of G solved for: a failed cell is named by counting G's roots, exactly, on a Sturm chain
(``core._root_counts``), and g's outside [x_1, x_n] by sign changes of its rows (``core._beyond``).
General root finding (:func:`polynomial_real_roots`) is kept as public API, with
no caller in the library; the tests read it as the oracle for those counts.

The inner bounds B_n(k), k in {0, 1, 2}, are the closed forms each family's
constructor defines (:mod:`christoffel.families`); :func:`bound_separation`
checks them against the extreme zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from mpmath import mp

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, _beyond, _root_counts, to_scalar
from .core import _add, _cmp, _div, _float, _horner, _round, _sqrt, _to_mpf, _unpack  # the exact-rounding kernel
from .families import ModifierSpec, RecurrenceFamily, _christoffel_sum, _jacobi_frame, _ladder, _order, _point, _sweep, _sweep_rows

if TYPE_CHECKING:  # cell_verdict imports the connection layer when it runs, so `import christoffel` skips it
    from .transform import ConnectionDecomposition


@dataclass(frozen=True)
class ZeroSet:
    """Strictly ascending real zeros of one family member, and the same zeros as kernel pairs in ``points``.

    Each value is read by ``core.to_scalar``; one that is not a finite real number raises ``ValueError``.
    What :func:`interlace_strict` reads per zero is formed once here, and a set out of order does not raise:
    ``disorder`` is the index of its first pair out of order (None when ascending), and ``doubles`` holds each
    point's nearest double (``core._float``) with its leading-bit position (0 for a zero), for :func:`_decided`."""

    values: tuple
    label: str
    points: tuple = field(init=False, repr=False, compare=False)
    disorder: Optional[int] = field(init=False, repr=False, compare=False)
    doubles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(to_scalar, self.values))
        if not all(map(mp.isfinite, values)):
            raise ValueError(f"zeros of {self.label} must be finite, got {', '.join(mp.nstr(x, 8) for x in values)}")
        points = tuple(_unpack(x._mpf_) for x in values)
        disorder = next((i for i, (a, b) in enumerate(zip(points, points[1:])) if _cmp(*a, *b) >= 0), None)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "disorder", disorder)
        object.__setattr__(self, "doubles", tuple((_float(m, e), m.bit_length() + e if m else 0) for m, e in points))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class InterlaceVerdict:
    """strict: q alternates in sign over the outer zeros; common: outer zeros where q is 0 or g passes the zero test."""

    strict: bool
    common: tuple = ()


@dataclass(frozen=True)
class CellVerdict:
    """Grid cell (n, m, k): its connection pair, :func:`_grid_interlace`'s field ("n/a" for a cell not checked)
    and ``ok``, that the pair passes and the field is the one the paper's theorem expects."""

    decomposition: ConnectionDecomposition
    interlace: str
    ok: bool


@dataclass(frozen=True)
class BoundReport:
    bounds: dict
    x_min: mp.mpf
    x_max: mp.mpf
    separated: dict
    ordering_ok: bool


@dataclass(frozen=True)
class StieltjesVerdict:
    """Outcome of the gap-2 interlacing check against the modified sequence.

    ``branch`` is "coprime" when p_n and g_{n-2,k} share no zero, otherwise
    "common_zero".  ``violations`` lists every failed assertion; an instance
    never passes silently.
    """

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


def _walk(count, a, b, ca, cb, width, prec, box=(-math.inf, math.inf), centre=(0, 0), scale=0):
    """Ascending cells (a, b, ca, cb) of the eigenvalues in [a, b), by bisection on integers.

    a, b and ``width`` are kernel pairs, and so are the cells' ends; ``ca`` and ``cb`` are the
    Sturm counts at a and b, so a cell holds the eigenvalues ca+1..cb, and ``count(x, ca, cb)``
    gives the count at its midpoint x, or any number that clamps to the same value in [ca, cb].
    A cell stops once it is no wider than ``width`` and holds one eigenvalue, or once its midpoint
    rounds to an end, so only a cluster closer than ``prec`` bits resolve stops holding more.
    Its ends are A 2**e < B 2**e: the midpoint is A + B rounded to ``prec`` bits and halved (an
    odd exact sum refines the unit, e -> e - 1), and a width B - A below 2**prec is exact, so each
    value is mpf's at ``prec`` bits.  A split cell walks on in its lower half, the upper one kept.

    ``box`` = (u, v) encloses a lone eigenvalue (cb = ca + 1): a count at a point whose
    :func:`_scaled` value (from ``centre``, a kernel pair, and ``scale``) is below u clamps to
    ca, above v to cb.  Two integers U < V decide most midpoints M without ``_scaled``: it is
    monotone, so M < U reads below u once the point U - 1 does, and M > V above v once V + 1
    does, each checked once.  A midpoint between them takes ``_scaled`` and the box, and inside
    the box ``count``; without a finite box every midpoint is counted.
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
    out, later = [], []
    while True:
        s = A + B
        k = s.bit_length() - prec
        if k > 0:
            m = _round(s, 0, prec)[0] << (k - 1)
        elif s & 1:
            A, B, e, U, V, m = 2 * A, 2 * B, e - 1, 2 * U - 1, 2 * V + 1, s
            w = wm << (we - e) if we >= e else wm >> (e - we)
        else:
            m = s >> 1
        d = B - A
        if (cb - ca == 1 and (d <= w if d.bit_length() <= prec else _cmp(*_round(d, e, prec), *width) <= 0)) or m == A or m == B:
            out.append(((A, e), (B, e), ca, cb))
            if not later:
                return out
            A, B, e, w, ca, cb = later.pop()
        elif m < U:
            A = m
        elif m > V:
            B = m
        else:
            xs = _scaled(m, e, *centre, scale) if u > -math.inf else 0.0  # no box: 0.0 decides nothing
            cm = ca if xs < u else cb if xs > v else min(max(count((m, e), ca, cb), ca), cb)
            if cm == ca:
                A = m
            elif cm == cb:
                B = m
            else:
                later.append((m, B, e, w, cm, cb))
                B, cb = m, cm


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
    argument is next to ``_BAND``), and its descent in :func:`_walk` reads
    that from two integer thresholds, mostly without forming the midpoint's
    double.  A cell that 64-bit midpoints cannot split into single zeros is
    bisected again at working precision, by the same walk.

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
    of the mpf loop it replaces: Newton steps are ``_add``, ``_div`` and the
    recurrence sweep, midpoints and widths are integers at the cell's unit,
    tests are exact comparisons, and a point enters the double counts as the
    mpf ``to_float`` would give it, its 64-bit offset from the centre cut
    toward zero to 53 bits (:func:`_scaled`).  The 64-bit recounts and the
    working-precision counts are the mpf Sturm loop on kernel rows
    (:func:`_count_pairs`), so no count sees an mpf value.
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
        for a, b, ca, cb in _walk(count64, lo, hi, 0, n, spread, 64):
            if cb - ca == 1:
                cells.append((a, b, True))
                continue
            # 64-bit midpoints cannot split this cell into single zeros, so it is bisected again at working
            # precision.  64-bit counts are exact for a matrix within about 2**-62 max(|lo|, |hi|) of this one,
            # so the cell is first widened past that reach, (rm, rexp), and only its own indices are kept.
            a, b = _add(*a, -rm, rexp, prec), _add(*b, rm, rexp, prec)
            for u, v, cu, cv in _walk(count_wp, a, b, count_wp(a), count_wp(b), width, prec):
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
                [(a, b, _, _)] = _walk(self.count64, a, b, i, i + 1, self.width, 64, self.box(i), self.origin, self.scale)
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
        unit = _to_mpf(*_unit(zs.points, policy.precision_bits))
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
    family.require_degree(n, 1)
    nodes = zeros_golub_welsch(family, n, policy)
    prec = policy.precision_bits
    rows = family.kernel_rows(n, prec)
    with policy.workprec():
        # (C(j), L(j), h_j) for j = 1..n-1, with h_j = L(2) ... L(j + 1)
        # multiplied in that order; with families._christoffel_sum this is the
        # mpf loop p_j = (x - C(j)) p_{j-1} - L(j) p_{j-2}, denom += p_j * p_j / h_j,
        # w = 1 / denom, with the same operations in the same order.
        terms, hm, he = [], 1, 0
        for j in range(1, n):
            _, _, lm, le = rows[j + 1]
            hm, he = _round(hm * lm, he + le, prec)
            terms.append((*rows[j], hm, he))
        weights = [_to_mpf(*_div(1, 0, *_christoffel_sum(terms, xm, xe, prec), prec)) for xm, xe in nodes.points]
        total = sum(weights)
        return nodes, tuple(w / total for w in weights)


def _weighted_sum(weights: list, a: list, b: list, prec: int) -> tuple:
    """sum_i (w_i a_i) b_i over kernel pairs, as the mpf ``sum(w * a * b ...)`` rounds it: each product and
    each sum rounded to ``prec`` bits, the sum started from 0 in node order."""
    sm, se = 0, 0
    for (wm, we), (am, ae), (bm, be) in zip(weights, a, b):
        tm, te = _round(wm * am, we + ae, prec)
        sm, se = _add(sm, se, *_round(tm * bm, te + be, prec), prec)
    return sm, se


def _worst(worst: tuple, s: tuple, norm: tuple, prec: int) -> tuple:
    """max(worst, |s| / norm) on kernel pairs, |s| and the quotient rounded, the first maximum kept."""
    ratio = _div(*_round(abs(s[0]), s[1], prec), *norm, prec)
    return ratio if _cmp(*ratio, *worst) > 0 else worst


def gauss_orthogonality(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """The largest |sum_i w_i p_j(x_i) p_l(x_i)| / sqrt(N_j N_l) over l < j < n on the n-point :func:`gauss_rule`,
    with N_j = sum_i w_i p_j(x_i)^2: 0 in exact arithmetic, as the rule integrates p_j p_l exactly.

    On kernel pairs, with the roundings of the mpf expressions: each p by Horner, (w p_j) p_l, the sums from 0 in
    node order, the square root and the quotient rounded once each, and the first maximum kept.
    """
    nodes, weights = gauss_rule(family, n, policy)
    prec = policy.precision_bits
    ws = [_unpack(w._mpf_) for w in weights]
    vals = [[_horner(p._pairs, xm, xe, prec) for xm, xe in nodes.points] for p in _ladder(family, n - 1, prec)]
    norms = [_weighted_sum(ws, v, v, prec) for v in vals]
    worst = 0, 0
    for j in range(n):
        for l in range(j):
            (am, ae), (bm, be) = norms[j], norms[l]
            root = _sqrt(*_round(am * bm, ae + be, prec), prec)
            worst = _worst(worst, _weighted_sum(ws, vals[j], vals[l], prec), root, prec)
    return _to_mpf(*worst)


def modified_orthogonality(
    family: RecurrenceFamily, modifier: ModifierSpec, polys, n: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> mp.mpf:
    """The largest |sum_i w_i c(x_i) g_j(x_i) g_l(x_i)| / N_j over l < j for the polynomials ``polys`` g_0, g_1, ...
    on the family's n-point :func:`gauss_rule`, with c the modifier's polynomial and N_j = sum_i w_i c(x_i) g_j(x_i)^2:
    the discrete orthogonality of g under c w, exact while deg g_j + deg g_l + 2k < 2n.

    On kernel pairs, with the roundings of the mpf expressions: c and g by Horner, ((w c) g_j) g_l and (w c) (g_j g_j),
    the sums from 0 in node order, the quotient rounded once, and the first maximum kept.
    """
    nodes, weights = gauss_rule(family, n, policy)
    prec = policy.precision_bits
    wcs = []
    for w, (xm, xe) in zip(weights, nodes.points):
        (wm, we), (cm, ce) = _unpack(w._mpf_), _horner(modifier.c._pairs, xm, xe, prec)
        wcs.append(_round(wm * cm, we + ce, prec))
    vals = [[_horner(g._pairs, xm, xe, prec) for xm, xe in nodes.points] for g in polys]
    ones = [(1, 0)] * len(wcs)  # N_j is sum_i ((w c) (g_j g_j)) 1, and a product by 1 is exact
    worst = 0, 0
    for j in range(1, len(vals)):
        norm = _weighted_sum(wcs, [_round(am * am, 2 * ae, prec) for am, ae in vals[j]], ones, prec)
        for l in range(j):
            worst = _worst(worst, _weighted_sum(wcs, vals[j], vals[l], prec), norm, prec)
    return _to_mpf(*worst)


def _unit(points, prec: int) -> tuple:
    """min(1, x_n - x_1) of ascending kernel pairs, the difference rounded to ``prec`` bits: the unit below
    which the zero tests, as :func:`zeros_golub_welsch`'s gap check, measure a zero at the spectrum's scale."""
    (am, ae), (bm, be) = points[0], points[-1]
    span = _add(bm, be, -am, ae, prec)
    return span if _cmp(*span, 1, 0) < 0 else (1, 0)


def _is_zero(vm, ve, dm, de, xm, xe, unit, policy) -> bool:
    """x is a zero at tolerance: the Newton step |value/slope| is within abs_tol * max(unit, |x|).

    On kernel pairs, the mpf test |value| <= abs_tol * max(unit, |x|) * |slope| with its roundings
    (abs rounds too) and an exact comparison.
    """
    prec = policy.precision_bits
    tm, te = _unpack(policy.abs_tol._mpf_)
    xm, xe = _round(abs(xm), xe, prec)
    um, ue = (xm, xe) if _cmp(xm, xe, *unit) > 0 else unit
    tm, te = _round(tm * um, te + ue, prec)
    dm, de = _round(abs(dm), de, prec)
    return _cmp(*_round(abs(vm), ve, prec), *_round(tm * dm, te + de, prec)) <= 0


def _double(m: int, e: int, span: int):
    """m * 2**e as the nearest double, :func:`_float` (0 is 0.0), or None when its leading bit lies outside +-span."""
    if m and not -span < m.bit_length() + e <= span:
        return None
    return _float(m, e)


# Doubles decide for a G of degree at most _MAX_DEGREE (the 2**-40 slack covers its (d + 1) 2**-52 roundings)
# whose coefficients, and g and g', have leading bits within +-_SPAN, at an x within +-_SPAN / max(1, deg G).
# Then S, mu and a nonzero g are normal doubles, above 2**-940, an underflow in Horner's products costs below
# 2**-490 S, and a right side of the g test that underflows lies far below |g|, or overflows and declines.
_SPAN = 256
_MAX_DEGREE = 64


def _decided(G: Polynomial, g, outer: ZeroSet, abs_tol, unit) -> list:
    """Per zero x of ``outer``, the sign of the q = G g of :func:`_q_at` where doubles certify it and that
    :func:`_is_zero` is False for g's row there, else 0.

    G's coefficients, x (``outer.doubles``), g(x), g'(x) and ``unit`` are read as the nearest doubles (each within
    2**-53).  Horner gives y ~ G(x) with Higham's running error bound mu (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Algorithm 5.1) and S = sum |G_j| |x|**j; B = mu + (d + 1) 2**-50 S also covers the inputs' roundings and
    the kernel Horner's, so |y| > B gives G's sign as ``_horner`` computes it.  |g| > abs_tol max(unit, |x|) |g'|,
    each side moved by 2**-40 for the roundings, makes ``_is_zero`` False.  A zero g, an input outside its span
    (see ``_SPAN``), and an abs_tol or unit that is no normal double decline.
    """
    signs = [0] * len(outer)
    d = len(G._pairs) - 1
    tol, u = _double(*_unpack(abs_tol._mpf_), 1021), _double(*unit, 1021)
    coeffs = [_double(m, e, _SPAN) for m, e in reversed(G._pairs)]
    if d > _MAX_DEGREE or tol is None or not u or None in coeffs:
        return signs
    lead, rest = coeffs[0], [(c, abs(c)) for c in coeffs[1:]]
    span, slack = _SPAN // max(d, 1), (d + 1) * 2.0**-50
    for i, ((x, top), (vm, ve, dm, de)) in enumerate(zip(outer.doubles, g)):
        v, dv = _double(vm, ve, _SPAN), _double(dm, de, _SPAN)
        if not v or dv is None or not -span < top <= span:
            continue
        ax, y, s = abs(x), lead, abs(lead)
        mu = s / 2
        for c, a in rest:
            s = ax * s + a
            y = x * y + c
            mu = ax * mu + abs(y)
        ay = abs(y)
        signed = ay > (2 * mu - ay) * 2.0**-53 + slack * s
        if signed and abs(v) * (1 - 2.0**-40) > tol * max(u, ax) * abs(dv) * (1 + 2.0**-40):
            signs[i] = 1 if (y > 0) == (vm > 0) else -1
    return signs


def _q_at(G: Polynomial, g, points, prec: int) -> list:
    """q(x) for q = G g at each of ``points``, kernel pairs: G by Horner, G g as by mpf; the exact route of
    :func:`interlace_strict`, for the points doubles leave open."""
    out = []
    for (xm, xe), (vm, ve, _, _) in zip(points, g):
        gm, ge = _horner(G._pairs, xm, xe, prec)
        out.append(_round(gm * vm, ge + ve, prec))
    return out


def interlace_strict(G: Polynomial, g, degree: int, outer: ZeroSet, policy: TolerancePolicy = DEFAULT_POLICY) -> InterlaceVerdict:
    """Whether the zeros of q = G g strictly interlace the zeros in ``outer``.

    g, of degree ``degree``, is its sweep rows: the kernel pairs (vm, ve, dm, de) of g(x) and
    g'(x) at each zero x of ``outer`` in order.  A q of degree len(outer) - 1 interlaces
    exactly when q(x_i) q(x_{i+1}) < 0 for every i (Markov's sign argument
    and its converse, Wendroff 1961), read off the mantissas' signs; for any
    other degree, and for q = 0 (G = 0), which has no zeros, the signs prove nothing, so that raises
    ``ValueError``, as do a ``degree`` that is no nonnegative int (``families._order``), a g without one
    row per zero and an ``outer`` that is no :class:`ZeroSet` or not strictly ascending (the first pair out
    of order is named).  Outer zeros where q is 0, or where g's row passes :func:`_is_zero` at the unit of
    ``outer`` (:func:`_unit`), are reported in ``common`` and make the verdict non-strict.

    The signs are those of q formed on kernel pairs (:func:`_q_at`), but doubles with an error bound decide
    them and g's test first (:func:`_decided`), and only the zeros they leave open take that route.
    """
    if not isinstance(outer, ZeroSet):
        raise ValueError(f"outer zeros must be a ZeroSet, got {type(outer).__name__}")
    i = outer.disorder
    if i is not None:
        raise ValueError(f"outer zeros must be strictly ascending, got {mp.nstr(outer[i], 8)} before {mp.nstr(outer[i + 1], 8)}")
    if len(g) != len(outer):
        raise ValueError(f"g needs one row per outer zero, {len(outer)}, got {len(g)}")
    _order(degree, "degree of g")
    if not G:
        raise ValueError(f"q = G g is 0 (G of degree {G.degree}, g of degree {degree}) and has no zeros to interlace")
    if G.degree + degree != len(outer) - 1:
        raise ValueError(f"q must have degree {len(outer) - 1} to interlace {len(outer)} zeros, got {G.degree + degree}")
    unit = _unit(outer.points, policy.precision_bits)
    signs = _decided(G, g, outer, policy.abs_tol, unit)
    left = [i for i, s in enumerate(signs) if not s]
    for i, (qm, _) in zip(left, _q_at(G, [g[i] for i in left], [outer.points[i] for i in left], policy.precision_bits)):
        signs[i] = qm
    common = tuple(outer.values[i] for i in left if not signs[i] or _is_zero(*g[i], *outer.points[i], unit, policy))
    alternates = all(u * w < 0 for u, w in zip(signs, signs[1:]))
    return InterlaceVerdict(strict=alternates and not common, common=common)


def _grid_interlace(G: Polynomial, n: int, m: int, k: int, zp: ZeroSet, rows, policy: TolerancePolicy) -> str:
    """The verdict of the paper's theorem on grid cell (n, m, k): whether G g_{n-m,k} interlaces the zeros ``zp`` of p_n.

    ``rows[i]`` holds the shifted family's sweep rows at zp[i], (g_{j,k}, g_{j,k}') as kernel pairs
    (m, e, dm, de) for j = 0, 1, ... (``families._sweep_rows``): a Sturm sequence of g, with n - m sign changes
    at -inf and none at inf.  A failed cell is named by counts alone: G's nonreal roots, and the real roots of G
    and g inside and outside [x_1, x_n] (``core._root_counts``, ``core._beyond``); no root is solved for.
    """
    verdict = None
    if G.degree == m - 1:
        verdict = interlace_strict(G, [row[n - m] for row in rows], n - m, zp, policy)
        if verdict.strict:
            return "holds"
    label = f"connection coefficient G of cell (n, m, k) = {(n, m, k)}"
    real, below, above = _root_counts(G, zp.points[0], zp.points[-1], label)
    if G.degree > real:
        return f"fails({G.degree - real} nonreal G roots)"
    if verdict is not None:
        return "fails(common zeros)" if verdict.common else "fails"
    outside = below + above + sum(_beyond(*([r[0] for r in row[n - m :: -1]] for row in (rows[0], rows[-1])), (n - m, 0)))
    return f"fails(size {n - m + real} vs {len(zp) - 1}, {outside} outside span)"


def cell_verdict(family: RecurrenceFamily, n: int, m: int, k: int, zp: ZeroSet, sweeps: dict, policy: TolerancePolicy) -> CellVerdict:
    """The verdict of grid cell (n, m, k) under the family's canonical modifier of order k.

    The theorem: G g_{n-m,k} interlaces the zeros ``zp`` of p_n exactly when deg G = m - 1, which the law gives
    for every k <= m.  Those cells are checked, and so are the (m, k) = (2, 3) cells, which must fail: their
    product has too many zeros.
    ``sweeps`` maps k to the shifted family's sweep rows at ``zp``; a missing or short entry is swept here to
    degree n - m, so a caller keeping the dict per n, with each k's gaps m rising, sweeps each (n, k) once.
    """
    from .transform import canonical_decompose

    decomp = canonical_decompose(family, n, m, k, policy)
    theorem = decomp.G_poly.degree == m - 1
    if not (theorem or (m, k) == (2, 3)):
        return CellVerdict(decomp, "n/a", decomp.ok)
    if k not in sweeps or len(sweeps[k][0]) <= n - m:
        sweeps[k] = list(_sweep_rows(family.shifted(k), n - m, zp.points, policy.precision_bits))
    interlace = _grid_interlace(decomp.G_poly, n, m, k, zp, sweeps[k], policy)
    return CellVerdict(decomp, interlace, decomp.ok and (interlace == "holds") == theorem)


def inner_bound(family: RecurrenceFamily, n: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Inner bound B_n(k) for the extreme zeros of p_n, k in {0, 1, 2}, in the family's closed form."""
    _order(k, "bound order k", 0, 2)
    return _bounds(family, n, policy)[k]


def _bounds(family: RecurrenceFamily, n: int, policy: TolerancePolicy) -> tuple:
    """(B_n(0), B_n(1), B_n(2)) at the policy's precision; the degree is checked against the validity range."""
    family.require_degree(n, 1)
    if family.paper is None:
        raise ValueError(f"no closed-form bounds for {family.label}")
    with policy.workprec():
        return family.paper.bounds(n)


def bound_separation(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> BoundReport:
    """All three bounds, the extreme zeros, separation flags and the ordering check.

    The extreme zeros are read from the family's spectrum when :meth:`_Spectrum.extremes` proves that
    the full solve passes its simple-zero check, which polishes only those two if the full solve has
    not run; otherwise they are read from :func:`zeros_golub_welsch`.  The ordering check reads the
    family's direction: B(0) < B(1) < B(2) when it is positive, the reverse when it is negative, and
    all three 0 when it is 0.
    """
    family.require_degree(n, 2)
    with policy.workprec():
        bounds = dict(enumerate(_bounds(family, n, policy)))
        spectrum = family.owned(("spectrum", n, policy.precision_bits), lambda: _Spectrum(family, n, policy))
        x_min, x_max = spectrum.extremes(policy) or zeros_golub_welsch(family, n, policy).values[:: n - 1]  # first, last
        separated = {k: bool(x_min < bounds[k] < x_max) for k in (0, 1, 2)}
        direction = family.paper.direction()
        if direction == 0:
            ordering = all(bounds[k] == 0 for k in (0, 1, 2))
        else:
            lo, mid, hi = (0, 1, 2) if direction > 0 else (2, 1, 0)
            ordering = bounds[lo] < bounds[mid] < bounds[hi]
        return BoundReport(bounds=bounds, x_min=x_min, x_max=x_max, separated=separated, ordering_ok=bool(ordering))


def stieltjes_check(family: RecurrenceFamily, k: int, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> StieltjesVerdict:
    """Gap-2 Stieltjes interlacing checks between p_n and the order-k modified g_{n-2}.

    Co-prime branch: the n-1 zeros of (x - B_n(k)) g_{n-2,k} must interlace
    the n zeros of p_n, with B_n(k) strictly inside the extreme zeros.
    Common-zero branch: exactly one shared zero, equal to B_n(k), interior;
    the n-2 zeros of g interlace the n-1 non-common zeros of p_n.

    g is evaluated at the zeros of p_n by its recurrence sweep, on kernel
    pairs; common zeros are read off those values by :func:`interlace_strict`'s rule, and both claims
    are :func:`interlace_strict` on them (G = x - B_n(k), or G = 1 over the non-common zeros), so no zero of g is solved for.
    A common zero x_j equals B_n(k) when x - B_n(k), of slope 1, passes that same zero test at x_j.
    """
    _order(k, "modifier order k", 0, 2)
    family.require_degree(n, 2)
    shifted = family.shifted(k)  # in range to n - 2: PJ's order-k shift lowers its top degree by k <= 2, MP has none
    prec = policy.precision_bits
    rows = shifted.kernel_rows(n - 2, prec)
    with policy.workprec():
        bound = inner_bound(family, n, k, policy)
        bm, be = _point(bound, policy)
        zp = zeros_golub_welsch(family, n, policy)
        g_at = [row[n - 2] for row in _sweep_rows(shifted, n - 2, zp.points, prec)]
        unit = _unit(zp.points, prec)
        shared = [j for j, (v, p) in enumerate(zip(g_at, zp.points)) if _is_zero(*v, *p, unit, policy)]
        common = tuple(zp[j] for j in shared)
        violations = []
        if not shared:
            branch = "coprime"
            if _is_zero(*_sweep(rows, n - 2, bm, be, prec), bm, be, unit, policy):
                violations.append("bound coincides with a zero of the modified polynomial")
            # with shared empty, q = (x - B) g is 0 at a zero of p_n only where it is B, and fails the signs there
            if not interlace_strict(Polynomial._of([(-bm, be), (1, 0)]), g_at, n - 2, zp, policy).strict:
                violations.append("zeros of (x-B) g do not interlace the zeros of p_n")
        else:
            branch = "common_zero"
            if len(shared) != 1:
                violations.append(f"expected exactly one common zero, found {len(shared)}")
            for j in shared:
                xm, xe = zp.points[j]
                if not _is_zero(*_add(xm, xe, -bm, be, prec), 1, 0, xm, xe, unit, policy):
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
        return StieltjesVerdict(branch=branch, bound=bound, ok=not violations, common=common, violations=tuple(violations))


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
