"""Orthogonal polynomial families defined by their three-term recurrences.

A family is the pair of coefficient maps C(n), Lambda(n) in the monic
recurrence

    p_n(x) = (x - C(n)) p_{n-1}(x) - Lambda(n) p_{n-2}(x),   p_0 = 1,

together with a validity range.  Lambda(n) > 0 over the whole range is what
makes the sequence orthogonal with respect to a positive weight, hence real
simple zeros and a symmetric Jacobi matrix.

A built-in family also carries the paper's facts about it (:class:`Paper`):
its canonical even modifier c_{2k} (:func:`even_modifier`); the parameter
shift that gives the family of c_{2k} w, the cheap independent route to the
modified polynomials and so the oracle for the determinant-based Christoffel
transform; and the inner bounds B_n(k), k in {0, 1, 2}, the roots of the
linear G of the gap-2 decomposition, strictly between the extreme zeros of
p_n, and their order.  A custom family has none of these.

* Meixner-Pollaczek, parameters lambda > 0 and 0 < phi < pi:
      C(n) = -(lambda + n - 1) cot(phi)
      Lambda(n) = (n - 1)(2 lambda + n - 2) / (4 sin(phi)^2)
  valid for every degree; c_{2k} = prod_{j<k} ((lambda + j)^2 + x^2), nodes
  i(lambda + j), shift lambda -> lambda + k; B_n(k) = -(lambda)_k (lambda)_n
  / ((lambda)_{n+k-1} tan(phi)), in cancelled form (no large Pochhammer ratios)
      B_n(0) = -(lambda + n - 1) cot(phi)
      B_n(1) = -lambda cot(phi)
      B_n(2) = -lambda (lambda + 1) cot(phi) / (lambda + n)
  rising in k for phi < pi/2, falling for phi > pi/2, all 0 at pi/2.

* Pseudo-Jacobi, parameters a, b with a < -2:
      C(n) = -a b / ((a + n - 1)(a + n))
      Lambda(n) = -(n-1)(2a + n - 1)((a + n - 1)^2 + b^2)
                  / ((a + n - 1)^2 (4 (a + n - 1)^2 - 1))
  valid for degrees n with a < -n only; c_{2k} = (1 + x^2)^k, the node i
  k times, shift a -> a + k;
      B_n(0) = -a b / ((a + n)(a + n - 1))
      B_n(1) = -b / (a + n)
      B_n(2) = -b / (a + 1)
  falling in k for b > 0, rising for b < 0, all 0 at b = 0.

A family is defined by one row function, (j, prec) -> the kernel row of C(j)
and Lambda(j) at ``prec`` bits: for the built-in families the mpf formulas
above, each operation in the same order on the exact-rounding kernel, and
for a custom family its two mpf maps.  Everything derived from a recurrence
is built on first request and kept by the family, in
:meth:`RecurrenceFamily.owned`: its coefficients, once, as exact kernel rows
(:meth:`RecurrenceFamily.kernel_rows`), the ladder, zeros, associated
sequences, shifted families, canonical modifiers and the determinant's node
rows.  Dropping the last reference to a family frees all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from mpmath import mp

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, to_scalar
from .core import _NEAR, _accumulate, _add, _cmp, _div, _float, _horner, _relative, _round, _sqrt, _to_mpf, _unpack  # the exact-rounding kernel

MEIXNER_POLLACZEK = "meixner_pollaczek"
PSEUDO_JACOBI = "pseudo_jacobi"
CUSTOM = "custom"
_PAD = _div(1, 0, 1000, 0, 64)  # the zero solver pads the Gershgorin interval by this share of its width


def _snapped_cot(phi):
    """cos(phi)/sin(phi), snapped to exactly 0 when phi is pi/2 to working precision.

    Computed as a quotient of cos and sin, never 1/tan: tan blows up at pi/2
    while cot is finite there, and phi = 1.57 sits right next to the pole.
    """
    c = mp.cos(phi)
    if abs(c) <= mp.ldexp(1, -mp.prec + 4):
        return mp.mpf(0)
    return c / mp.sin(phi)


class Paper(NamedTuple):
    """A built-in family's facts, closures over its parameters (never the family): ``shift(k)``, the family of
    c_{2k} w at the family's precision; ``nodes(k)`` and ``bounds(n)`` = (B_n(0), B_n(1), B_n(2)) at the ambient
    precision; ``direction()``, positive when B_n(k) rises in k, negative when it falls, 0 when all are 0."""

    shift: Callable[[int], "RecurrenceFamily"]
    nodes: Callable[[int], list]
    bounds: Callable[[int], tuple]
    direction: Callable[[], mp.mpf]


@dataclass(frozen=True, eq=False)
class RecurrenceFamily:
    """Recurrence coefficient provider plus parameter record and validity range.

    ``row(j, prec)`` is the recurrence's one definition: the kernel row (cm, ce, lm, le) of
    C(j) = cm * 2**ce and Lambda(j) = lm * 2**le at ``prec`` bits, normalised as ``_unpack``
    gives an mpf (Lambda(1) is 0).  ``max_valid_degree`` is None for an unbounded family, and
    ``paper`` for a custom one; ``kind`` is a label.  Instances are immutable and compared by
    identity.  Everything derived from the recurrence lives in a private store, filled through
    :meth:`owned` and freed together with the family.
    """

    kind: str
    params: Mapping[str, mp.mpf]
    row: Callable[[int, int], tuple]
    max_valid_degree: Optional[int]
    label: str
    paper: Optional[Paper] = None
    _store: dict = field(default_factory=dict, init=False, repr=False)

    def C(self, n: int) -> mp.mpf:
        """C(n) at the ambient precision, an mpf view of :attr:`row`."""
        return _to_mpf(*self.row(n, mp.prec)[:2])

    def Lambda(self, n: int) -> mp.mpf:
        """Lambda(n) at the ambient precision, an mpf view of :attr:`row`."""
        return _to_mpf(*self.row(n, mp.prec)[2:])

    def owned(self, key, build: Callable[[], object]):
        """The value kept under ``key``: ``build()`` on the first request, then the same object."""
        try:
            return self._store[key]
        except KeyError:
            value = self._store[key] = build()
            return value

    def kernel_rows(self, n: int, prec: int) -> list:
        """C(j) and Lambda(j) at ``prec`` bits as a shared, read-only list of kernel rows, the family's one copy.

        Row j is :attr:`row` (j, prec); row 0 and Lambda(1) are 0.  Extended lazily, never past n:
        beyond the validity range the maps may be undefined (PJ Lambda divides by zero).  This is
        where the rows enter, so each is checked once, here: Lambda(j) positive, ``ValueError``
        otherwise (a custom family's maps are also checked finite as they are read).
        """
        rows = self.owned(("recurrence", prec), lambda: [(0, 0, 0, 0)])
        for j in range(len(rows), n + 1):
            row = self.row(j, prec)
            if j > 1 and row[2] <= 0:
                raise _not_positive(j, _to_mpf(*row[2:]), self.label)
            rows.append(row)
        return rows

    def recurrence(self, n: int, prec: int) -> tuple:
        """The lists C(0..n) and Lambda(0..n) of :meth:`kernel_rows` as mpf values, made on each call."""
        rows = self.kernel_rows(n, prec)[: n + 1]
        return [_to_mpf(cm, ce) for cm, ce, _, _ in rows], [_to_mpf(lm, le) for _, _, lm, le in rows]

    def require_degree(self, n: int, least: int = 0, of: str = ""):
        """:func:`_order`'s rule for a degree from ``least``, then the family's validity range.

        ``of`` says how a derived degree comes from the caller's arguments, "n + m for n=5, m=3"."""
        _order(n, "degree", least)
        if self.max_valid_degree is not None and n > self.max_valid_degree:
            raise ValueError(
                f"degree {n}{f' ({of})' if of else ''} exceeds the validity range of {self.label} "
                f"(max valid degree {self.max_valid_degree})"
            )

    def shifted(self, k: int) -> "RecurrenceFamily":
        """The family orthogonal with respect to c_{2k}(x) w(x), by the paper's parameter shift (kept).

        c_0 = 1, so ``shifted(0)`` is the family itself, not stored: a family
        that stored itself would be a reference cycle, left to the collector.
        """
        _order(k, "shift")
        if k == 0:
            return self
        if self.paper is None:
            raise ValueError(f"{self.label} has no canonical parameter shift")

        def build() -> "RecurrenceFamily":
            try:
                return self.paper.shift(k)
            except ValueError as exc:  # a shifted parameter the caller never gave: name what they did give
                raise ValueError(f"the order-{k} shift of {self.label} leaves its parameter range") from exc

        return self.owned(("shifted", k), build)


def _order(k, name: str, least: int = 0, most: Optional[int] = None) -> None:
    """The one rule for a degree, gap or order: an int, not a bool, in least..most, else ``ValueError`` naming it.

    1.5 would shift lambda by 1.5, range(2.5) raises ``TypeError``, 1.0 indexes no tuple and True is 1."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < least or most is not None and k > most:
        bound = f"in {least}..{most}" if most is not None else f"at least {least}" if least else "nonnegative"
        raise ValueError(f"{name} must be {bound}, got {k}")


def _gershgorin(rows: list, prec: int) -> tuple:
    """(lo, hi), kernel pairs: the Gershgorin interval of the Jacobi matrix of kernel rows (C(j), Lambda(j)), j = 1..n.

    The mpf loop at ``prec`` bits, each step rounded to nearest: C(j) and Lambda(j) rounded to ``prec`` bits,
    beta_j = sqrt(Lambda(j)) (beta_1 = beta_{n+1} = 0) by ``_sqrt``, and C(j) -/+ (beta_j + beta_{j+1}), compared
    exactly.
    """
    beta = [_sqrt(*_round(m, e, prec), prec) for _, _, m, e in rows]
    lo = hi = None
    for (cm, ce, _, _), (um, ue), (vm, ve) in zip(rows, beta, beta[1:] + [(0, 0)]):
        cm, ce = _round(cm, ce, prec)
        rm, re = _add(um, ue, vm, ve, prec)
        a, b = _add(cm, ce, -rm, re, prec), _add(cm, ce, rm, re, prec)
        if lo is None or _cmp(*a, *lo) < 0:
            lo = a
        if hi is None or _cmp(*b, *hi) > 0:
            hi = b
    return lo, hi


def _jacobi_frame(rows: list, prec: int) -> tuple:
    """The frame in which the zero solver (``zeros._Spectrum``) counts, for the Jacobi matrix of kernel rows j = 1..n.

    (lo, hi, spread, tiny, width, unit, centre, widen, scale, fdiag, foffsq), as kernel pairs up to widen:
    the 64-bit Gershgorin interval padded by a thousandth of its width on each side, and its padded width;
    2**-120 of that (of |hi| if it is 0) for a zero pivot; 2**-44 of it for the cells (of the interval at
    ``prec`` bits if 64 bits see one point); Newton's unit min(width, 1) before the pad; the midpoint; and
    width + 2**-60 max(|lo|, |hi|), by which a cluster's cell is widened.  Then frexp's exponent of the spread,
    and the matrix shifted by the centre and scaled by 2**-scale as doubles, its diagonal and squared
    off-diagonal.  Every value is the mpf set-up's bit for bit: each step on kernel pairs, rounded to nearest at
    64 bits up to the spread and at ``prec`` bits from the centre on, each returned pair as ``_unpack`` gives
    it, and the doubles rounded as ``float(mpf)`` rounds them.
    """
    (lm, le), (hm, he) = _gershgorin(rows, 64)
    span = _add(hm, he, -lm, le, 64)
    pm, pe = _round(span[0] * _PAD[0], span[1] + _PAD[1], 64)
    (lm, le), (hm, he) = lo, hi = _add(lm, le, -pm, pe, 64), _add(hm, he, pm, pe, 64)
    sm, se = spread = _add(hm, he, -lm, le, 64)
    tiny = (sm, se - 120) if sm else (abs(hm), he - 120)
    wm, we = spread
    if not sm:
        (gm, ge), (tm, te) = _gershgorin(rows, prec)
        wm, we = _add(tm, te, -gm, ge, prec)
    width = wm, we - 44
    big = (abs(lm), le) if _cmp(abs(lm), le, abs(hm), he) >= 0 else (abs(hm), he)
    widen = _add(*width, big[0], big[1] - 60, prec)
    om, oe = _add(lm, le - 1, hm, he - 1, prec)  # the midpoint, halved before the sum as halving is exact
    scale = sm.bit_length() + se if sm else 0
    fdiag = [_float(m, e - scale) for m, e in (_add(cm, ce, -om, oe, prec) for cm, ce, _, _ in rows)]
    foffsq = [_float(m, e - 2 * scale) for _, _, m, e in rows[1:]]
    unit = span if _cmp(*span, 1, 0) <= 0 else (1, 0)
    return (*(_normal(*v) for v in (lo, hi, spread, tiny, width, unit, (om, oe), widen)), scale, fdiag, foffsq)


def mp_family(lam, phi, policy: TolerancePolicy = DEFAULT_POLICY) -> RecurrenceFamily:
    """Monic Meixner-Pollaczek family, lambda > 0, 0 < phi < pi (open interval)."""
    with policy.workprec():
        lam = to_scalar(lam)
        phi = to_scalar(phi)
        if not 0 < lam < mp.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        if not (0 < phi < mp.pi):
            raise ValueError(f"phi must lie strictly in (0, pi), got {phi}")
        cot = _snapped_cot(phi)
        inv_four_sin2 = 1 / (4 * mp.sin(phi) ** 2)
    (lm, le), (tm, te), (sm, se) = (_unpack(v._mpf_) for v in (lam, cot, inv_four_sin2))

    def row(j: int, prec: int) -> tuple:
        # C(j) = -((lam + j) - 1) cot and Lambda(j) = ((j - 1) ((2 lam + j) - 2)) / (4 sin(phi)^2), each
        # operation the mpf one of the formula in its order, grouping included (at j = 2 it cancels a tiny
        # lambda, ROADMAP item 1); the negation is of a value rounded at prec, so exact
        um, ue = _add(*_add(lm, le, j, 0, prec), -1, 0, prec)
        vm, ve = _add(*_add(*_round(2 * lm, le, prec), j, 0, prec), -2, 0, prec)
        vm, ve = _round((j - 1) * vm, ve, prec)
        return (*_normal(*_round(-um * tm, ue + te, prec)), *_normal(*_round(vm * sm, ve + se, prec)))

    def shift(k: int) -> RecurrenceFamily:
        with policy.workprec():  # lambda + k rounds at the family's precision, not the caller's
            return mp_family(lam + k, phi, policy)

    def bounds(n: int) -> tuple:
        cot = _snapped_cot(phi)
        return -(lam + n - 1) * cot, -lam * cot, -lam * (lam + 1) / (lam + n) * cot

    return RecurrenceFamily(
        kind=MEIXNER_POLLACZEK,
        params={"lambda": lam, "phi": phi},
        row=row,
        max_valid_degree=None,
        label=f"MP(lambda={mp.nstr(lam, 10)}, phi={mp.nstr(phi, 10)})",
        paper=Paper(shift, lambda k: [mp.mpc(0, lam + j) for j in range(k)], bounds, lambda: _snapped_cot(phi)),
    )


def pj_family(a, b, policy: TolerancePolicy = DEFAULT_POLICY) -> RecurrenceFamily:
    """Monic Pseudo-Jacobi family, valid for degrees n with a < -n (strict)."""
    with policy.workprec():
        a = to_scalar(a)
        b = to_scalar(b)
        if not -mp.inf < a < -2:
            raise ValueError(f"parameter a must be finite and satisfy a < -2, got {a}")
        if not mp.isfinite(b):
            raise ValueError(f"parameter b must be finite, got {b}")
        nmax = int(mp.floor(-a))
        if mp.mpf(nmax) == -a:
            nmax -= 1
    (am, ae), (bm, be) = _unpack(a._mpf_), _unpack(b._mpf_)

    def row(j: int, prec: int) -> tuple:
        # with t = (a + j) - 1 and s = t t, C(j) = ((-a) b) / (t (a + j)) and Lambda(j) =
        # ((-(j - 1) ((2 a + j) - 1)) (s + b b)) / (s ((4 t) t - 1)), each operation the mpf one of the
        # formula in its order (4 t is exact): -a rounds at a prec below a's width, and a zero divisor raises
        # ZeroDivisionError
        um, ue = _add(am, ae, j, 0, prec)
        tm, te = _add(um, ue, -1, 0, prec)
        sm, se = _round(tm * tm, 2 * te, prec)
        nm, ne = _round(-am, ae, prec)
        cm, ce = _div(*_round(nm * bm, ne + be, prec), *_round(tm * um, te + ue, prec), prec)
        um, ue = _add(*_add(*_round(2 * am, ae, prec), j, 0, prec), -1, 0, prec)
        um, ue = _round((1 - j) * um, ue, prec)
        vm, ve = _add(sm, se, *_round(bm * bm, 2 * be, prec), prec)
        um, ue = _round(um * vm, ue + ve, prec)
        fm, fe = _add(*_round(4 * tm * tm, 2 * te, prec), -1, 0, prec)
        return (*_normal(cm, ce), *_normal(*_div(um, ue, *_round(sm * fm, se + fe, prec), prec)))

    def shift(k: int) -> RecurrenceFamily:
        with policy.workprec():  # a + k rounds at the family's precision, not the caller's
            return pj_family(a + k, b, policy)

    def bounds(n: int) -> tuple:
        return -a * b / ((a + n) * (a + n - 1)), -b / (a + n), -b / (a + 1)

    return RecurrenceFamily(
        kind=PSEUDO_JACOBI,
        params={"a": a, "b": b},
        row=row,
        max_valid_degree=nmax,
        label=f"PJ(a={mp.nstr(a, 10)}, b={mp.nstr(b, 10)})",
        paper=Paper(shift, lambda k: [mp.mpc(0, 1)] * k, bounds, lambda: -b),
    )


def custom_family(
    C: Callable[[int], mp.mpf],
    Lambda: Callable[[int], mp.mpf],
    max_valid_degree: Optional[int] = None,
    label: str = "custom",
) -> RecurrenceFamily:
    """The family of the mpf maps C and Lambda, each read at the row's precision and checked finite (``ValueError``)."""
    if max_valid_degree is not None:
        _order(max_valid_degree, "max_valid_degree")

    def row(j: int, prec: int) -> tuple:
        with mp.workprec(prec):
            c, v = to_scalar(C(j)), (to_scalar(Lambda(j)) if j > 1 else mp.mpf(0))
        if not mp.isfinite(c):
            raise ValueError(f"C({j}) = {mp.nstr(c, 8)} is not finite for {label}")
        if not mp.isfinite(v):
            raise _not_positive(j, v, label)
        return (*_unpack(c._mpf_), *_unpack(v._mpf_))

    return RecurrenceFamily(
        kind=CUSTOM,
        params={},
        row=row,
        max_valid_degree=max_valid_degree,
        label=label,
    )


def _normal(m: int, e: int) -> tuple:
    """The kernel pair m * 2**e as ``_unpack`` gives its mpf: an odd mantissa, or (0, 0)."""
    if not m:
        return 0, 0
    t = (m & -m).bit_length() - 1
    return m >> t, e + t


def _not_positive(j: int, value: mp.mpf, label: str) -> ValueError:
    return ValueError(
        f"Lambda({j}) = {mp.nstr(value, 8)} is not positive and finite for {label}; "
        "the recurrence is outside the orthogonality range"
    )


def _three_term(polys: list, m: int, row: Callable[[int], tuple], prec: int) -> None:
    """Extend ``polys`` = [1, P_1, ...] in place to P_m, P_j = (x - c) P_{j-1} - l P_{j-2} at ``prec`` bits.

    ``row(j)`` is the kernel row (c, l) of step j (l is not read at j = 1); the
    ladder and the associated sequences are both grown here.  x P_{j-1} is exact, and two multiply-adds
    (``core._accumulate``) add round(-c P_{j-1,t}), then round(-l P_{j-2,t}), each sum rounded once: the
    roundings of the polynomial operations (x - c) * P_{j-1} - P_{j-2}._scaled(l)."""
    for j in range(len(polys), m + 1):
        cm, ce, lm, le = row(j)
        p = polys[j - 1]._pairs
        out = [(0, 0), *p]
        _accumulate(out, *_round(-cm, ce, prec), p, 0, prec)
        if j > 1:
            _accumulate(out, -lm, le, polys[j - 2]._pairs, 0, prec)
        polys.append(Polynomial._of(out))


def _ladder(family: RecurrenceFamily, n: int, prec: int) -> tuple:
    """p_0, ..., p_n at ``prec`` bits, built by :func:`_three_term` and kept by the family."""
    polys = family.owned(("ladder", prec), lambda: [Polynomial([1])])
    if len(polys) <= n:
        _three_term(polys, n, family.kernel_rows(n, prec).__getitem__, prec)
    return tuple(polys[: n + 1])


def generate(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> Polynomial:
    """Monic degree-n polynomial of the family, built by iterating the recurrence."""
    family.require_degree(n)
    return _ladder(family, n, policy.precision_bits)[n]


def generate_all(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> list:
    """The whole ladder p_0, ..., p_n (cached; cheap to call repeatedly)."""
    family.require_degree(n)
    return list(_ladder(family, n, policy.precision_bits))


def _point(x, policy: TolerancePolicy) -> tuple:
    """x as a kernel pair (m, e), converted at the working precision; a non-finite x raises ``ValueError``."""
    with policy.workprec():
        x = to_scalar(x)
    if not mp.isfinite(x):  # the kernel would read inf and nan as 0
        raise ValueError(f"evaluation point {x} is not finite")
    return _unpack(x._mpf_)


def _sweep(rows: list, n: int, xm: int, xe: int, prec: int, out: Optional[list] = None) -> tuple:
    """(p_n(x), p_n'(x)) as kernel pairs (m, e, dm, de) at x = xm * 2**xe, from a family's kernel rows.

    The one loop that runs the recurrence at a point on the kernel, behind
    :class:`_Rows`, :func:`eval_with_derivative` and the zero
    solver's Newton steps.  Every operation is the mpf operation of the
    recurrence, in the same order, on the exact-rounding kernel of
    :mod:`christoffel.core`, with ``_round`` and the exact sum of operands
    at most ``_NEAR`` exponents apart written out, as in ``_accumulate``;
    sums further apart go to ``_add``.  An x narrower than ``prec`` bits is first shifted to that
    width, the same value: a 64-bit Newton start lies about 190 exponents above C(j), and at full width
    x - C(j) is written out too.  Every operand then has at most ``prec`` bits, so both routes give the
    correctly rounded sum.  With ``out``, the rows (m, e, dm, de) for j = 0..n are appended to it; only
    :meth:`_Rows.sweep` passes one.
    """
    near = _NEAR
    k = prec - xm.bit_length()
    if k > 0:
        xm, xe = xm << k, xe - k
    pm, pe, ppm, ppe = 1, 0, 0, 0  # p_0, p_{-1}
    dm, de, dpm, dpe = 0, 0, 0, 0
    if out is not None:
        out.append((pm, pe, dm, de))
    for cm, ce, lm, le in rows[1 : n + 1]:
        # x - C(j)
        g = xe - ce
        if g > near or g < -near:
            cm, ce = _add(xm, xe, -cm, ce, prec)
        else:
            if g >= 0:
                cm = (xm << g) - cm
            else:
                cm, ce = xm - (cm << -g), xe
            k = cm.bit_length() - prec
            if k > 0:
                t = cm >> (k - 1)
                if t & 1 and (t & 2 or cm & ((1 << (k - 1)) - 1)):
                    t += 2
                cm, ce = t >> 1, ce + k
        # p_j = (x - C(j)) p_{j-1} - L(j) p_{j-2}
        am, ae = cm * pm, ce + pe
        k = am.bit_length() - prec
        if k > 0:
            t = am >> (k - 1)
            if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                t += 2
            am, ae = t >> 1, ae + k
        bm, be = lm * ppm, le + ppe
        k = bm.bit_length() - prec
        if k > 0:
            t = bm >> (k - 1)
            if t & 1 and (t & 2 or bm & ((1 << (k - 1)) - 1)):
                t += 2
            bm, be = t >> 1, be + k
        g = ae - be
        if g > near or g < -near:
            am, ae = _add(am, ae, -bm, be, prec)
        else:
            if g >= 0:
                am, ae = (am << g) - bm, be
            else:
                am -= bm << -g
            k = am.bit_length() - prec
            if k > 0:
                t = am >> (k - 1)
                if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                    t += 2
                am, ae = t >> 1, ae + k
        pm, pe, ppm, ppe = am, ae, pm, pe
        # p_j' = (p_{j-1} + (x - C(j)) p_{j-1}') - L(j) p_{j-2}'
        am, ae = cm * dm, ce + de
        k = am.bit_length() - prec
        if k > 0:
            t = am >> (k - 1)
            if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                t += 2
            am, ae = t >> 1, ae + k
        g = ppe - ae
        if g > near or g < -near:
            am, ae = _add(ppm, ppe, am, ae, prec)
        else:
            if g >= 0:
                am = (ppm << g) + am
            else:
                am, ae = ppm + (am << -g), ppe
            k = am.bit_length() - prec
            if k > 0:
                t = am >> (k - 1)
                if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                    t += 2
                am, ae = t >> 1, ae + k
        bm, be = lm * dpm, le + dpe
        k = bm.bit_length() - prec
        if k > 0:
            t = bm >> (k - 1)
            if t & 1 and (t & 2 or bm & ((1 << (k - 1)) - 1)):
                t += 2
            bm, be = t >> 1, be + k
        g = ae - be
        if g > near or g < -near:
            am, ae = _add(am, ae, -bm, be, prec)
        else:
            if g >= 0:
                am, ae = (am << g) - bm, be
            else:
                am -= bm << -g
            k = am.bit_length() - prec
            if k > 0:
                t = am >> (k - 1)
                if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                    t += 2
                am, ae = t >> 1, ae + k
        dm, de, dpm, dpe = am, ae, dm, de
        if out is not None:
            out.append((pm, pe, dm, de))
    return pm, pe, dm, de


def _christoffel_sum(terms: list, xm: int, xe: int, prec: int) -> tuple:
    """1 + sum_j p_j(x)**2 / h_j as a kernel pair at x = xm * 2**xe, the Gauss weights' Christoffel function,
    over the rows (cm, ce, lm, le, hm, he) of C(j), Lambda(j) and h_j, j = 1, 2, ..., in ``terms``.

    It runs the recurrence for the values only (:func:`_sweep`'s rows give the same bits but also form
    p_j'), each operation the mpf one in the same order, written out as :func:`_sweep` is, which took two
    degree-48 Gauss rules from about 24 to 18 ms.  Every operand has at most ``prec`` bits (the zero x is
    polished at ``prec``), so a sum of operands at most ``_NEAR`` exponents apart is aligned exactly, as
    ``mpf_add`` aligns it or rounds it the same; one further apart goes to ``_add``, and the quotients to ``_div``.
    """
    near = _NEAR
    pm, pe, qm, qe = 1, 0, 0, 0  # p_0, p_{-1}
    dm, de = 1, 0  # j = 0 term
    for cm, ce, lm, le, hm, he in terms:
        # x - C(j)
        g = xe - ce
        if g > near or g < -near:
            cm, ce = _add(xm, xe, -cm, ce, prec)
        else:
            if g >= 0:
                cm = (xm << g) - cm
            else:
                cm, ce = xm - (cm << -g), xe
            k = cm.bit_length() - prec
            if k > 0:
                t = cm >> (k - 1)
                if t & 1 and (t & 2 or cm & ((1 << (k - 1)) - 1)):
                    t += 2
                cm, ce = t >> 1, ce + k
        # p_j = (x - C(j)) p_{j-1} - L(j) p_{j-2}
        am, ae = cm * pm, ce + pe
        k = am.bit_length() - prec
        if k > 0:
            t = am >> (k - 1)
            if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                t += 2
            am, ae = t >> 1, ae + k
        bm, be = lm * qm, le + qe
        k = bm.bit_length() - prec
        if k > 0:
            t = bm >> (k - 1)
            if t & 1 and (t & 2 or bm & ((1 << (k - 1)) - 1)):
                t += 2
            bm, be = t >> 1, be + k
        g = ae - be
        if g > near or g < -near:
            am, ae = _add(am, ae, -bm, be, prec)
        else:
            if g >= 0:
                am, ae = (am << g) - bm, be
            else:
                am -= bm << -g
            k = am.bit_length() - prec
            if k > 0:
                t = am >> (k - 1)
                if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                    t += 2
                am, ae = t >> 1, ae + k
        pm, pe, qm, qe = am, ae, pm, pe
        # denom += p_j * p_j / h_j
        am, ae = pm * pm, 2 * pe
        k = am.bit_length() - prec
        if k > 0:
            t = am >> (k - 1)
            if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                t += 2
            am, ae = t >> 1, ae + k
        am, ae = _div(am, ae, hm, he, prec)
        g = de - ae
        if g > near or g < -near:
            dm, de = _add(dm, de, am, ae, prec)
        else:
            if g >= 0:
                dm, de = (dm << g) + am, ae
            else:
                dm += am << -g
            k = dm.bit_length() - prec
            if k > 0:
                t = dm >> (k - 1)
                if t & 1 and (t & 2 or dm & ((1 << (k - 1)) - 1)):
                    t += 2
                dm, de = t >> 1, de + k
    return dm, de


# The sweep in doubles and its running error bound.  With u = 2**-53, x, C(j) and Lambda(j) read as their nearest
# doubles, and s, a, b, v the doubles s = x - C(j), a = s v_{j-1}, b = Lambda(j) v_{j-2}, v_j = a - b, the bound
#     e_j = ((|s| + w) e_{j-1} + Lambda(j) e_{j-2} + w |v_{j-1}| + r (|a| + 2 |b| + |v_j|) + tau) (1 + 2**-48),
# with w = 2.01 u (|x| + |C(j)|) and e_0 = e_{-1} = 0, bounds |v_j - p_j| for p_j the kernel sweep's value at any
# precision of at least 64 bits (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and
# 5.1, run on both sweeps).  w bounds the difference of the two sweeps' x - C(j): the three roundings to double, u
# each, and the kernel's 2**-64.  r = u (1 + 2**-10) bounds the relative rounding of a, b and v_j and the kernel's
# of its own a, b and p_j, each within 2**-64 <= 2**-11 u; 2 |b| holds Lambda(j)'s conversion as well.  The growth
# factor covers the (1 + u) and (1 + 2**-64) factors of the argument and the roundings of the bound's own
# evaluation, all of whose terms are nonnegative.  tau = 2**-1000 covers an underflow anywhere in a step (each below 2**-1075), so no value
# below it is ever certified, and an overflow makes the bound inf or nan, which certifies nothing after it.  The
# slope's sweep d_j = (v_{j-1} + s d_{j-1}) - Lambda(j) d_{j-2} takes the same bound on its four roundings, and
# e_{j-1} for v_{j-1}.  Inputs are read only while their leading bits lie within +-_RANGE, where the doubles are
# normal; a point or a row outside declines, its rows _DECLINED.
_W = 2.01 * 2.0**-53
_R = 2.0**-53 * (1 + 2.0**-10)
_GROW = 1 + 2.0**-48
_TAU = 2.0**-1000
_RANGE = 1000
_DECLINED = (0.0, 0.0, float("inf"), float("inf"))


def _in_range(m: int, e: int) -> bool:
    """m * 2**e is 0, or its leading bit lies within +-_RANGE."""
    return not m or -_RANGE < m.bit_length() + e <= _RANGE


def _sweep_rows(family: RecurrenceFamily, n: int, points, prec: int) -> Iterator[list]:
    """Per point (xm, xe) of ``points``, in order, the list of rows (v, d, ev, ed) of (p_j(x), p_j'(x)), j = 0..n,
    in doubles: v and d within ev and ed of :func:`_sweep`'s kernel values at ``prec`` >= 64 bits (the bound is
    argued next to ``_W``), or ``_DECLINED`` where the point or a recurrence row lies outside the doubles' range.

    The one place g is swept at the zeros of p_n, whose rows the grid's and the Stieltjes check's interlacing
    verdicts in :mod:`christoffel.zeros` read, through :class:`_Rows`, which sweeps the kernel only at the zeros
    the bounds leave open.  Row j is the same whatever n the sweep runs to, so the grid reads every g_{n-m,k} of
    one n off the rows swept for its first gap m.  It yields one point's rows at a time, so a caller that keeps one
    row per point never holds them all: at degree 48 the Stieltjes check's traced peak is 34 KiB, after the zeros
    are solved (39 KiB with every point's kernel row kept)."""
    rows = family.kernel_rows(n, prec)[1 : n + 1]
    coeffs = [(c, _W * abs(c), lam) for c, lam in ((_float(cm, ce), _float(lm, le)) for cm, ce, lm, le in rows)]
    usable = all(_in_range(cm, ce) and _in_range(lm, le) for cm, ce, lm, le in rows)
    r, tau, grow = _R, _TAU, _GROW
    for xm, xe in points:
        if not (usable and _in_range(xm, xe)):
            yield [_DECLINED] * (n + 1)
            continue
        x = _float(xm, xe)
        v, d, e, f = 1.0, 0.0, 0.0, 0.0  # p_0 and its slope, exact
        pv = pd = pe = pf = 0.0  # p_{-1}
        out = [(v, d, e, f)]
        wx = _W * abs(x)
        for c, wc, lam in coeffs:
            s = x - c
            w = wx + wc
            sw = abs(s) + w
            a = s * v
            b = lam * pv
            vn = a - b
            al = s * d
            sg = v + al
            be = lam * pd
            dn = sg - be
            en = (sw * e + lam * pe + w * abs(v) + r * (abs(a) + 2 * abs(b) + abs(vn)) + tau) * grow
            fn = (e + sw * f + lam * pf + w * abs(d) + r * (abs(al) + abs(sg) + 2 * abs(be) + abs(dn)) + tau) * grow
            pv, pd, pe, pf, v, d, e, f = v, d, e, f, vn, dn, en, fn
            out.append((v, d, e, f))
        yield out


class _Rows:
    """p_d of a family at ``points`` (kernel pairs, in order), as :func:`christoffel.zeros.interlace_strict` reads g.

    ``doubles[i]`` is point i's row (v, d, ev, ed) of :func:`_sweep_rows` (swept here when not given), and
    ``rows[i]`` its kernel row (m, e, dm, de) of :func:`_sweep`, swept on first read and kept.  So the object reads
    as the list of g's kernel rows, and sweeps the kernel only at the points whose row is read."""

    __slots__ = ("doubles", "_kernel", "_rows", "_d", "_points", "_prec")

    def __init__(self, family: RecurrenceFamily, d: int, points, prec: int, doubles: Optional[list] = None):
        if doubles is None:
            doubles = [out[d] for out in _sweep_rows(family, d, points, prec)]
        self.doubles, self._kernel = doubles, {}
        self._rows, self._d, self._points, self._prec = family.kernel_rows(d, prec), d, tuple(points), prec

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, i: int) -> tuple:
        row = self._kernel.get(i)
        if row is None:
            row = self._kernel[i] = _sweep(self._rows, self._d, *self._points[i], self._prec)  # IndexError ends a loop
        return row

    def sweep(self, i: int) -> list:
        """Point i's kernel rows (m, e, dm, de) of (p_j(x), p_j'(x)), j = 0..d, from one :func:`_sweep`."""
        out = []
        _sweep(self._rows, self._d, *self._points[i], self._prec, out=out)
        return out


def eval_with_derivative(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY):
    """(p_n(x), p_n'(x)) by one sweep of the recurrence, with the bits of its mpf operations, far better
    conditioned than Horner on monic coefficients at n = 30.  A non-finite ``x`` raises ``ValueError``."""
    family.require_degree(n)
    prec = policy.precision_bits
    pm, pe, dm, de = _sweep(family.kernel_rows(n, prec), n, *_point(x, policy), prec)
    return _to_mpf(pm, pe), _to_mpf(dm, de)


@dataclass(frozen=True, init=False)
class ModifierSpec:
    """The even monic polynomial c_{2k}(x) = prod (x^2 - x_i^2), given by its nodes.

    ``nodes`` holds x_1, ..., x_k, one per zero pair +-x_i of c; for the
    built-in families they are purely imaginary.  ``c`` is built from them and
    k is their number, so a modifier is checked once, here: each node must be
    finite and give real coefficients (purely imaginary or purely real nodes do).  Any
    multiset of nodes is a modifier: a node repeated, repeated up to sign, or
    the node 0 is a zero of c with multiplicity, which the determinant
    transform takes with confluent rows, the derivatives p^{(s)} at that zero
    (Szego, Orthogonal Polynomials, Thm 2.5).
    """

    nodes: tuple
    c: Polynomial

    def __init__(self, nodes=(), policy: TolerancePolicy = DEFAULT_POLICY):
        with policy.workprec():
            c = Polynomial([1])
            clean = []
            for z in nodes:
                z = mp.mpc(z)
                if not mp.isfinite(z):  # nan passes the test below, as every comparison with it is false
                    raise ValueError(f"node {z} is not finite")
                z2 = z * z
                if abs(z2.imag) > policy.abs_tol * max(1, abs(z2)):
                    raise ValueError(f"node {z} would give a non-real modifier polynomial")
                c = c * Polynomial([-z2.real, 0, 1])
                clean.append(z)
        object.__setattr__(self, "nodes", tuple(clean))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_hash", hash((self.nodes, c)))

    def __hash__(self) -> int:
        return self._hash  # formed once: every decomposition's store key holds the modifier

    @property
    def k(self) -> int:
        return len(self.nodes)


def even_modifier(family: RecurrenceFamily, k: int, policy: TolerancePolicy = DEFAULT_POLICY) -> ModifierSpec:
    """The canonical even modifier of order k for the family, from its paper's nodes, kept per (k, policy).

    Nodes that repeat, as Pseudo-Jacobi's i does, are zeros of c with multiplicity; the determinant
    transform takes them with confluent rows (Szego, Thm 2.5), and agrees with the parameter shift.
    """
    _order(k, "modifier order k")  # [i] * -1 would silently give the order-0 modifier
    paper = family.paper
    if k and paper is None:
        raise ValueError(f"{family.label} has no canonical even modifier")

    def build() -> ModifierSpec:
        with policy.workprec():
            return ModifierSpec(paper.nodes(k) if k else (), policy)

    return family.owned(("even_modifier", k, policy), build)


def _residual(terms: list, prec: int) -> mp.mpf:
    """The relative residual of t_1 - t_2 + t_3 - ... over the kernel pairs ``terms``, as an mpf.

    The identity checks' one ending: the alternating sum formed left to right, each sum rounded to
    ``prec`` bits as ``mpf_add`` rounds it, then ``core._relative``."""
    total = terms[0]
    for i, (m, e) in enumerate(terms[1:]):
        total = _add(*total, m if i % 2 else -m, e, prec)
    return _to_mpf(*_relative(total, terms, prec))


def recurrence_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative residual of the three-term recurrence at a point, degrees >= 2.

    On kernel pairs, with the roundings of the mpf terms p_n(x), (x - C(n)) p_{n-1}(x) and Lambda(n) p_{n-2}(x),
    each p by Horner (``core._horner``)."""
    family.require_degree(n, 2)
    prec = policy.precision_bits
    xm, xe = _point(x, policy)
    ladder = _ladder(family, n, prec)
    cm, ce, lm, le = family.kernel_rows(n, prec)[n]
    (am, ae), (bm, be), (um, ue) = (_horner(p._pairs, xm, xe, prec) for p in ladder[n - 2 :])
    vm, ve = _add(xm, xe, -cm, ce, prec)
    return _residual([(um, ue), _round(vm * bm, ve + be, prec), _round(lm * am, le + ae, prec)], prec)


def mp_symmetry_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative defect of P_n(x; phi) = (-1)^n P_n(-x; -phi) for a Meixner-Pollaczek family.

    On kernel pairs, with the roundings of the mpf values P_n(x; phi) and (-1)^n P_n(-x; -phi) by Horner
    (negation rounds as ``mpf`` negation does)."""
    if family.kind != MEIXNER_POLLACZEK:
        raise ValueError(f"the phi -> -phi symmetry holds for Meixner-Pollaczek families, not {family.label}")
    # phi -> -phi flips the sign of C and leaves Lambda unchanged, so the
    # mirrored recurrence is legal even though -phi itself is not; the
    # negation is exact, so the mirror matches a closed form bit for bit.  The
    # mirror holds the row function, not the family, so keeping it makes no reference cycle.
    row = family.row

    def mirrored(j: int, prec: int) -> tuple:
        cm, ce, lm, le = row(j, prec)
        return -cm, ce, lm, le

    mirror = family.owned(
        "mirror", lambda: RecurrenceFamily(CUSTOM, {}, mirrored, None, f"mirror of {family.label}")
    )
    prec = policy.precision_bits
    xm, xe = _point(x, policy)
    lhs = _horner(generate(family, n, policy)._pairs, xm, xe, prec)
    rm, re = _horner(generate(mirror, n, policy)._pairs, *_round(-xm, xe, prec), prec)
    return _residual([lhs, _round(-rm if n % 2 else rm, re, prec)], prec)
