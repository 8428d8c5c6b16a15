"""Precision-configurable scalar and dense polynomial arithmetic.

Every number the public API takes or returns is an mpmath real (``mpf``) or
complex (``mpc``) value, apart from the rows of g that ``zeros.interlace_strict``
reads and the ``points`` of a ``zeros.ZeroSet``, which are the kernel pairs below.  Precision is a property of operations, not of
values: public entry points take a :class:`TolerancePolicy` and run their
arithmetic under ``mp.workprec(policy.precision_bits)``.  Values produced
at one precision can be fed into a computation at another; they are simply
re-rounded by the first operation that touches them.

Polynomials are dense, real-coefficient and immutable.  Degrees in this
package stay tiny (a few dozen), so schoolbook multiplication and long
division are used throughout.  A polynomial keeps its coefficients once, as
finite pairs of the exact-rounding kernel below; that they are finite is
checked where a :class:`Polynomial` is built from outside data (and on a
scalar factor), and the ring operations keep it (exponents are unbounded).

The kernel works on signed Python-int mantissas with exponents: each sum,
product or quotient (:func:`_div`) is formed exactly, or with a sticky bit,
and rounded once, nearest with ties to even; comparisons (:func:`_cmp`) are
exact.  That is how mpmath rounds every product and quotient and every sum
whose operands it aligns (exponents at most 100 apart, or leading bits at
most ``prec + 4`` apart), and every square root (:func:`_sqrt`), so the bits
are the same; other sums go to mpmath's ``mpf_add`` (which never aligns
1e400000000 with 1 bit by bit), and non-finite points are rejected where
they enter.  :func:`_round` gives the argument.  Polynomials, the
recurrences of :mod:`christoffel.families`, the connection pair, the zero
solver and the determinant transform (complex values as quadruples, in
libmpc's roundings) run on it; results leave it as mpf or mpc values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, inf, isqrt, ldexp
from typing import Iterable, Sequence

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_add, mpf_hypot, round_down, round_nearest


class NonFiniteError(ArithmeticError):
    """An operation produced an infinity or NaN."""


class RemainderError(ArithmeticError):
    """A division expected to be exact left a remainder above tolerance."""


def to_scalar(x) -> mp.mpf:
    """Coerce ``x`` (int, float, str, Fraction, mpf) to an mpf at the ambient precision.

    Decimal strings are the preferred way to state exact decimal inputs such
    as table parameters: ``to_scalar("0.9")`` rounds the decimal 0.9 at the
    working precision instead of going through a 53-bit float.  A string
    mpmath cannot read and a complex value raise ``ValueError``.
    """
    if isinstance(x, mp.mpf):
        return x
    try:
        value = mp.mpmathify(x)
    except TypeError:
        if not isinstance(x, str):
            raise
        raise ValueError(f"expected a real number, got {x!r}") from None
    if isinstance(value, mp.mpc):
        raise ValueError(f"expected a real number, got complex {x!r}")
    return value


def require_finite(x, what: str = "value"):
    if not mp.isfinite(x):
        raise NonFiniteError(f"{what} is not finite: {x}")
    return x


@dataclass(frozen=True)
class TolerancePolicy:
    """Working precision plus the tolerances derived from it.

    ``rel_tol`` and ``abs_tol`` both default to ``2**(-precision_bits // 2)``,
    half the working precision.  That leaves the other half as headroom, so a
    residual above tolerance signals a genuine identity violation rather than
    accumulated roundoff.  Given tolerances are rounded at ``precision_bits``.
    """

    precision_bits: int = 256
    rel_tol: mp.mpf = None
    abs_tol: mp.mpf = None

    def __post_init__(self):
        if not isinstance(self.precision_bits, int):
            raise ValueError(f"precision_bits must be an integer number of bits, got {self.precision_bits!r}")
        if self.precision_bits < 64:
            raise ValueError("precision_bits must be at least 64")
        with mp.workprec(self.precision_bits):
            for name in ("rel_tol", "abs_tol"):
                given = getattr(self, name)
                value = mp.ldexp(1, -(self.precision_bits // 2)) if given is None else to_scalar(given)
                if not 0 < value < mp.inf:
                    raise ValueError(f"{name} must be positive and finite, got {value}")
                object.__setattr__(self, name, value)

    def workprec(self):
        """Context manager setting the ambient mpmath precision."""
        return mp.workprec(self.precision_bits)


DEFAULT_POLICY = TolerancePolicy()


# -- exact-rounding kernel ---------------------------------------------------

_NEAR = 100  # the largest exponent gap at which mpf_add aligns its operands exactly


def _unpack(v: tuple) -> tuple:
    """(m, e) with a signed mantissa from a finite raw ``_mpf_`` tuple (0 reads as (0, 0))."""
    sign, man, exp, _ = v
    return (-man if sign else man), exp


def _to_mpf(m: int, e: int) -> mp.mpf:
    """The mpf m * 2**e, exactly (``from_man_exp`` without a precision only normalizes)."""
    return mp.make_mpf(from_man_exp(m, e))


def _round(m: int, e: int, prec: int) -> tuple:
    """m * 2**e rounded to ``prec`` bits, nearest with ties to even.

    Why the kernel gives mpmath's bits: ``mpf_mul`` forms the exact product
    and rounds it once with this rule (``normalize`` at ``round_nearest``),
    so ``_round(ma * mb, ea + eb, prec)`` is the mpf product.  ``mpf_add``
    aligns its operands exactly and rounds once the same way whenever their
    leading bits lie at most ``prec + 4`` bits apart, and so does
    :func:`_add`.  Further apart it aligns them only when their exponents
    differ by at most ``_NEAR``; otherwise it nudges the larger operand by
    one unit ``prec + 4`` bits below its last bit.  That is the correctly
    rounded sum when the larger operand has at most ``prec`` bits, but not
    always when both are wider (a point or coefficient kept at a higher
    precision, or an exact product), and the exponents it compares are
    those of normalized values, which kernel pairs are not.  So
    :func:`_add` hands those sums to ``mpf_add`` itself, which also spares
    aligning 1e400000000 with 1.  Inf and nan carry mantissa 0 and would
    read as zero; the callers reject them.

    The rounding works on the signed mantissa: ``>>`` floors, so t below is
    floor(2 m / 2**n) for either sign, its low bit says whether the dropped
    part is at least one half, and the bits below it (two's complement)
    whether it is more.  A mantissa that rounds up to 2**prec keeps that
    value; ``_to_mpf`` stores it as a power of two.
    """
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    t = m >> (n - 1)
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        t += 2
    return t >> 1, e + n


def _add(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    """m1 * 2**e1 + m2 * 2**e2 rounded to ``prec`` bits, the bits of ``mpf_add`` (see :func:`_round`).

    Aligned exactly when the leading bits lie at most ``prec + 4`` bits apart;
    otherwise a zero operand leaves the other rounded, and any other sum goes to ``mpf_add``.
    """
    d = e1 - e2
    if -prec - 4 <= m1.bit_length() - m2.bit_length() + d <= prec + 4:
        if d >= 0:
            return _round((m1 << d) + m2, e2, prec)
        return _round(m1 + (m2 << -d), e1, prec)
    if not m1:
        return _round(m2, e2, prec)
    if not m2:
        return _round(m1, e1, prec)
    return _unpack(mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), prec, round_nearest))


def _accumulate(out: list, wm: int, we: int, pairs, i: int, prec: int) -> None:
    """out[i + j] += w * pairs[j] for every j, in place, the product and the sum each rounded once as by mpf.

    The multiply-add loop of the product, division and connection pair.  As in ``families._sweep``,
    :func:`_round` is written out, and so is the exact sum of operands at most ``_NEAR`` exponents
    apart.  That is ``mpf_add``'s sum (see :func:`_round`): an operand wider than ``prec`` bits here
    is a coefficient or point unpacked from an mpf, whose exponent is the one ``mpf_add`` reads.
    Sums further apart go to :func:`_add`, and a zero accumulator takes the rounded product as it is.
    """
    near = _NEAR
    for j, (bm, be) in enumerate(pairs, i):
        pm, pe = wm * bm, we + be
        k = pm.bit_length() - prec
        if k > 0:
            t = pm >> (k - 1)
            if t & 1 and (t & 2 or pm & ((1 << (k - 1)) - 1)):
                t += 2
            pm, pe = t >> 1, pe + k
        om, oe = out[j]
        if om:
            g = oe - pe
            if g > near or g < -near:
                pm, pe = _add(om, oe, pm, pe, prec)
            else:
                if g >= 0:
                    pm += om << g
                else:
                    pm, pe = om + (pm << -g), oe
                k = pm.bit_length() - prec
                if k > 0:
                    t = pm >> (k - 1)
                    if t & 1 and (t & 2 or pm & ((1 << (k - 1)) - 1)):
                        t += 2
                    pm, pe = t >> 1, pe + k
        out[j] = pm, pe


def _horner(pairs, xm: int, xe: int, prec: int) -> tuple:
    """The polynomial with ascending coefficient pairs ``pairs`` at x = xm * 2**xe, by Horner.

    Each step is the mpf acc * x + c, written out as in :func:`_accumulate`; a zero acc only rounds c.
    """
    near = _NEAR
    am = ae = 0
    for cm, ce in reversed(pairs):
        if am:
            am, ae = am * xm, ae + xe
            k = am.bit_length() - prec
            if k > 0:
                t = am >> (k - 1)
                if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                    t += 2
                am, ae = t >> 1, ae + k
            g = ae - ce
            if g > near or g < -near:
                am, ae = _add(am, ae, cm, ce, prec)
                continue
            if g >= 0:
                am, ae = (am << g) + cm, ce
            else:
                am += cm << -g
        else:
            am, ae = cm, ce
        k = am.bit_length() - prec
        if k > 0:
            t = am >> (k - 1)
            if t & 1 and (t & 2 or am & ((1 << (k - 1)) - 1)):
                t += 2
            am, ae = t >> 1, ae + k
    return am, ae


def _div(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    """m1 * 2**e1 / (m2 * 2**e2) rounded to ``prec`` bits, the bits of ``mpf_div``.

    As ``mpf_div`` does, the quotient is taken to at least ``prec + 4`` bits
    and a nonzero remainder is kept as a sticky low bit, so the one rounding
    is the correctly rounded quotient (``mpf_div`` divides exactly by a power
    of two, which rounds the same).  A zero divisor raises ``ZeroDivisionError``.
    """
    a, b = abs(m1), abs(m2)
    extra = max(5, prec - a.bit_length() + b.bit_length() + 5)
    q, r = divmod(a << extra, b)
    if r:
        q, extra = (q << 1) | 1, extra + 1
    return _round(-q if (m1 < 0) != (m2 < 0) else q, e1 - e2 - extra, prec)


def _sqrt(m: int, e: int, prec: int) -> tuple:
    """sqrt(m * 2**e), m >= 0, rounded to ``prec`` bits, the bits of ``mpf_sqrt``.

    As ``mpf_sqrt`` does, the integer root of the mantissa shifted to at least 2 prec + 4 bits is taken, an
    inexact one is marked by a sticky low bit, and the one rounding is the correctly rounded root.
    """
    if e & 1:
        m, e = m << 1, e - 1
    shift = max(4, 2 * prec + 4 - m.bit_length())
    shift += shift & 1
    r = isqrt(m << shift)
    if r * r != m << shift:
        r, shift = 2 * r + 1, shift + 2
    return _round(r, (e - shift) // 2, prec)


def _float(m: int, e: int) -> float:
    """m * 2**e as ``float(mpf)`` gives it (``to_float``, nearest): rounded to 53 bits, then ``ldexp``; +-inf past the doubles."""
    m, e = _round(m, e, 53)
    try:
        return ldexp(m, e)
    except OverflowError:
        return copysign(inf, m)


def _cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """-1, 0 or 1 as m1 * 2**e1 is below, equal to or above m2 * 2**e2, the value of ``mpf_cmp``.

    Exact whatever the exponents: beyond an exponent gap of ``_NEAR``,
    operands of opposite sign or different leading-bit positions are ordered
    without aligning them, and the rest align within their own lengths.
    """
    d = e1 - e2
    if not -_NEAR <= d <= _NEAR:
        s1, s2 = (m1 > 0) - (m1 < 0), (m2 > 0) - (m2 < 0)
        if s1 != s2 or not s1:
            return (s1 > s2) - (s1 < s2)
        t1, t2 = m1.bit_length() + e1, m2.bit_length() + e2
        if t1 != t2:
            return s1 if t1 > t2 else -s1
    if d >= 0:
        m1 <<= d
    else:
        m2 <<= -d
    return (m1 > m2) - (m1 < m2)


def _add_down(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple:
    """:func:`_add` truncated toward zero instead, the bits of ``mpf_add`` at ``round_down``.

    That is mpmath's default rounding ``round_fast``, at which ``mpc_div`` forms its sums at prec + 10
    bits; the sums that :func:`_add` hands to ``mpf_add`` go to it here too.
    """
    d = e1 - e2
    if -prec - 4 <= m1.bit_length() - m2.bit_length() + d <= prec + 4:
        m, e = ((m1 << d) + m2, e2) if d >= 0 else (m1 + (m2 << -d), e1)
        n = m.bit_length() - prec
        return (m, e) if n <= 0 else ((m >> n if m > 0 else -(-m >> n)), e + n)
    return _unpack(mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), prec, round_down))


# A complex value a + bi is the quadruple (am, ae, bm, be) of its parts' pairs; each operation
# below gives the bits of the libmpc one at round_nearest, as ``mp.mpc`` arithmetic calls it.


def _cmul(am, ae, bm, be, cm, ce, dm, de, prec: int) -> tuple:
    """(a + bi)(c + di), as ``mpc_mul``: four exact products, and each part their one rounded sum."""
    return (*_add(am * cm, ae + ce, -bm * dm, be + de, prec), *_add(am * dm, ae + de, bm * cm, be + ce, prec))


def _csub(am, ae, bm, be, cm, ce, dm, de, prec: int) -> tuple:
    """(a + bi) - (c + di), as ``mpc_sub``."""
    return (*_add(am, ae, -cm, ce, prec), *_add(bm, be, -dm, de, prec))


def _cnorm(cm, ce, dm, de, prec: int) -> tuple:
    """c**2 + d**2 as ``mpc_div`` forms it for the divisor c + di: truncated to prec + 10 bits."""
    return _add_down(cm * cm, 2 * ce, dm * dm, 2 * de, prec + 10)


def _cdiv(am, ae, bm, be, cm, ce, dm, de, norm: tuple, prec: int) -> tuple:
    """(a + bi) / (c + di), as ``mpc_div``, given the divisor's :func:`_cnorm` (formed once per divisor).

    ac + bd and bc - ad are truncated to prec + 10 bits too; each is then divided by the norm and rounded.
    """
    t = _add_down(am * cm, ae + ce, bm * dm, be + de, prec + 10)
    u = _add_down(bm * cm, be + ce, -am * dm, ae + de, prec + 10)
    return (*_div(*t, *norm, prec), *_div(*u, *norm, prec))


def _cabs(am, ae, bm, be, prec: int) -> mp.mpf:
    """|a + bi|, as ``mpc_abs``: libmp's ``mpf_hypot``, whose inner sum is truncated."""
    return mp.make_mpf(mpf_hypot(from_man_exp(am, ae), from_man_exp(bm, be), prec, round_nearest))


def _chorner(pairs, xm: int, xe: int, ym: int, ye: int, prec: int) -> tuple:
    """The polynomial with ascending coefficient pairs ``pairs`` at x + yi, by Horner, as a quadruple.

    Each step is the mpc acc * z + c: ``mpc_mul``, then ``mpc_add_mpf``, which rounds the real part only.
    """
    am = ae = bm = be = 0
    for cm, ce in reversed(pairs):
        am, ae, bm, be = _cmul(am, ae, bm, be, xm, xe, ym, ye, prec)
        am, ae = _add(am, ae, cm, ce, prec)
    return am, ae, bm, be


class Polynomial:
    """Dense real-coefficient polynomial, ascending degree order.

    Immutable.  Trailing coefficients that are exactly zero are trimmed at
    construction, so the leading coefficient is nonzero unless the polynomial
    is identically zero (``degree == -1``, empty coefficient tuple).
    Approximate dust is never trimmed implicitly; callers decide via
    :meth:`chop` with a threshold from their tolerance policy.

    The coefficients are kept once, as kernel pairs (m, e) = m * 2**e in ``_pairs``, and
    :attr:`coeffs` makes mpf values of them on each access.  Each operation is the mpf one in
    the same order at the ambient precision, where negation, ``abs`` and ``int *`` round too.
    """

    __slots__ = ("_pairs",)

    def __init__(self, coeffs: Iterable = ()):
        pairs = [_unpack(require_finite(to_scalar(c), "polynomial coefficient")._mpf_) for c in coeffs]
        object.__setattr__(self, "_pairs", Polynomial._of(pairs)._pairs)

    @classmethod
    def _of(cls, pairs: list) -> "Polynomial":
        """The ring operations' constructor: ``pairs`` are finite already, so it only trims them."""
        while pairs and not pairs[-1][0]:
            pairs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "_pairs", tuple(pairs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(_to_mpf(m, e) for m, e in self._pairs)

    @property
    def degree(self) -> int:
        return len(self._pairs) - 1

    def is_zero(self) -> bool:
        return not self._pairs

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def _value_form(self) -> tuple:
        """The pairs with their mantissas' trailing zero bits stripped: equal values give equal forms."""
        return tuple((m >> t, e + t) if m else (0, 0) for m, e in self._pairs for t in ((m & -m).bit_length() - 1,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._value_form() == other._value_form()

    def __hash__(self) -> int:
        return hash(self._value_form())

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(mp.nstr(c, 8) for c in self.coeffs)}])"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if len(self._pairs) < len(other._pairs):  # the longer side's own coefficients are kept unrounded
            return other._plus(self, 1)
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, with ``mpf_add`` or ``mpf_sub`` on each coefficient of other."""
        prec = mp.prec
        out = list(self._pairs) + [(0, 0)] * (len(other._pairs) - len(self._pairs))
        for i, (m, e) in enumerate(other._pairs):
            out[i] = _add(*out[i], sign * m, e, prec)
        return Polynomial._of(out)

    def __neg__(self) -> "Polynomial":
        return self._scaled(-1, 0)  # mpf negation rounds, as the product by -1 does

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial._of([])
            prec = mp.prec
            out = [(0, 0)] * (len(self._pairs) + len(other._pairs) - 1)
            for i, (am, ae) in enumerate(self._pairs):
                _accumulate(out, am, ae, other._pairs, i, prec)
            return Polynomial._of(out)
        return self._scaled(*_unpack(require_finite(to_scalar(other), "scalar factor")._mpf_))

    __rmul__ = __mul__

    def _scaled(self, cm: int, ce: int) -> "Polynomial":
        """c times the polynomial, for a finite c = cm * 2**ce the caller has already checked or computed."""
        prec = mp.prec
        return Polynomial._of([_round(cm * m, ce + e, prec) for m, e in self._pairs])

    def derivative(self) -> "Polynomial":
        prec = mp.prec
        return Polynomial._of([_round(i * m, e, prec) for i, (m, e) in enumerate(self._pairs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lm, le = self._pairs[-1]
        if not _cmp(lm, le, 1, 0):
            return self
        prec = mp.prec
        return Polynomial._of([_div(m, e, lm, le, prec) for m, e in self._pairs])

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation on the kernel; the result type follows the argument (mpf or mpc).

        The point must be finite (``NonFiniteError`` otherwise), as kernel pairs carry no inf or nan.
        """
        if not isinstance(z, (mp.mpf, mp.mpc)):
            z = to_scalar(z)
        require_finite(z, "evaluation point")
        if isinstance(z, mp.mpf):
            return _to_mpf(*_horner(self._pairs, *_unpack(z._mpf_), mp.prec))
        am, ae, bm, be = _chorner(self._pairs, *_unpack(z._mpc_[0]), *_unpack(z._mpc_[1]), mp.prec)
        return mp.make_mpc((from_man_exp(am, ae), from_man_exp(bm, be)))

    # -- division ------------------------------------------------------------

    def __divmod__(self, den: "Polynomial"):
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        prec = mp.prec
        rem = list(self._pairs)
        dm, de = den._pairs[-1]
        dn = den.degree
        quo = [(0, 0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            fm, fe = quo[i - dn] = _div(*rem[i], dm, de, prec)
            if fm:
                _accumulate(rem, -fm, fe, den._pairs, i - dn, prec)
            rem[i] = (0, 0)
        return Polynomial._of(quo), Polynomial._of(rem)

    def divide_exact(self, den: "Polynomial", policy: TolerancePolicy = DEFAULT_POLICY) -> "Polynomial":
        """Quotient of an (expected) exact division.

        Raises :class:`RemainderError` if the remainder's sup norm exceeds
        ``abs_tol`` times the numerator's sup norm; otherwise the remainder is
        dropped as roundoff dust.
        """
        quo, rem = divmod(self, den)
        gate = policy.abs_tol * max(self.inf_norm(), mp.mpf(1))
        if rem.inf_norm() > gate:
            raise RemainderError(
                f"division remainder {mp.nstr(rem.inf_norm(), 6)} above tolerance "
                f"{mp.nstr(gate, 6)}; numerator is not divisible by denominator"
            )
        return quo

    # -- norms and cleanup ----------------------------------------------------

    def inf_norm(self) -> mp.mpf:
        prec = mp.prec
        top = (0, 0)
        for m, e in self._pairs:
            m, e = _round(abs(m), e, prec)
            if _cmp(m, e, *top) > 0:
                top = m, e
        return _to_mpf(*top)

    def chop(self, threshold) -> "Polynomial":
        """Zero every coefficient with absolute value <= threshold, which must be finite."""
        prec = mp.prec
        tm, te = _unpack(require_finite(to_scalar(threshold), "chop threshold")._mpf_)
        return Polynomial._of([(m, e) if _cmp(*_round(abs(m), e, prec), tm, te) > 0 else (0, 0) for m, e in self._pairs])


def relative_residual(total, terms: Sequence) -> mp.mpf:
    """|total| scaled by the largest term magnitude (0 when every term vanishes).

    Identity checks in this package report residuals relative to the size of
    what was cancelled; raw polynomial values at degree 30 reach 1e40 and make
    absolute residuals meaningless.
    """
    scale = max((abs(t) for t in terms), default=mp.mpf(0))
    if scale == 0:
        return abs(mp.mpf(total)) if total else mp.mpf(0)
    return abs(total) / scale
