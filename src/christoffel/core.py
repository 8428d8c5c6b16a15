"""Precision-configurable scalar and dense polynomial arithmetic.

Every numeric quantity in this package is an mpmath real (``mpf``) or
complex (``mpc``) value.  Precision is a property of operations, not of
values: public entry points take a :class:`TolerancePolicy` and run their
arithmetic under ``mp.workprec(policy.precision_bits)``.  Values produced
at one precision can be fed into a computation at another; they are simply
re-rounded by the first operation that touches them.

Polynomials are dense, real-coefficient and immutable.  Degrees in this
package stay tiny (a few dozen), so schoolbook multiplication and long
division are used throughout.

Coefficients are finite mpf values.  That is checked once, where a
:class:`Polynomial` is built from outside data (and on a scalar factor);
the ring operations preserve it, because finite mpf inputs give finite mpf
results (mpf exponents are unbounded), so they build their results without
re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from mpmath import mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, round_nearest


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


class Polynomial:
    """Dense real-coefficient polynomial, ascending degree order.

    Immutable.  Trailing coefficients that are exactly zero are trimmed at
    construction, so the leading coefficient is nonzero unless the polynomial
    is identically zero (``degree == -1``, empty coefficient tuple).
    Approximate dust is never trimmed implicitly; callers decide via
    :meth:`chop` with a threshold from their tolerance policy.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [require_finite(to_scalar(c), "polynomial coefficient") for c in coeffs]
        object.__setattr__(self, "coeffs", Polynomial._of(cs).coeffs)

    @classmethod
    def _of(cls, cs: list) -> "Polynomial":
        """The ring operations' constructor: ``cs`` are finite mpf already, so it only trims them."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(mp.nstr(c, 8) for c in self.coeffs)}])"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._of(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [mp.mpf(0)] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return Polynomial._of(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial._of([])
            # schoolbook on raw libmp values: the calls mpf's * and += make
            prec, rnd = mp.prec, round_nearest
            bs = [b._mpf_ for b in other.coeffs]
            out = [fzero] * (len(self.coeffs) + len(bs) - 1)
            for i, a in enumerate(self.coeffs):
                a = a._mpf_
                for j, b in enumerate(bs, i):
                    out[j] = mpf_add(out[j], mpf_mul(a, b, prec, rnd), prec, rnd)
            return Polynomial._of([mp.make_mpf(c) for c in out])
        return self._scaled(require_finite(to_scalar(other), "scalar factor"))

    __rmul__ = __mul__

    def _scaled(self, c) -> "Polynomial":
        """``c`` times the polynomial, for a finite mpf ``c`` the caller has already checked or computed."""
        return Polynomial._of([c * a for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial._of([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial._of([c / lead for c in self.coeffs])

    # -- evaluation ----------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation; the result type follows the argument (mpf or mpc)."""
        if not isinstance(z, (mp.mpf, mp.mpc)):
            z = to_scalar(z)
        if isinstance(z, mp.mpf):  # raw libmp values: the calls mpf's * and + make
            prec, zr, acc = mp.prec, z._mpf_, fzero
            for c in reversed(self.coeffs):
                acc = mpf_add(mpf_mul(acc, zr, prec, round_nearest), c._mpf_, prec, round_nearest)
            acc = mp.make_mpf(acc)
        else:
            acc = mp.mpf(0)
            for c in reversed(self.coeffs):
                acc = acc * z + c
        require_finite(acc, "polynomial value")
        return acc

    # -- division ------------------------------------------------------------

    def __divmod__(self, den: "Polynomial"):
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = den.coeffs[-1]
        dn = den.degree
        quo = [mp.mpf(0)] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            f = rem[i] / dlead
            quo[i - dn] = f
            if f != 0:
                for j, c in enumerate(den.coeffs):
                    rem[i - dn + j] -= f * c
            rem[i] = mp.mpf(0)
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
        return max((abs(c) for c in self.coeffs), default=mp.mpf(0))

    def chop(self, threshold) -> "Polynomial":
        """Zero every coefficient with absolute value <= threshold."""
        t = to_scalar(threshold)
        return Polynomial._of([c if abs(c) > t else mp.mpf(0) for c in self.coeffs])


X = Polynomial([0, 1])


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
