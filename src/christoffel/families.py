"""Orthogonal polynomial families defined by their three-term recurrences.

A family is the pair of coefficient maps C(n), Lambda(n) in the monic
recurrence

    p_n(x) = (x - C(n)) p_{n-1}(x) - Lambda(n) p_{n-2}(x),   p_0 = 1,

together with a validity range.  Lambda(n) > 0 over the whole range is what
makes the sequence orthogonal with respect to a positive weight, hence real
simple zeros and a symmetric Jacobi matrix.

Built-in families:

* Meixner-Pollaczek, parameters lambda > 0 and 0 < phi < pi:
      C(n) = -(lambda + n - 1) cot(phi)
      Lambda(n) = (n - 1)(2 lambda + n - 2) / (4 sin(phi)^2)
  valid for every degree.

* Pseudo-Jacobi, parameters a, b with a < -2:
      C(n) = -a b / ((a + n - 1)(a + n))
      Lambda(n) = -(n-1)(2a + n - 1)((a + n - 1)^2 + b^2)
                  / ((a + n - 1)^2 (4 (a + n - 1)^2 - 1))
  valid for degrees n with a < -n only.

Both support the canonical even weight modification: multiplying the weight
by the even polynomial ``c_{2k}`` produced by :func:`even_modifier` shifts
the family parameter (lambda -> lambda + k, a -> a + k), which is the cheap
independent route to the modified polynomials used as an oracle for the
determinant-based Christoffel transform.

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
from functools import cmp_to_key
from typing import Callable, Mapping, Optional

from mpmath import mp
from mpmath.libmp import fone, from_man_exp, from_str, mpf_abs, mpf_add, mpf_cmp, mpf_mul, mpf_shift, mpf_sub
from mpmath.libmp import round_nearest as _N

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, relative_residual, to_scalar
from .core import _NEAR, _add, _cmp, _div, _float, _round, _sqrt, _to_mpf, _unpack  # the exact-rounding kernel

MEIXNER_POLLACZEK = "meixner_pollaczek"
PSEUDO_JACOBI = "pseudo_jacobi"
CUSTOM = "custom"
_PAD = from_str("0.001", 64, _N)  # the zero solver pads the Gershgorin interval by this share of its width
_ORDER = cmp_to_key(mpf_cmp)  # raw mpf values by value


def _snapped_cot(phi):
    """cos(phi)/sin(phi), snapped to exactly 0 when phi is pi/2 to working precision.

    Computed as a quotient of cos and sin, never 1/tan: tan blows up at pi/2
    while cot is finite there, and phi = 1.57 sits right next to the pole.
    """
    c = mp.cos(phi)
    if abs(c) <= mp.ldexp(1, -mp.prec + 4):
        return mp.mpf(0)
    return c / mp.sin(phi)


@dataclass(frozen=True, eq=False)
class RecurrenceFamily:
    """Recurrence coefficient provider plus parameter record and validity range.

    ``row(j, prec)`` is the recurrence's one definition: the kernel row (cm, ce, lm, le) of
    C(j) = cm * 2**ce and Lambda(j) = lm * 2**le at ``prec`` bits, normalised as ``_unpack``
    gives an mpf (Lambda(1) is 0).  ``max_valid_degree`` is None for an unbounded family.
    Instances are immutable and compared by identity.  Everything derived from the
    recurrence lives in a private store, filled through :meth:`owned` and freed together
    with the family.
    """

    kind: str
    params: Mapping[str, mp.mpf]
    row: Callable[[int, int], tuple]
    max_valid_degree: Optional[int]
    label: str
    precision_bits: int = 256
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

    def require_degree(self, n: int):
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if self.max_valid_degree is not None and n > self.max_valid_degree:
            raise ValueError(
                f"degree {n} exceeds the validity range of {self.label} "
                f"(max valid degree {self.max_valid_degree})"
            )

    @property
    def supports_shift(self) -> bool:
        return self.kind in (MEIXNER_POLLACZEK, PSEUDO_JACOBI)

    def shifted(self, k: int) -> "RecurrenceFamily":
        """The family orthogonal with respect to c_{2k}(x) w(x), via parameter shift (kept).

        c_0 = 1, so ``shifted(0)`` is the family itself, not stored: a family
        that stored itself would be a reference cycle, left to the collector.
        """
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self

        def build() -> "RecurrenceFamily":
            # the parameter sum must round at the family's precision, not at
            # whatever ambient precision the caller happens to be running under
            policy = TolerancePolicy(precision_bits=self.precision_bits)
            with policy.workprec():
                if self.kind == MEIXNER_POLLACZEK:
                    return mp_family(self.params["lambda"] + k, self.params["phi"], policy)
                if self.kind == PSEUDO_JACOBI:
                    return pj_family(self.params["a"] + k, self.params["b"], policy)
            raise ValueError(f"{self.label} has no canonical parameter shift")

        return self.owned(("shifted", k), build)


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
    off-diagonal.  Every value is the mpf set-up's bit for bit: each step on raw mpf values, rounded to
    nearest at 64 bits up to the spread and at ``prec`` bits from the centre on, and the doubles rounded as
    ``float(mpf)`` rounds them.
    """
    lo, hi = (from_man_exp(m, e) for m, e in _gershgorin(rows, 64))  # raw values from here on
    span = mpf_sub(hi, lo, 64, _N)
    pad = mpf_mul(span, _PAD, 64, _N)
    lo, hi = mpf_sub(lo, pad, 64, _N), mpf_add(hi, pad, 64, _N)
    spread = mpf_sub(hi, lo, 64, _N)
    tiny = mpf_shift(spread if spread[1] else mpf_abs(hi), -120)
    width = mpf_shift(spread, -44)
    if not spread[1]:
        (lm, le), (hm, he) = _gershgorin(rows, prec)
        width = mpf_shift(from_man_exp(*_add(hm, he, -lm, le, prec)), -44)
    widen = mpf_add(width, mpf_shift(max(mpf_abs(lo), mpf_abs(hi), key=_ORDER), -60), prec, _N)
    om, oe = centre = _unpack(mpf_shift(mpf_add(lo, hi, prec, _N), -1))
    scale = spread[2] + spread[3]  # 0 for 0
    fdiag = [_float(m, e - scale) for m, e in (_add(cm, ce, -om, oe, prec) for cm, ce, _, _ in rows)]
    foffsq = [_float(lm, le - 2 * scale) for _, _, lm, le in rows[1:]]
    pairs = map(_unpack, (lo, hi, spread, tiny, width, min(span, fone, key=_ORDER)))
    return (*pairs, centre, _unpack(widen), scale, fdiag, foffsq)


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

    return RecurrenceFamily(
        kind=MEIXNER_POLLACZEK,
        params={"lambda": lam, "phi": phi},
        row=row,
        max_valid_degree=None,
        label=f"MP(lambda={mp.nstr(lam, 10)}, phi={mp.nstr(phi, 10)})",
        precision_bits=policy.precision_bits,
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

    return RecurrenceFamily(
        kind=PSEUDO_JACOBI,
        params={"a": a, "b": b},
        row=row,
        max_valid_degree=nmax,
        label=f"PJ(a={mp.nstr(a, 10)}, b={mp.nstr(b, 10)})",
        precision_bits=policy.precision_bits,
    )


def custom_family(
    C: Callable[[int], mp.mpf],
    Lambda: Callable[[int], mp.mpf],
    max_valid_degree: Optional[int] = None,
    label: str = "custom",
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> RecurrenceFamily:
    """The family of the mpf maps C and Lambda, each read at the row's precision and checked finite (``ValueError``)."""

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
        precision_bits=policy.precision_bits,
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
    ladder and the associated sequences are both grown here."""
    with mp.workprec(prec):
        for j in range(len(polys), m + 1):
            cm, ce, lm, le = row(j)
            head = Polynomial._of([_round(-cm, ce, prec), (1, 0)])
            polys.append(head if j == 1 else head * polys[j - 1] - polys[j - 2]._scaled(lm, le))


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

    The one loop that runs the recurrence at a point, behind
    :func:`values_ladder`, :func:`eval_with_derivative` and the zero
    solver's Newton steps.  Every operation is the mpf operation of the
    recurrence, in the same order, on the exact-rounding kernel of
    :mod:`christoffel.core`, with ``_round`` and the exact sum of operands
    at most ``_NEAR`` exponents apart written out, as in ``_accumulate``;
    sums further apart go to ``_add``.  With ``out``, the rows (m, e, dm, de) for j = 0..n are
    appended to it.
    """
    near = _NEAR
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


def values_ladder(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> list:
    """[(p_j(x), p_j'(x)) for j = 0..n], one sweep of the recurrence, without forming coefficients.

    The recurrence evaluation is far better conditioned than Horner on monic
    coefficients at n = 30, which is what the Newton polish in the zero
    solver relies on.  Row j is the same bits whatever n the sweep runs to,
    and the same bits as the recurrence written with mpf operations.  A
    non-finite ``x`` raises ``ValueError``.
    """
    family.require_degree(n)
    prec = policy.precision_bits
    rows = family.kernel_rows(n, prec)
    out = []
    _sweep(rows, n, *_point(x, policy), prec, out)
    return [(_to_mpf(pm, pe), _to_mpf(dm, de)) for pm, pe, dm, de in out]


def eval_with_derivative(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY):
    """(p_n(x), p_n'(x)): the last row of :func:`values_ladder`, the only one made an mpf."""
    family.require_degree(n)
    prec = policy.precision_bits
    pm, pe, dm, de = _sweep(family.kernel_rows(n, prec), n, *_point(x, policy), prec)
    return _to_mpf(pm, pe), _to_mpf(dm, de)


@dataclass(frozen=True, init=False)
class ModifierSpec:
    """The even monic polynomial c_{2k}(x) = prod (x^2 - x_i^2), given by its nodes.

    ``nodes`` holds x_1, ..., x_k, one per zero pair +-x_i of c; for the
    built-in families they are purely imaginary.  ``c`` is built from them and
    k is their number, so a modifier is checked once, here: each node must
    give real coefficients (purely imaginary or purely real nodes do).  Any
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
    """The canonical even modifier of order k for the family, kept per (k, policy).

    Meixner-Pollaczek: c = prod_{j<k} ((lambda+j)^2 + x^2), nodes i(lambda+j).
    Pseudo-Jacobi: c = (1+x^2)^k, the node i repeated k times, so +-i are
    zeros of multiplicity k; the determinant transform takes them with the
    confluent rows p^{(s)}(+-i), s < k (Szego, Thm 2.5), and agrees with the
    parameter shift a -> a + k.
    """
    if k < 0:  # [i] * k would silently give the order-0 modifier
        raise ValueError("modifier order k must be nonnegative")

    def build() -> ModifierSpec:
        with policy.workprec():
            if k == 0:
                return ModifierSpec((), policy)
            if family.kind == MEIXNER_POLLACZEK:
                lam = family.params["lambda"]
                return ModifierSpec([mp.mpc(0, lam + j) for j in range(k)], policy)
            if family.kind == PSEUDO_JACOBI:
                return ModifierSpec([mp.mpc(0, 1)] * k, policy)
            raise ValueError(f"{family.label} has no canonical even modifier")

    return family.owned(("even_modifier", k, policy), build)


def recurrence_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative residual of the three-term recurrence at a point, degrees >= 2."""
    if n < 2:
        raise ValueError("recurrence residual needs n >= 2")
    family.require_degree(n)
    with policy.workprec():
        x = to_scalar(x)
        ladder = _ladder(family, n, policy.precision_bits)
        cm, ce, lm, le = family.kernel_rows(n, policy.precision_bits)[n]
        t1 = ladder[n](x)
        t2 = (x - _to_mpf(cm, ce)) * ladder[n - 1](x)
        t3 = _to_mpf(lm, le) * ladder[n - 2](x)
        return relative_residual(t1 - t2 + t3, (t1, t2, t3))


def mp_symmetry_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative defect of P_n(x; phi) = (-1)^n P_n(-x; -phi) for a Meixner-Pollaczek family."""
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
        "mirror", lambda: RecurrenceFamily(CUSTOM, {}, mirrored, None, f"mirror of {family.label}", policy.precision_bits)
    )
    with policy.workprec():
        x = to_scalar(x)
        lhs = generate(family, n, policy)(x)
        rhs = generate(mirror, n, policy)(-x)
        if n % 2:
            rhs = -rhs
        return relative_residual(lhs - rhs, (lhs, rhs))
