"""Associated (dual) polynomials and the two identities that bridge them.

For a fixed anchor degree n the associated sequence S_0, ..., S_n runs the
recurrence coefficients in reversed index order:

    S_m(x) = (x - C(n - m + 1)) S_{m-1}(x) - Lambda(n - m + 2) S_{m-2}(x),

seeded with S_0 = 1, S_{-1} = 0.  Each S_m is monic of exact degree m and
the sequence depends on the anchor, not only on m.

Two identities tie the associated polynomials to the base sequence and are
exposed here as relative residual checks:

* the bridge downwards, for 2 <= m <= n:
      Lambda(n) ... Lambda(n-m+2) p_{n-m} = S_{m-1}^{(n)} p_{n-1} - S_{m-2}^{(n-1)} p_n
  (the coefficient product has m-1 factors; for m = 2 it is just Lambda(n));

* the extension upwards, for n >= 1, m >= 0:
      p_{n+m} = S_m^{(n+m)} p_n - Lambda(n+1) S_{m-1}^{(n+m)} p_{n-1}.
"""

from __future__ import annotations

from mpmath import mp

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, _horner, _round
from .families import RecurrenceFamily, _ladder, _order, _point, _residual, _three_term


def _sequence(family: RecurrenceFamily, n: int, m: int, prec: int) -> list:
    """S_0, ..., S_m (at least) anchored at n, the family's shared list per anchor and precision: read only.

    The caller has checked the anchor against the family's range and 0 <= m <= n."""
    polys = family.owned(("associated", n, prec), lambda: [Polynomial([1])])
    if len(polys) <= m:
        rows = family.kernel_rows(n, prec)
        _three_term(polys, m, lambda j: (*rows[n - j + 1][:2], *rows[n - j + 2 if j > 1 else 0][2:]), prec)
    return polys


def associated(family: RecurrenceFamily, n: int, m: int, policy: TolerancePolicy = DEFAULT_POLICY) -> Polynomial:
    """S_m anchored at n: monic, exact degree m (S_0, S_1, ... kept by the family per anchor and precision)."""
    family.require_degree(n)
    _order(m, "order m", 0, n)
    return _sequence(family, n, m, policy.precision_bits)[m]


def associated_identity_residual(
    family: RecurrenceFamily, n: int, m: int, x, policy: TolerancePolicy = DEFAULT_POLICY
) -> mp.mpf:
    """Relative residual of the downward bridge identity at a point, 2 <= m <= n.

    On kernel pairs, with the roundings of the mpf terms (Lambda(n - m + 2) ... Lambda(n)) p_{n-m}(x),
    S_{m-1}^{(n)}(x) p_{n-1}(x) and S_{m-2}^{(n-1)}(x) p_n(x), the product from 1 in that order, and
    each polynomial by Horner (``core._horner``)."""
    family.require_degree(n, 2)
    _order(m, "order m", 2, n)
    prec = policy.precision_bits
    xm, xe = _point(x, policy)
    ladder = _ladder(family, n, prec)
    pm, pe = 1, 0
    for _, _, lm, le in family.kernel_rows(n, prec)[n - m + 2 : n + 1]:
        pm, pe = _round(pm * lm, pe + le, prec)
    factors = [(pm, pe)]
    for anchor, order in ((n, m - 1), (n - 1, m - 2)):
        factors.append(_horner(_sequence(family, anchor, order, prec)[order]._pairs, xm, xe, prec))
    terms = []
    for (fm, fe), p in zip(factors, (ladder[n - m], ladder[n - 1], ladder[n])):
        vm, ve = _horner(p._pairs, xm, xe, prec)
        terms.append(_round(fm * vm, fe + ve, prec))
    return _residual(terms, prec)


def extension_identity_residual(
    family: RecurrenceFamily, n: int, m: int, x, policy: TolerancePolicy = DEFAULT_POLICY
) -> mp.mpf:
    """Relative residual of the upward extension identity at a point.

    On kernel pairs, with the roundings of the mpf terms p_{n+m}(x), S_m^{(n+m)}(x) p_n(x) and
    (Lambda(n + 1) S_{m-1}^{(n+m)}(x)) p_{n-1}(x), the last 0 for m = 0, each polynomial by Horner."""
    family.require_degree(n, 1)
    _order(m, "order m")
    family.require_degree(n + m, of=f"n + m for n={n}, m={m}")
    prec = policy.precision_bits
    xm, xe = _point(x, policy)
    ladder = _ladder(family, n + m, prec)
    seq = _sequence(family, n + m, m, prec)
    sm, se = _horner(seq[m]._pairs, xm, xe, prec)
    vm, ve = _horner(ladder[n]._pairs, xm, xe, prec)
    terms = [_horner(ladder[n + m]._pairs, xm, xe, prec), _round(sm * vm, se + ve, prec), (0, 0)]
    if m:
        lm, le = family.kernel_rows(n + 1, prec)[n + 1][2:]
        sm, se = _horner(seq[m - 1]._pairs, xm, xe, prec)
        lm, le = _round(lm * sm, le + se, prec)
        vm, ve = _horner(ladder[n - 1]._pairs, xm, xe, prec)
        terms[2] = _round(lm * vm, le + ve, prec)
    return _residual(terms, prec)
