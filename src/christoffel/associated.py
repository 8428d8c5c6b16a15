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

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, _to_mpf, relative_residual
from .families import RecurrenceFamily, _ladder, _order, _point, _three_term


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
    """Relative residual of the downward bridge identity at a point, 2 <= m <= n."""
    family.require_degree(n, 2)
    _order(m, "order m", 2, n)
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
        return relative_residual(t1 - t2 + t3, (t1, t2, t3))


def extension_identity_residual(
    family: RecurrenceFamily, n: int, m: int, x, policy: TolerancePolicy = DEFAULT_POLICY
) -> mp.mpf:
    """Relative residual of the upward extension identity at a point."""
    family.require_degree(n, 1)
    _order(m, "order m")
    family.require_degree(n + m, of=f"n + m for n={n}, m={m}")
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
        return relative_residual(t1 - t2 + t3, (t1, t2, t3))
