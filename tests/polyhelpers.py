"""Coefficient-level helpers that only the tests need."""

from __future__ import annotations

from mpmath import mp

from christoffel import Polynomial


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
