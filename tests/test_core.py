from __future__ import annotations

import pytest
from hypothesis import given, strategies as st
from mpmath import mp

from christoffel import Polynomial, RemainderError, TolerancePolicy
from christoffel.core import NonFiniteError, X
from polyhelpers import max_rel_coeff_diff, schoolbook_product


def test_difference_of_squares():
    p = Polynomial([1, 1]) * Polynomial([-1, 1])
    assert p == Polynomial([-1, 0, 1])


def test_even_factor_product_expands_by_hand():
    # (lam^2 + x^2)((lam+1)^2 + x^2) at lam = 0.5; constant 0.25 * 2.25 = 0.5625
    lam = mp.mpf("0.5")
    p = Polynomial([lam**2, 0, 1]) * Polynomial([(lam + 1) ** 2, 0, 1])
    assert p == Polynomial(["0.5625", 0, "2.5", 0, 1])


def test_eval_at_imaginary_root():
    p = Polynomial([1, 0, 1])
    assert p(mp.mpc(0, 1)) == 0
    q = Polynomial([-2, 0, 1])
    assert q(mp.mpf(1)) == -1
    quartic = Polynomial(["0.5625", 0, "2.5", 0, 1])
    assert quartic(mp.mpc(0, "0.5")) == 0


def test_eval_real_argument_stays_real():
    p = Polynomial([1, 2, 3])
    out = p(mp.mpf("0.75"))
    assert isinstance(out, mp.mpf)


def test_exact_division():
    num = Polynomial([-1, 0, 1])
    assert num.divide_exact(Polynomial([-1, 1])) == Polynomial([1, 1])
    assert Polynomial([0, 1, 0, 1]).divide_exact(Polynomial([1, 0, 1])) == Polynomial([0, 1])


def test_division_remainder_rejected():
    with pytest.raises(RemainderError):
        Polynomial([1, 0, 1]).divide_exact(Polynomial([-1, 1]))


def test_divmod_round_trip():
    num = Polynomial([3, -2, 0, 5, 1])
    den = Polynomial([1, 4, 2])
    quo, rem = divmod(num, den)
    assert max_rel_coeff_diff(quo * den + rem, num) < mp.mpf("1e-70")


def test_zero_polynomial_conventions():
    z = Polynomial([0, 0])
    assert z.is_zero() and z.degree == -1 and not z
    assert (z * Polynomial([1, 1])).is_zero()
    assert z.inf_norm() == 0


def test_degree_of_product_adds():
    p = Polynomial([1, 2, 3])
    q = Polynomial([5, 0, 0, -1])
    assert (p * q).degree == p.degree + q.degree


def test_nonfinite_coefficients_rejected():
    with pytest.raises(NonFiniteError):
        Polynomial([mp.inf])
    with pytest.raises(NonFiniteError):
        Polynomial(["nan"])
    with pytest.raises(NonFiniteError):
        Polynomial([1, float("inf")])
    # a scalar factor is outside data too; the ring's own results are not re-checked
    with pytest.raises(NonFiniteError):
        Polynomial([1, 2]) * mp.inf


def test_chop_and_trim():
    p = Polynomial([1, mp.mpf("1e-60"), 2])
    assert p.chop(mp.mpf("1e-50")).coeffs[1] == 0
    assert Polynomial([1, mp.mpf("1e-60")]).chop(mp.mpf("1e-50")) == Polynomial([1])


def test_policy_defaults_and_validation():
    pol = TolerancePolicy()
    assert pol.precision_bits == 256
    assert pol.rel_tol == mp.ldexp(1, -128)
    assert pol.abs_tol == mp.ldexp(1, -128)
    custom = TolerancePolicy(precision_bits=128, rel_tol="1e-20")
    with mp.workprec(128):  # a given tolerance is rounded at the policy's precision
        assert custom.rel_tol == mp.mpf("1e-20")
    assert custom.abs_tol == mp.ldexp(1, -64)
    with pytest.raises(ValueError):
        TolerancePolicy(precision_bits=32)


_coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=21)


@given(_coeffs, _coeffs)
def test_multiply_divide_round_trip(a, b):
    pol = TolerancePolicy()
    with pol.workprec():
        p = Polynomial(a)
        q = Polynomial(b)
        if q.is_zero():
            return
        back = (p * q).divide_exact(q, pol)
        assert max_rel_coeff_diff(back, p) <= pol.rel_tol


@given(_coeffs, _coeffs, st.integers(-5, 5), st.integers(-5, 5))
def test_evaluation_homomorphism(a, b, re, im):
    pol = TolerancePolicy()
    with pol.workprec():
        p = Polynomial(a)
        q = Polynomial(b)
        z = mp.mpc(re, im) / 3
        lhs = (p * q)(z)
        rhs = p(z) * q(z)
        assert abs(lhs - rhs) <= pol.rel_tol * max(1, abs(rhs))


@given(_coeffs, st.integers(-7, 7), st.integers(-7, 7))
def test_conjugate_symmetry(a, re, im):
    with TolerancePolicy().workprec():
        p = Polynomial(a)
        z = mp.mpc(re, im) / mp.mpf(4)
        assert p(mp.conj(z)) == mp.conj(p(z))


def test_monic_normalisation():
    p = Polynomial([2, 4, 8])
    assert p.monic().coeffs[-1] == 1
    assert (X * X + X).monic() == Polynomial([0, 1, 1])
    with pytest.raises(ValueError):
        Polynomial().monic()


def _bits(p: Polynomial) -> list:
    return [c._mpf_ for c in p.coeffs]


def test_product_is_the_mpf_schoolbook_bit_for_bit():
    # operands carry 256 bits and are multiplied at 113, so every rounding shows
    with mp.workprec(256):
        p = Polynomial([mp.mpf(1) / (i + 3) - mp.sqrt(i + 2) for i in range(9)])
        q = Polynomial([mp.exp(mp.mpf(i) / 5) * (-1) ** i for i in range(6)] + [0, mp.pi])
    with mp.workprec(113):
        for a, b in ((p, q), (q, p), (p, p), (p, Polynomial([0, 0, 1]))):
            assert _bits(a * b) == _bits(schoolbook_product(a, b))
        assert (p * Polynomial()).is_zero() and (Polynomial() * q).is_zero()


def test_real_horner_is_the_mpf_loop_bit_for_bit():
    with mp.workprec(256):
        p = Polynomial([mp.mpf(1) / (i + 3) - mp.sqrt(i + 2) for i in range(9)])
        xs = [mp.mpf(-7) / 3, mp.mpf(0), mp.sqrt(2) * 10**6]
    with mp.workprec(113):
        for x in xs:
            acc = mp.mpf(0)
            for c in reversed(p.coeffs):
                acc = acc * x + c
            assert p(x)._mpf_ == acc._mpf_


def test_difference_is_sum_with_negation():
    with mp.workprec(128):
        p = Polynomial([mp.mpf(1) / (i + 3) for i in range(7)])
        q = Polynomial([mp.sqrt(i + 2) for i in range(4)])
        r = Polynomial([mp.mpf(5) / 7 for _ in range(6)] + [p.coeffs[-1]])  # leading terms cancel in p - r
        for a, b in ((p, q), (q, p), (p, r), (r, p), (p, p), (p, Polynomial()), (Polynomial(), q)):
            assert _bits(a - b) == _bits(a + (-b))
        assert (p - r).degree < p.degree and (p - p).is_zero()
