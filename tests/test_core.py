from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpc_abs, mpc_div, mpc_mul, mpc_sub, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_sqrt, mpf_sub, to_float
from mpmath.libmp import round_down, round_nearest

from christoffel import Polynomial, RemainderError, TolerancePolicy, core, even_modifier, generate, mp_family
from christoffel.core import _NEAR, NonFiniteError, _accumulate, _add, _add_down, _cmp, _defect, _div, _float, _horner, _relative, _round, _sqrt, _to_mpf, _unpack, to_scalar
from christoffel.core import _cabs, _cdiv, _cmul, _cnorm, _cupdate
from polyhelpers import (
    max_rel_coeff_diff,
    mpc_horner,
    mpf_relative_residual,
    poly_add,
    poly_defect,
    poly_derivative,
    poly_divmod,
    poly_horner,
    poly_inf_norm,
    poly_neg,
    poly_scaled,
    poly_sub,
    schoolbook_product,
)

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
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(Polynomial([1, 1]), z)


def test_polynomial_is_immutable():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        p._pairs = ((0, 0),)
    assert p == Polynomial([1, 2])


def _relative_of(total, terms, bits: int) -> mp.mpf:
    """``core._relative`` on the values ``total`` and ``terms``, read by ``to_scalar`` unrounded, as an mpf."""
    pairs = [_unpack(to_scalar(v)._mpf_) for v in (total, *terms)]
    return _to_mpf(*_relative(pairs[0], pairs[1:], bits))


def test_relative_rule_without_a_scale_is_the_total():
    # every term 0: nothing was cancelled, so the residual is |total| itself
    assert _relative_of(mp.mpf(-3), (0, mp.mpf(0)), 64) == 3
    assert _relative_of(mp.mpf(0), (), 64) == 0
    assert _relative_of(mp.mpf(-3), (mp.mpf(6), mp.mpf(-2)), 64) == mp.mpf("0.5")


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
    for bits in (100.5, "256"):
        with pytest.raises(ValueError, match=f"precision_bits must be an integer number of bits, got {bits!r}"):
            TolerancePolicy(precision_bits=bits)


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


def _bits(p: Polynomial) -> list:
    return [c._mpf_ for c in p.coeffs]


_WIDTHS = (64, 113, 256, 512)


def _operands(bits: int) -> tuple:
    """Polynomials carrying 2 * bits bits, so that every rounding at ``bits`` shows, plus the edge values.

    ``ones`` has a mantissa of ``bits`` ones: ones + 1/2 is a tie that rounds
    up and carries into a new bit.  1 + ``half_ulp`` is a tie that rounds
    down to the even neighbour 1.
    """
    with mp.workprec(2 * bits):
        p = Polynomial([mp.mpf(1) / (i + 3) - mp.sqrt(i + 2) for i in range(9)])
        q = Polynomial([mp.exp(mp.mpf(i) / 5) * (-1) ** i for i in range(6)] + [0, mp.pi])
        ones, half_ulp = mp.ldexp(1, bits) - 1, mp.ldexp(1, -bits)
        edge = Polynomial([ones, 1, half_ulp - 1, -ones])
    return p, q, edge, ones, half_ulp


@pytest.mark.parametrize("bits", _WIDTHS)
def test_product_is_the_mpf_schoolbook_bit_for_bit(bits):
    p, q, edge, ones, half_ulp = _operands(bits)
    carry, tie = (Polynomial([ones, 1]), Polynomial(["0.5", 1])), (Polynomial([1, 1]), Polynomial([half_ulp, 1]))
    with mp.workprec(bits):
        square = Polynomial([0, 0, 1])  # as a left factor, two zero multipliers that add nothing
        for a, b in ((p, q), (q, p), (p, p), (p, square), (square, p), (edge, p), (edge, edge), carry, tie):
            assert _bits(a * b) == _bits(schoolbook_product(a, b))
        assert (carry[0] * carry[1]).coeffs[1] == mp.ldexp(1, bits)  # ones + 1/2 carried
        assert (tie[0] * tie[1]).coeffs[1] == 1  # 1 + half_ulp tied to even
        assert (p * Polynomial()).is_zero() and (Polynomial() * q).is_zero()
    # c_{2k} g_{6,k}, the grid's left side: every odd coefficient of the even c is exactly 0
    policy = TolerancePolicy(precision_bits=bits)
    fam = mp_family("0.5", "0.9", policy)
    for k in range(5):
        c, g = even_modifier(fam, k, policy).c, generate(fam.shifted(k), 6, policy)
        with mp.workprec(bits):
            assert _bits(c * g) == _bits(schoolbook_product(c, g)), k


_sparse = st.lists(
    st.one_of(st.just(mp.mpf(0)), st.integers(-3, 3).map(mp.mpf), st.builds(_to_mpf, st.integers(-(2**600), 2**600), st.integers(-300, 300))),
    max_size=8,
).map(Polynomial)


@given(st.sampled_from(_WIDTHS), _sparse, _sparse)
def test_product_with_zero_coefficients_is_the_mpf_schoolbook(bits, p, q):
    # zeros inside both factors, as in c_{2k} g: each nonzero coefficient of the left factor is one multiply-add row
    rows, accumulate = [], core._accumulate
    with pytest.MonkeyPatch.context() as patch, mp.workprec(bits):
        patch.setattr(core, "_accumulate", lambda out, wm, *rest: rows.append(wm) or accumulate(out, wm, *rest))
        assert _bits(p * q) == _bits(schoolbook_product(p, q))
    assert len(rows) == (sum(1 for m, _ in p._pairs if m) if q else 0)


@pytest.mark.parametrize("bits", _WIDTHS)
def test_real_horner_is_the_mpf_loop_bit_for_bit(bits):
    p, q, edge, ones, half_ulp = _operands(bits)
    with mp.workprec(2 * bits):
        xs = [mp.mpf(-7) / 3, mp.mpf(0), mp.sqrt(2) * 10**6, "-2.5", 5, half_ulp, mp.mpf("0.5")]
    with mp.workprec(bits):
        for poly in (p, q, edge, Polynomial([ones, 1]), Polynomial([1, 1])):
            for x in xs:
                # a wide mpf point enters unrounded
                assert poly(x)._mpf_ == poly_horner(poly.coeffs, to_scalar(x))._mpf_
        assert Polynomial([ones, 1])("0.5") == mp.ldexp(1, bits)  # ones + 1/2 carried
        assert Polynomial([1, 1])(half_ulp) == 1  # 1 + half_ulp tied to even


def test_real_horner_rejects_a_nonfinite_point():
    # the kernel would read inf and nan as 0, so they are rejected where they enter
    for x in (mp.inf, -mp.inf, mp.nan, "inf"):
        with pytest.raises(NonFiniteError, match="evaluation point is not finite"):
            Polynomial([1, 2])(x)


def test_complex_horner_rejects_a_nonfinite_point():
    # an inf or nan part is rejected too, also where no product would meet it
    for z in (mp.mpc(mp.inf, 0), mp.mpc(1, mp.nan), mp.mpc(0, -mp.inf), mp.mpc(mp.nan, mp.nan)):
        for poly in (Polynomial([1, 2]), Polynomial([3])):
            with pytest.raises(NonFiniteError, match="evaluation point is not finite"):
                poly(z)


_mantissas = st.one_of(
    st.integers(-(2**1200), 2**1200),
    # runs of ones round up with a carry; 2**k + 1 rounds to a tie at k bits
    st.builds(
        lambda k, s, shift: s * ((1 << k) - 1) << shift, st.integers(1, 600), st.sampled_from((1, -1)), st.integers(0, 9)
    ),
    st.builds(lambda k, s: s * ((1 << k) + 1), st.integers(1, 600), st.sampled_from((1, -1))),
)
_exponents = st.integers(-1500, 1500)
_precisions = st.sampled_from((2, 53, *_WIDTHS))


@settings(max_examples=400)
@given(_precisions, _mantissas, _exponents, _mantissas, _exponents)
def test_kernel_is_mpf_add_sub_and_mul(prec, m1, e1, m2, e2):
    a, b = from_man_exp(m1, e1), from_man_exp(m2, e2)
    assert _to_mpf(*_unpack(a))._mpf_ == a
    assert _to_mpf(*_add(m1, e1, m2, e2, prec))._mpf_ == mpf_add(a, b, prec, round_nearest)
    assert _to_mpf(*_add(m1, e1, -m2, e2, prec))._mpf_ == mpf_sub(a, b, prec, round_nearest)
    assert _to_mpf(*_round(m1 * m2, e1 + e2, prec))._mpf_ == mpf_mul(a, b, prec, round_nearest)
    assert _to_mpf(*_round(m1, e1, prec))._mpf_ == from_man_exp(m1, e1, prec, round_nearest)


# _float's branches: float(m) within range, or overflowing at 1024 bits (rounding up) and 1100 bits; 54-bit ties
# to even below and above; the subnormal ties 2**-1075 and 3 * 2**-1075, and 3 * 2**-1076; past the largest double
@example(53, 2**1023 + 1, -1100)
@example(53, 2**1024 - 1, -1100)
@example(53, -(2**1099 + 3), -1200)
@example(53, 2**53 + 1, 0)
@example(53, -(2**53 + 3), 0)
@example(53, 1, -1075)
@example(53, 3, -1075)
@example(53, -3, -1076)
@example(53, 2**54 - 1, 970)
@settings(max_examples=400)
@given(_precisions, _mantissas, _exponents)
def test_kernel_root_and_double_are_mpf_sqrt_and_to_float(prec, m, e):
    # exact squares too, and doubles past both ends of the range (+-inf, subnormals, -0.0)
    for v, x in ((abs(m), e), (m * m, 2 * e)):
        assert _to_mpf(*_sqrt(v, x, prec))._mpf_ == mpf_sqrt(from_man_exp(v, x), prec, round_nearest)
    assert _float(m, e).hex() == to_float(from_man_exp(m, e), rnd=round_nearest).hex()


def _mpc(am, ae, bm, be) -> tuple:
    return from_man_exp(am, ae), from_man_exp(bm, be)


_parts = st.tuples(st.one_of(st.just(0), _mantissas), _exponents)  # a zero real or imaginary part, too
_complex = st.tuples(_parts, _parts).map(lambda parts: (*parts[0], *parts[1]))


@settings(max_examples=400)
@given(st.sampled_from(_WIDTHS), _parts, _parts, _parts, _parts, _complex, _complex, _complex)
# zero parts, an operand of 201 bits at 64 and exponent gaps of 410 and 1000
@example(64, (0, 0), (5, -3), (7, 2), (0, 0), (2**200 + 1, -10, 0, 0), (0, 0, 3, 400), (0, 0, -(2**70 + 1), -1000))
# truncated sums of far operands: of opposite sign, of equal sign, and with one operand wider than prec
@example(64, (2**64 + 3, 500), (5, -3), (-(2**30 + 1), -300), (7, 2), (1, 0, 0, 0), (0, 0, 3, 0), (0, 0, 0, 0))
@example(113, (-(2**90 - 1) << 7, 260), (0, 0), (-5, -400), (3, -1), (1, 0, 0, 0), (0, 0, 3, 0), (1, 0, 0, 0))
@example(64, (-(2**300 + 2**240 + 1), 900), (1, 0), (3, -700), (0, 0), (1, 0, 0, 0), (0, 0, 3, 0), (0, 0, 0, 0))
def test_kernel_complex_ops_are_libmpc(prec, a, b, c, d, x, u, prev):
    # operands wider than prec and exponent gaps beyond _NEAR, at the rounding mp.mpc arithmetic passes
    z, w = _mpc(*a, *b), _mpc(*c, *d)
    assert from_man_exp(*_add_down(*a, *c, prec)) == mpf_add(z[0], w[0], prec, round_down)
    assert _mpc(*_cmul(*a, *b, *c, *d, prec)) == mpc_mul(z, w, prec, round_nearest)
    assert from_man_exp(*_cabs(*a, *b, prec)) == mpc_abs(z, prec, round_nearest)
    if c[0] or d[0]:
        assert _mpc(*_cdiv(*a, *b, *c, *d, _cnorm(*c, *d, prec), prec)) == mpc_div(z, w, prec, round_nearest)
    # the Bareiss entry update (r p - x u) / prev, with r = z and p = w, and by None for 1
    diff = mpc_sub(mpc_mul(z, w, prec, round_nearest), mpc_mul(_mpc(*x), _mpc(*u), prec, round_nearest), prec, round_nearest)
    assert _mpc(*_cupdate((*a, *b), (*c, *d), x, u, None, None, prec)) == diff
    if prev[0] or prev[2]:
        ours = _cupdate((*a, *b), (*c, *d), x, u, prev, _cnorm(*prev, prec), prec)
        assert _mpc(*ours) == mpc_div(diff, _mpc(*prev), prec, round_nearest)


def test_kernel_complex_quotient_truncates_its_inner_sums():
    # mpc_div forms |w|**2, ac + bd and bc - ad at prec + 10 bits at round_down, mpmath's
    # default; rounding them to nearest instead gives another 64-bit quotient here
    a, b = (-10218618142087896624, 4), (11977187586259439192, -3)
    c, d = (136165888906184257346095753941, -1), (116913723483751302794494689109, 5)
    (za, zb), (wc, wd) = _mpc(*a, *b), _mpc(*c, *d)
    norm = mpf_add(mpf_mul(wc, wc), mpf_mul(wd, wd), 74, round_nearest)
    t = mpf_add(mpf_mul(za, wc), mpf_mul(zb, wd), 74, round_nearest)
    u = mpf_sub(mpf_mul(zb, wc), mpf_mul(za, wd), 74, round_nearest)
    nearest = mpf_div(t, norm, 64, round_nearest), mpf_div(u, norm, 64, round_nearest)
    ours = _mpc(*_cdiv(*a, *b, *c, *d, _cnorm(*c, *d, 64), 64))
    assert ours == mpc_div((za, zb), (wc, wd), 64, round_nearest) != nearest


def test_kernel_complex_abs_truncates_its_inner_sum():
    # mpf_hypot forms a**2 + b**2 at prec + 4 bits at round_down before its root; rounding that sum to
    # nearest instead gives another 64-bit magnitude here
    a, b = (10971192105065911702, -64), (14538042293720526985, -64)
    x, y = from_man_exp(*a), from_man_exp(*b)
    nearest = mpf_sqrt(mpf_add(mpf_mul(x, x), mpf_mul(y, y), 68, round_nearest), 64, round_nearest)
    assert from_man_exp(*_cabs(*a, *b, 64)) == mpc_abs((x, y), 64, round_nearest) != nearest


@settings(max_examples=400)
@given(_mantissas, _exponents, _mantissas, _exponents, st.integers(0, 40))
def test_kernel_comparison_is_mpf_cmp(m1, e1, m2, e2, shift):
    a, b = from_man_exp(m1, e1), from_man_exp(m2, e2)
    assert _cmp(m1, e1, m2, e2) == mpf_cmp(a, b)
    # kernel pairs are not normalised: the same value with trailing zeros,
    # against itself, its negation and a neighbour one unit away
    assert _cmp(m1 << shift, e1 - shift, m1, e1) == 0
    assert _cmp(m1 << shift, e1 - shift, -m1, e1) == mpf_cmp(a, from_man_exp(-m1, e1))
    assert _cmp(m1 << shift, e1 - shift, m1 + 1, e1) == -1


@settings(max_examples=400)
@given(
    _precisions, _mantissas, _exponents, _mantissas.filter(bool), _exponents, st.integers(0, 1200), st.sampled_from((1, -1))
)
def test_kernel_division_is_mpf_div(prec, m1, e1, m2, e2, k, sign):
    a, b = from_man_exp(m1, e1), from_man_exp(m2, e2)
    assert _to_mpf(*_div(m1, e1, m2, e2, prec))._mpf_ == mpf_div(a, b, prec, round_nearest)
    # mpf_div's branch for a power-of-two divisor, and an exact quotient
    two = sign << k
    assert _to_mpf(*_div(m1, e1, two, e2, prec))._mpf_ == mpf_div(a, from_man_exp(two, e2), prec, round_nearest)
    exact = mpf_div(from_man_exp(m1 * m2, e1), b, prec, round_nearest)
    assert _to_mpf(*_div(m1 * m2, e1, m2, e2, prec))._mpf_ == exact == from_man_exp(m1, e1 - e2, prec, round_nearest)


def test_kernel_sum_of_far_apart_wide_operands_is_mpf_add():
    # past an exponent gap of 100 mpf_add perturbs the larger operand instead of
    # aligning; for an operand wider than prec that is not the correctly
    # rounded sum, and the kernel gives mpf_add's bits, not the exact rounding
    m1, e1, m2, e2 = 2**999 + 2**935 - 1, 0, 2**102 + 1, -101
    exact = from_man_exp((m1 << 101) + m2, e2, 64, round_nearest)
    ours = _to_mpf(*_add(m1, e1, m2, e2, 64))._mpf_
    assert ours == mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), 64, round_nearest) != exact


def test_kernel_sum_reads_the_exponent_gap_of_normalized_values():
    # s has 80 bits and 20 trailing zero bits: the pairs lie 85 exponents apart, but mpf_add
    # strips the zeros and sees 105, past 100, so it nudges s instead of adding t, and the
    # nudge rounds down where the exact sum rounds up; the kernel gives mpf_add's bits
    s = (((1 << 63 | 12345) << 16 | (1 << 15) - 1) << 20, -20)
    t = ((1 << 110) + 1, -105)
    exact = from_man_exp((s[0] << 85) + t[0], -105, 64, round_nearest)
    expected = mpf_add(from_man_exp(*s), from_man_exp(*t), 64, round_nearest)
    assert from_man_exp(*_add(*s, *t, 64)) == from_man_exp(*_add(*t, *s, 64)) == expected != exact
    # truncated: 2**71 - 2 carries a trailing zero, so the gap of 100 is 101 to mpf_add
    s, t = ((1 << 71) - 2, 173), ((1 << 102) - 1, 73)
    down = mpf_add(from_man_exp(*s), from_man_exp(*t), 64, round_down)
    assert from_man_exp(*_add_down(*s, *t, 64)) == down != from_man_exp((s[0] << 100) + t[0], 73, 64, round_down)


@st.composite
def _sums(draw) -> tuple:
    """(prec, m1, e1, m2, e2): zero operands, operands wider than prec or with trailing zero bits (which move
    the exponent mpf_add reads), at leading bits about prec + 4 apart, exponents about _NEAR apart, or far apart."""
    prec = draw(_precisions)
    operand = st.one_of(st.just(0), _mantissas, st.builds(lambda m, t: m << t, _mantissas, st.integers(0, 130)))
    m1, m2, e1, side = draw(operand), draw(operand), draw(_exponents), draw(st.sampled_from((1, -1)))
    gap = draw(st.sampled_from(("leading", "exponent", "huge")))
    if gap == "leading":
        e2 = e1 + m1.bit_length() - m2.bit_length() - side * (prec + 4 + draw(st.integers(-3, 3)))
    elif gap == "exponent":
        e2 = e1 - side * (_NEAR + draw(st.integers(-3, 3)))
    else:
        e2 = e1 - side * draw(st.integers(0, 10**6))
    return prec, m1, e1, m2, e2


@settings(max_examples=400)
@given(_sums())
@example((64, 2**999 + 2**935 - 1, 0, 2**102 + 1, -101))  # mpf_add's nudge is not the correctly rounded sum here
def test_kernel_sums_are_mpf_add_to_nearest_and_down(case):
    prec, m1, e1, m2, e2 = case
    a, b = from_man_exp(m1, e1), from_man_exp(m2, e2)
    for add, rnd in ((_add, round_nearest), (_add_down, round_down)):
        assert from_man_exp(*add(m1, e1, m2, e2, prec)) == from_man_exp(*add(m2, e2, m1, e1, prec)) == mpf_add(a, b, prec, rnd)


def test_kernel_is_the_only_arithmetic_below_the_api():
    # no module hands a sum, product or comparison to mpmath's libmp: from it, only from_man_exp is imported
    for path in Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("mpmath.libmp"):
                assert [alias.name for alias in node.names] == ["from_man_exp"], path.name
            assert not (isinstance(node, ast.Import) and any("libmp" in alias.name for alias in node.names)), path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "libmp"), path.name


def test_kernel_truncated_far_sums_are_mpf_add(far_sums):
    # zero operands and far operands, nudged by mpf_add's rule or aligned past an exponent gap of 100: each sum whose
    # leading bits lie more than prec + 4 apart takes the far-sum rule _add shares, in both operand orders
    cases = [((0, 0), (-(2**80 + 1), 300)), ((3, 900), (0, -5)), ((2**64 + 3, 500), (-(2**30 + 1), -300)),
             ((5, 300), (7, -400)), ((1, 200), ((1 << 400) - 1, -600)), ((-(2**71 - 2) << 9, 164), ((1 << 102) - 1, 73))]
    for (m1, e1), (m2, e2) in cases:
        for prec in (64, 74, 266):
            before = len(far_sums)
            expected = mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), prec, round_down)
            assert from_man_exp(*_add_down(m1, e1, m2, e2, prec)) == from_man_exp(*_add_down(m2, e2, m1, e1, prec)) == expected
            far = abs(m1.bit_length() + e1 - m2.bit_length() - e2) > prec + 4
            assert len(far_sums) - before == (2 if far else 0)
    assert len(far_sums) == 2 * (6 * 3 - 2)  # the last case's leading bits lie 69 apart: far at 64 bits only


def test_relative_rule_is_the_mpf_expression():
    # no terms, every term 0 (|total| itself, also for a total wider than prec), a zero total, and ties of the
    # largest terms: equal magnitudes, and terms wider than prec whose magnitudes round to the same value
    for bits in (64, 113, 256, 512):
        with mp.workprec(2 * bits):
            wide, top = mp.mpf(-2) / 3, mp.ldexp(1, bits + 6)
            ties = (top + 1, -top - 2, top / 3)
        with mp.workprec(bits):
            cases = [(mp.mpf(-3), ()), (mp.mpf(-3), (0, mp.mpf(0))), (wide, (mp.mpf(0),)), (mp.mpf(0), ()),
                     (mp.mpf(0), (mp.mpf(6), mp.mpf(-2))), (wide, (mp.mpf(-7), mp.mpf(7), mp.mpf(2))), (wide, ties)]
            for total, terms in cases:
                assert _relative_of(total, terms, bits)._mpf_ == mpf_relative_residual(total, terms)._mpf_
        assert _relative((-3, 0), [(0, 5), (0, 0)], bits) == (3, 0)


def test_kernel_aligns_far_exponents_of_close_magnitudes(far_sums):
    # a 65-bit point minus a 256-bit coefficient of about its size: the
    # exponents lie 191 apart, but the leading bits do not, so mpf_add aligns
    # the sum exactly, and the kernel does so itself, without the far-sum rule
    (m1, e1), (m2, e2) = ((1 << 64) + 1, -70), (-(3 << 254) - 1, -261)
    expected = mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), 256, round_nearest)
    assert _to_mpf(*_add(m1, e1, m2, e2, 256))._mpf_ == expected
    assert _to_mpf(*_add(m2, e2, m1, e1, 256))._mpf_ == expected
    assert not far_sums


def test_difference_is_sum_with_negation():
    with mp.workprec(128):
        p = Polynomial([mp.mpf(1) / (i + 3) for i in range(7)])
        q = Polynomial([mp.sqrt(i + 2) for i in range(4)])
        r = Polynomial([mp.mpf(5) / 7 for _ in range(6)] + [p.coeffs[-1]])  # leading terms cancel in p - r
        for a, b in ((p, q), (q, p), (p, r), (r, p), (p, p), (p, Polynomial()), (Polynomial(), q)):
            assert _bits(a - b) == _bits(a + (-b))
        assert (p - r).degree < p.degree and (p - p).is_zero()


# Coefficients for the ring oracle: exact zeros, small integers, and values
# of any length up to 1100 bits (more than every working precision below)
# whose exponents lie far more than 100 apart, where mpf_add stops aligning.
_lengths = st.builds(
    lambda n, low, sign: sign * ((1 << n) + low % (1 << n)),
    st.integers(0, 1100),
    st.integers(0, 2**1100),
    st.sampled_from((1, -1)),
)
_wide = st.builds(_to_mpf, st.one_of(_mantissas, _lengths), st.integers(-400, 400))
_coefficient = st.one_of(st.just(mp.mpf(0)), st.integers(-3, 3).map(mp.mpf), _wide)
_polys = st.lists(_coefficient, max_size=7).map(Polynomial)


def _values(cs) -> list:
    return [c._mpf_ for c in cs]


@settings(max_examples=150)
@given(st.sampled_from(_WIDTHS), _polys, _polys, _wide.filter(bool), _coefficient, st.integers(0, 6))
def test_ring_operations_are_the_mpf_loops_bit_for_bit(bits, p, q, c, x, pick):
    with mp.workprec(bits):
        a, b = p.coeffs, q.coeffs
        assert _bits(p + q) == _values(poly_add(a, b)) and _bits(q + p) == _values(poly_add(b, a))
        assert _bits(p - q) == _values(poly_sub(a, b)) and _bits(q - p) == _values(poly_sub(b, a))
        assert _bits(-p) == _values(poly_neg(a))
        assert _bits(p * c) == _bits(c * p) == _values(poly_scaled(a, c))
        assert _bits(p._scaled(*_unpack(c._mpf_))) == _values(poly_scaled(a, c))
        assert _bits(p.derivative()) == _values(poly_derivative(a))
        assert p.inf_norm()._mpf_ == poly_inf_norm(a)._mpf_
        assert p(x)._mpf_ == poly_horner(a, x)._mpf_
        if b:
            quo, rem = divmod(p, q)
            oq, orem = poly_divmod(a, b)
            assert (_bits(quo), _bits(rem)) == (_values(oq), _values(orem))
        # the multiply-add loop at offset ``pick``, into p's coefficients and zero accumulators
        acc = list(p._pairs) + [(0, 0)] * (pick + len(b))
        _accumulate(acc, *_unpack(c._mpf_), q._pairs, pick, bits)
        oracle = list(a) + [mp.mpf(0)] * (pick + len(b))
        for j, y in enumerate(b, pick):
            oracle[j] += c * y
        assert [_to_mpf(*v)._mpf_ for v in acc] == _values(oracle)
        # Horner on kernel pairs, of p and of its derivative, as the grid evaluates G and G'
        xm, xe = _unpack(x._mpf_)
        assert _to_mpf(*_horner(p._pairs, xm, xe, bits))._mpf_ == poly_horner(a, x)._mpf_
        assert _to_mpf(*_horner(p.derivative()._pairs, xm, xe, bits))._mpf_ == poly_horner(poly_derivative(a), x)._mpf_
        assert p == Polynomial(a) and hash(p) == hash(Polynomial(a))


def _poly(*cs) -> Polynomial:
    """A polynomial of ints and exact (mantissa, exponent) pairs, none of them rounded."""
    return Polynomial([_to_mpf(*c) if isinstance(c, tuple) else mp.mpf(c) for c in cs])


_WIDE = (2**999 + 2**935 - 1, 0)  # 999 bits: past the exponent gap of _NEAR, mpf_add nudges it instead of aligning


@settings(max_examples=150)
@given(st.sampled_from(_WIDTHS), _polys, _polys, _polys, _polys, _polys)
# a and G of length 1, lhs shorter than the products
@example(64, _poly(1), _poly(3), _poly(1, 2, 5), _poly((-7, -2)), _poly(2, 0, 1, 1))
# lhs longer than the products, exact zeros inside every operand
@example(113, _poly(0, 5, 0, 0, 0, 0, 2), _poly(1, 0, 2), _poly(0, 1), _poly(1, 0, 1), _poly(3, 0, 1))
# sums handed to mpf_add: lhs far above r (x**0), r far above lhs (x**1), a wide lhs (x**2), and a p far below G q
@example(64, _poly((1, 400), 1, _WIDE), _poly((3, -300), 1), _poly(1, 1), _poly(5), _poly(((1 << 102) + 1, -101), (1, 500)))
@example(256, _poly((-1, -400), (1, 700), 0, _WIDE), _poly((1, 300)), _poly(1, (-5, -300)), _poly((3, -200)), _poly(_WIDE, 0, 1))
# r's top cancels to exactly 0, and so does lhs - r at x**0
@example(512, _poly(1, 2), _poly(1, 1), _poly(1, 1), _poly(1), _poly(0, 1, 1))
# r = 1 - 2**-70 rounds to 1 at 64 bits before lhs - r, so lhs = 1 leaves an exactly zero defect
@example(64, _poly(1), _poly(1), _poly(1), _poly((1, -70)), _poly(1))
# an all-zero defect, and one of an empty lhs
@example(64, _poly(1, 1, 1), _poly(1, 1), _poly(1, 1), _poly(1), _poly(0, 1))
@example(113, _poly(), _poly(2), _poly(1, 3), _poly(2), _poly(1, 3))
def test_defect_is_the_polynomial_chain_bit_for_bit(bits, lhs, a, p, G, q):
    # the identity defect's one pass against the chain it replaced, in Polynomial operations and in the mpf loops
    ours = _to_mpf(*_defect(lhs._pairs, a._pairs, p._pairs, G._pairs, q._pairs, bits))._mpf_
    with mp.workprec(bits):
        assert ours == (lhs - (a * p - G * q)).inf_norm()._mpf_
        assert ours == poly_defect(lhs.coeffs, a.coeffs, p.coeffs, G.coeffs, q.coeffs)._mpf_


@settings(max_examples=150)
@given(st.sampled_from(_WIDTHS), _polys, _coefficient, _coefficient)
def test_complex_horner_is_the_mpc_loop_bit_for_bit(bits, p, x, y):
    z = mp.make_mpc((x._mpf_, y._mpf_))  # a wide point enters unrounded
    with mp.workprec(bits):
        assert p(z)._mpc_ == mp.mpc(mpc_horner(p.coeffs, z))._mpc_


def test_equal_values_in_other_pair_forms_compare_and_hash_equal():
    # kernel pairs are not normalised: (2, 0) and (1, 1) are both 2, and a zero has any exponent
    p = Polynomial._of([(2, 0), (3, -1), (0, 5), (-1, 4)])
    q = Polynomial._of([(1, 1), (12, -3), (0, 0), (-16, 0)])
    assert p._pairs != q._pairs and p.coeffs == q.coeffs
    assert p == q and hash(p) == hash(q)
    assert p == Polynomial([2, "1.5", 0, -16]) and hash(p) == hash(Polynomial([2, "1.5", 0, -16]))
    other = Polynomial._of([(1, 1), (12, -3), (0, 0), (-17, 0)])
    assert p != other and q != other
