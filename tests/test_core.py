from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpc_abs, mpc_div, mpc_mul, mpc_sub, mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_sqrt, mpf_sub, to_float
from mpmath.libmp import round_down, round_nearest

from christoffel import Polynomial, RemainderError, TolerancePolicy, core
from christoffel.core import NonFiniteError, _accumulate, _add, _add_down, _cmp, _div, _float, _horner, _round, _sqrt, _to_mpf, _unpack, to_scalar
from christoffel.core import _cabs, _cdiv, _cmul, _cnorm, _csub
from polyhelpers import (
    max_rel_coeff_diff,
    mpc_horner,
    poly_add,
    poly_chop,
    poly_derivative,
    poly_divmod,
    poly_horner,
    poly_inf_norm,
    poly_monic,
    poly_neg,
    poly_scaled,
    poly_sub,
    schoolbook_product,
)

X = Polynomial([0, 1])


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


def test_relative_residual_without_a_scale_is_the_total():
    # every term 0: nothing was cancelled, so the residual is |total| itself
    assert core.relative_residual(mp.mpf(-3), (0, mp.mpf(0))) == 3
    assert core.relative_residual(mp.mpf(0), ()) == 0
    assert core.relative_residual(mp.mpf(-3), (mp.mpf(6), mp.mpf(-2))) == mp.mpf("0.5")


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
    # the kernel would read inf and nan as 0 and keep every coefficient
    for threshold in (mp.inf, mp.nan):
        with pytest.raises(NonFiniteError, match="chop threshold is not finite"):
            p.chop(threshold)


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


def test_monic_normalisation():
    p = Polynomial([2, 4, 8])
    assert p.monic().coeffs[-1] == 1
    assert (X * X + X).monic() == Polynomial([0, 1, 1])
    with pytest.raises(ValueError):
        Polynomial().monic()


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
        for a, b in ((p, q), (q, p), (p, p), (p, Polynomial([0, 0, 1])), (edge, p), (edge, edge), carry, tie):
            assert _bits(a * b) == _bits(schoolbook_product(a, b))
        assert (carry[0] * carry[1]).coeffs[1] == mp.ldexp(1, bits)  # ones + 1/2 carried
        assert (tie[0] * tie[1]).coeffs[1] == 1  # 1 + half_ulp tied to even
        assert (p * Polynomial()).is_zero() and (Polynomial() * q).is_zero()


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


@settings(max_examples=400)
@given(st.sampled_from(_WIDTHS), _parts, _parts, _parts, _parts)
def test_kernel_complex_ops_are_libmpc(prec, a, b, c, d):
    # operands wider than prec and exponent gaps beyond _NEAR, at the rounding mp.mpc arithmetic passes
    z, w = _mpc(*a, *b), _mpc(*c, *d)
    assert from_man_exp(*_add_down(*a, *c, prec)) == mpf_add(z[0], w[0], prec, round_down)
    assert _mpc(*_cmul(*a, *b, *c, *d, prec)) == mpc_mul(z, w, prec, round_nearest)
    assert _mpc(*_csub(*a, *b, *c, *d, prec)) == mpc_sub(z, w, prec, round_nearest)
    assert _cabs(*a, *b, prec)._mpf_ == mpc_abs(z, prec, round_nearest)
    if c[0] or d[0]:
        assert _mpc(*_cdiv(*a, *b, *c, *d, _cnorm(*c, *d, prec), prec)) == mpc_div(z, w, prec, round_nearest)


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


def test_kernel_aligns_far_exponents_of_close_magnitudes(monkeypatch):
    # a 65-bit point minus a 256-bit coefficient of about its size: the
    # exponents lie 191 apart, but the leading bits do not, so mpf_add aligns
    # the sum exactly, and the kernel does so itself
    calls = []
    monkeypatch.setattr(core, "mpf_add", lambda *args: calls.append(args))
    (m1, e1), (m2, e2) = ((1 << 64) + 1, -70), (-(3 << 254) - 1, -261)
    expected = mpf_add(from_man_exp(m1, e1), from_man_exp(m2, e2), 256, round_nearest)
    assert _to_mpf(*_add(m1, e1, m2, e2, 256))._mpf_ == expected
    assert _to_mpf(*_add(m2, e2, m1, e1, 256))._mpf_ == expected
    assert not calls


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


def _magnitude(v) -> mp.mpf:
    """|v| exactly; abs() would round it at the ambient precision."""
    m, e = _unpack(v._mpf_)
    return _to_mpf(abs(m), e)


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
        # thresholds: one coefficient's unrounded magnitude, and c's, rounded and not
        for t in (_magnitude(a[pick % len(a)]) if a else c, _magnitude(c), abs(c)):
            assert _bits(p.chop(t)) == _values(poly_chop(a, t))
        if a:
            assert _bits(p.monic()) == _values(poly_monic(a))
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
