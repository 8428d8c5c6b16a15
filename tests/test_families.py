from __future__ import annotations

import gc
import inspect
import random
import sys
import weakref
from fractions import Fraction

import pytest
from mpmath import mp

from christoffel import (
    ModifierSpec,
    Polynomial,
    TolerancePolicy,
    associated,
    bound_separation,
    christoffel_transform,
    connection_decompose,
    custom_family,
    even_modifier,
    eval_with_derivative,
    generate,
    generate_all,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    recurrence_residual,
    values_ladder,
    zeros_golub_welsch,
)
from christoffel import core, families
from christoffel.core import _unpack, to_scalar
from polyhelpers import coeff, mpf_recurrence


def test_mp_recurrence_coefficients(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        cot = mp.cos(mp.mpf("0.9")) / mp.sin(mp.mpf("0.9"))
        assert fam.C(30) == -mp.mpf("29.5") * cot
        # printed reference value, 3 decimals
        assert abs(fam.C(30) - mp.mpf("-23.410")) < mp.mpf("5e-3")
        assert abs(fam.Lambda(2) - 1 / (4 * mp.sin(mp.mpf("0.9")) ** 2)) < policy.rel_tol
        assert abs(fam.Lambda(2) - mp.mpf("0.40743")) < mp.mpf("5e-5")


@pytest.mark.xfail(strict=True, reason="Lambda(n) forms (2 lam + n) - 2, which cancels at n = 2 for lam below about 1e-38")
def test_mp_lambda_2_keeps_a_tiny_lambda(policy):
    # Lambda(2) = 2 lam / (4 sin^2 phi); at lam = 1e-70 it is off by 8e-8 relative,
    # and at lam = 1e-300 it is 0, so --decompose --lambda 1e-300 exits 2
    fam = mp_family("1e-70", "0.9", policy)
    with policy.workprec():
        exact = 2 * mp.mpf("1e-70") / (4 * mp.sin(mp.mpf("0.9")) ** 2)
        assert abs(fam.Lambda(2) - exact) <= policy.rel_tol * exact


def test_mp_right_angle_phi_kills_C(policy):
    with policy.workprec():
        fam = mp_family("0.5", mp.pi / 2, policy)
    for n in (1, 7, 30):
        assert fam.C(n) == 0


def test_mp_parameter_validation(policy):
    with pytest.raises(ValueError):
        mp_family(0, 1, policy)
    with pytest.raises(ValueError):
        mp_family(1, 0, policy)
    with policy.workprec():
        pi = +mp.pi
    with pytest.raises(ValueError):
        mp_family(1, pi, policy)


def test_pj_recurrence_coefficients(policy):
    fam = pj_family(-10, 8, policy)
    with policy.workprec():
        assert abs(fam.C(5) - mp.mpf(8) / 3) < policy.rel_tol
        # Table reference: B_5(0) equals C_5 = 2.6667
        assert abs(fam.C(5) - mp.mpf("2.6667")) < mp.mpf("5e-4")
        lam5 = Fraction(6400, 5148)
        assert abs(fam.Lambda(5) - mp.mpf(lam5.numerator) / lam5.denominator) < policy.rel_tol
        assert fam.Lambda(5) > 0


def test_pj_symmetric_case_and_validity(policy):
    fam = pj_family("-5.5", 0, policy)
    for n in (1, 3, 5):
        assert fam.C(n) == 0
    assert fam.max_valid_degree == 5
    with pytest.raises(ValueError):
        generate(fam, 6, policy)
    assert pj_family("-10", 1, policy).max_valid_degree == 9
    assert pj_family("-5.0001", 3, policy).max_valid_degree == 5
    with pytest.raises(ValueError):
        pj_family(-2, 1, policy)


def _built_in_families(pol) -> list:
    """MP members with lambda from 1e-300 to 1e400000000 and PJ members with short and long validity ranges."""
    with pol.workprec():
        right_angle = mp.pi / 2
    lams = ("1e-300", "1e-70", "0.5", "3", "1e20", "1e400000000")
    members = [mp_family(lam, phi, pol) for lam in lams for phi in ("0.9", "3.0")] + [mp_family("0.5", right_angle, pol)]
    pjs = (("-5.5", 0), (-5, 3), ("-7.25", "-1e200"), (-35, 8), ("-60.3", "1e-30"))
    return members + [pj_family(a, b, pol) for a, b in pjs]


def _outcome(build):
    """build(), or the type of the exception it raises."""
    try:
        return build()
    except ArithmeticError as exc:
        return type(exc)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_kernel_rows_and_views_are_the_mpf_closures_bit_for_bit(bits, monkeypatch):
    # each built-in family's one row function against the mpf closures it replaced: its rows read at
    # the family's precision and at others, the C and Lambda views at the ambient precision (53 bits
    # included), and past PJ's validity range the same row or the same exception type
    calls = []
    mpf_add = core.mpf_add
    monkeypatch.setattr(core, "mpf_add", lambda *args: calls.append(args) or mpf_add(*args))
    pol = TolerancePolicy(precision_bits=bits)
    far = set()
    for fam in _built_in_families(pol):
        C, Lambda = mpf_recurrence(fam)
        top = 30 if fam.max_valid_degree is None else fam.max_valid_degree
        before = len(calls)
        for prec in (53, 64, 113, 256, 512):
            with mp.workprec(prec):
                want = [(C(j)._mpf_, Lambda(j)._mpf_) for j in range(1, top + 1)]
                assert [(fam.C(j)._mpf_, fam.Lambda(j)._mpf_) for j in range(1, top + 1)] == want
            rows = [(*_unpack(c), *_unpack(v)) for c, v in want]
            if prec > 53 and all(row[2] > 0 for row in rows[1:]):
                assert fam.kernel_rows(top, prec)[1:] == rows
            elif prec > 53:  # (2 lam + j) - 2 cancels a tiny lambda (ROADMAP item 1), and the rows stop there
                j = next(j for j, row in enumerate(rows[1:], 2) if row[2] <= 0)
                with pytest.raises(ValueError, match=rf"Lambda\({j}\) = 0.0 is not positive"):
                    fam.kernel_rows(top, prec)
            with mp.workprec(prec):
                for j in range(top + 1, top + 4 if fam.max_valid_degree is not None else top + 1):
                    row = _outcome(lambda: (*_unpack(C(j)._mpf_), *_unpack(Lambda(j)._mpf_)))
                    assert _outcome(lambda: fam.row(j, prec)) == row
        if len(calls) > before:
            far.add(fam.label)
    # sums of operands too far apart to align went to mpf_add, for the smallest and the largest lambda
    assert {"MP(lambda=1.0e-300, phi=0.9)", "MP(lambda=1.0e+400000000, phi=0.9)"} <= far


def test_generate_base_cases(policy):
    fam = pj_family(-10, 8, policy)
    assert generate(fam, 0, policy) == Polynomial([1])
    p1 = generate(fam, 1, policy)
    with policy.workprec():
        assert max(abs(c) for c in (p1 - Polynomial([-mp.mpf(8) / 9, 1])).coeffs + (mp.mpf(0),)) < policy.rel_tol


def test_generate_matches_unrolled_recurrence(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        lhs = generate(fam, 2, policy)
        rhs = Polynomial([-fam.C(2), 1]) * Polynomial([-fam.C(1), 1]) - fam.Lambda(2) * Polynomial([1])
        assert (lhs - rhs).inf_norm() < policy.rel_tol


def test_monicity_over_families(policy):
    for fam in (mp_family("0.5", "0.9", policy), mp_family(20, "0.1", policy), pj_family(-35, 8, policy)):
        for n in range(0, 21):
            assert generate(fam, n, policy).coeffs[-1] == 1


def test_recurrence_residual_random_points(policy):
    rng = random.Random(7)
    for fam in (mp_family("0.5", "0.9", policy), pj_family(-35, 8, policy)):
        for n in range(2, 31, 7):
            for _ in range(3):
                x = rng.uniform(-6, 6)
                assert recurrence_residual(fam, n, x, policy) <= policy.rel_tol


def test_lambda_positive_across_validity(policy):
    rng = random.Random(11)
    for _ in range(25):
        lam, phi = rng.uniform(0.05, 40), rng.uniform(0.01, 3.13)
        fam = mp_family(lam, phi, policy)
        assert all(fam.Lambda(n) > 0 for n in range(2, 31))
    for _ in range(25):
        a = rng.uniform(-60, -5)
        fam = pj_family(a, rng.uniform(-10, 10), policy)
        assert all(fam.Lambda(n) > 0 for n in range(2, fam.max_valid_degree + 1))


def test_pj_even_weight_parity(policy):
    fam = pj_family("-21.5", 0, policy)
    with policy.workprec():
        for n in range(0, 13):
            p = generate(fam, n, policy)
            # p_n(-x) = (-1)^n p_n(x): the coefficients of the other parity vanish
            assert all(c == 0 for c in p.coeffs[(n + 1) % 2 :: 2])


def test_even_modifier_shapes(policy):
    fam = mp_family("0.5", "0.9", policy)
    empty = even_modifier(fam, 0, policy)
    assert empty.c == Polynomial([1]) and empty.nodes == ()
    mod = even_modifier(fam, 2, policy)
    with policy.workprec():
        assert (mod.c - Polynomial(["0.5625", 0, "2.5", 0, 1])).inf_norm() < policy.rel_tol
        assert [mp.im(z) for z in mod.nodes] == [mp.mpf("0.5"), mp.mpf("1.5")]
    pj = pj_family(-10, 8, policy)
    assert even_modifier(pj, 1, policy).c == Polynomial([1, 0, 1])
    # (1 + x^2)^k: the node i, k times
    assert even_modifier(pj, 2, policy).c == Polynomial([1, 0, 2, 0, 1])
    assert even_modifier(pj, 3, policy).c == Polynomial([1, 0, 3, 0, 3, 0, 1])
    assert even_modifier(pj, 3, policy).nodes == (mp.mpc(0, 1),) * 3
    with pytest.raises(ValueError):
        even_modifier(pj, -1, policy)


def test_even_modifier_has_no_odd_coefficients(policy):
    fam = mp_family("1.25", "0.6", policy)
    for k in range(6):
        mod = even_modifier(fam, k, policy)
        assert mod.c.degree == 2 * k
        assert all(coeff(mod.c, i) == 0 for i in range(1, 2 * k, 2))


def test_repeated_nodes_are_zeros_of_multiplicity(policy):
    # a node repeated, or repeated up to sign, doubles the zero pair +-i
    for nodes in ([mp.mpc(0, 1), mp.mpc(0, 1)], [mp.mpc(0, 1), mp.mpc(0, -1)]):
        mod = ModifierSpec(nodes, policy)
        assert mod.k == 2
        assert mod.c == Polynomial([1, 0, 2, 0, 1])
    # the node 0 is a double zero of c = x^2
    assert ModifierSpec([0], policy).c == Polynomial([0, 0, 1])


def test_modifier_hash_is_formed_once(policy, monkeypatch):
    # each decomposition's store key holds its modifier, so hashing it must not re-hash c or the nodes
    nodes = [mp.mpc(0, "0.5"), mp.mpc(0, "1.5")]
    a, b = ModifierSpec(nodes, policy), ModifierSpec(list(nodes), policy)
    other = ModifierSpec(nodes[:1], policy)
    monkeypatch.setattr(Polynomial, "__hash__", lambda self: pytest.fail("c hashed again"))
    assert a == b and hash(a) == hash(b) and a != other
    assert len({a, b, other}) == 2


def test_modifier_without_nodes_is_one():
    empty = ModifierSpec([])
    assert empty.k == 0
    assert empty.c == Polynomial([1])


def test_symmetry_residual(policy):
    fam = mp_family("0.5", "0.9", policy)
    assert mp_symmetry_residual(fam, 0, "1.3", policy) == 0
    assert mp_symmetry_residual(fam, 5, "1.3", policy) <= policy.rel_tol
    assert mp_symmetry_residual(mp_family(20, "0.1", policy), 8, -4, policy) <= policy.rel_tol
    # non-dyadic lambda exercises precision handling of the mirror family
    assert mp_symmetry_residual(mp_family("0.2", "2.2", policy), 9, "0.37", policy) <= policy.rel_tol
    with pytest.raises(ValueError, match="Meixner-Pollaczek"):
        mp_symmetry_residual(pj_family(-10, 8, policy), 5, "1.3", policy)


def test_shift_keeps_parameter_precision(policy):
    # 0.2 + 1 is not exact in binary; the shift must round it at the working
    # precision, not at the 53-bit ambient default
    fam = mp_family("0.2", "0.4", policy)
    shifted = fam.shifted(1)
    with policy.workprec():
        expect = mp.mpf("0.2") + 1
    assert shifted.params["lambda"] == expect


def test_kept_shift_builds_no_policy(policy, monkeypatch):
    fam = mp_family("0.5", "0.9", policy)
    first = fam.shifted(2)
    built = []

    def counting(**kwargs):
        built.append(kwargs)
        return TolerancePolicy(**kwargs)

    monkeypatch.setattr(families, "TolerancePolicy", counting)
    for _ in range(3):
        assert fam.shifted(2) is first
    assert built == []


@pytest.mark.parametrize(
    "C, Lambda, bad",
    [
        (lambda j: mp.mpf(0), lambda j: mp.nan, r"Lambda\(2\) = nan is not positive"),
        (lambda j: mp.mpf(0), lambda j: mp.mpf(-1), r"Lambda\(2\) = -1.0 is not positive"),
        (lambda j: mp.inf, lambda j: mp.mpf(1), r"C\(1\) = \+inf is not finite"),
    ],
)
@pytest.mark.parametrize(
    "use",
    [
        lambda fam, pol: eval_with_derivative(fam, 4, "0.5", pol),
        lambda fam, pol: generate(fam, 4, pol),
        lambda fam, pol: zeros_golub_welsch(fam, 4, pol),
    ],
    ids=["eval_with_derivative", "generate", "zeros_golub_welsch"],
)
def test_recurrence_values_checked_where_they_enter(C, Lambda, bad, use, policy):
    # every reader of the recurrence arrays gets the error, never nan values;
    # the second call shows that no bad value was kept by the family
    fam = custom_family(C, Lambda, label="bad", policy=policy)
    for _ in range(2):
        with pytest.raises(ValueError, match=bad):
            use(fam, policy)


@pytest.mark.parametrize(
    "C, Lambda",
    [
        (lambda j: 0, lambda j: 1),
        (lambda j: j % 3 - 1, lambda j: j * (j - 1)),
        (lambda j: j / 4, lambda j: (j - 1) / 2),
    ],
    ids=["constant", "integer", "quarters"],
)
def test_int_float_and_mpf_maps_give_the_same_polynomials(C, Lambda, policy):
    # the maps' values are read as mpf values once, where they enter, so a
    # map may return an int or a float; equal values give equal bits
    def derived(c_map, lambda_map):
        fam = custom_family(c_map, lambda_map, policy=policy)
        modifier = ModifierSpec([mp.mpc(0, 1)], policy)
        with policy.workprec():
            polys = [
                *generate_all(fam, 8, policy),
                *(associated(fam, 8, m, policy) for m in range(9)),
                christoffel_transform(fam, modifier, 4, policy),
            ]
            residual = recurrence_residual(fam, 8, "0.3", policy)
        return [[c._mpf_ for c in p.coeffs] for p in polys], residual._mpf_

    with policy.workprec():
        exact = derived(lambda j: mp.mpf(C(j)), lambda j: mp.mpf(Lambda(j)))
    assert derived(C, Lambda) == exact
    assert derived(lambda j: float(C(j)), lambda j: float(Lambda(j))) == exact


def test_eval_with_derivative_matches_coefficients(policy):
    fam = mp_family("2.5", "1.1", policy)
    with policy.workprec():
        p = generate(fam, 9, policy)
        dp = p.derivative()
        for xv in ("-3.7", "0.25", "11"):
            x = mp.mpf(xv)
            v, d = eval_with_derivative(fam, 9, x, policy)
            assert abs(v - p(x)) <= policy.rel_tol * max(1, abs(v))
            assert abs(d - dp(x)) <= policy.rel_tol * max(1, abs(d))


def _recurrence_value_and_derivative(fam, n, x, pol):
    """(p_n(x), p_n'(x)) by the mpf recurrence loop, written out independently."""
    C, L = fam.recurrence(n, pol.precision_bits)
    with pol.workprec():
        x = to_scalar(x)  # an mpf point enters unrounded, as in the sweep
        p, p_prev, d, d_prev = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)
        for j in range(1, n + 1):
            xc = x - C[j]
            p, p_prev = xc * p - L[j] * p_prev, p
            d, d_prev = p_prev + xc * d - L[j] * d_prev, d
        return p, d


def _mp_at_half_pi(pol):
    with pol.workprec():
        return mp_family("0.5", mp.pi / 2, pol)  # C(j) == 0 for every j


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
@pytest.mark.parametrize(
    "make",
    [lambda pol: mp_family("0.5", "0.9", pol), lambda pol: pj_family(-20, 8, pol), _mp_at_half_pi],
    ids=["MP", "PJ", "MP-half-pi"],
)
def test_values_ladder_rows_are_eval_with_derivative_bit_for_bit(make, bits):
    pol = TolerancePolicy(precision_bits=bits)
    fam, n = make(pol), 16
    C, _ = fam.recurrence(n, bits)
    with mp.workprec(2 * bits):
        wide = mp.mpf(-7) / 3  # enters unrounded, rounded by the first subtraction
    with pol.workprec():
        ones = mp.ldexp(mp.ldexp(1, bits) - 1, 3 - bits)  # a mantissa of bits ones, just below 8
    for x in ("-3.7", "0.25", "11", 11, -2, C[5], C[16], ones, wide):
        rows = values_ladder(fam, n, x, pol)
        assert len(rows) == n + 1
        for j, (v, d) in enumerate(rows):
            for ev, ed in (eval_with_derivative(fam, j, x, pol), _recurrence_value_and_derivative(fam, j, x, pol)):
                assert (v._mpf_, d._mpf_) == (ev._mpf_, ed._mpf_)


@pytest.mark.parametrize(
    "x", ["inf", "-inf", "nan", mp.inf, mp.nan], ids=["inf-str", "-inf-str", "nan-str", "inf", "nan"]
)
def test_sweep_rejects_a_nonfinite_point(x, policy):
    # the sweep's kernel would read inf and nan as 0 and return p(0)
    fam = mp_family("0.5", "0.9", policy)
    for sweep in (eval_with_derivative, values_ladder):
        with pytest.raises(ValueError, match="evaluation point .* is not finite"):
            sweep(fam, 4, x, policy)


def test_far_apart_sums_are_mpf_add_bit_for_bit(policy, monkeypatch):
    # x - C(j) with x = 1e400000000 is an exponent gap of about 1.3e9 bits: the
    # kernel hands such sums to mpf_add instead of aligning the mantissas
    calls = []
    mpf_add = core.mpf_add
    monkeypatch.setattr(core, "mpf_add", lambda *args: calls.append(args) or mpf_add(*args))
    fam, x = mp_family("0.5", "0.9", policy), "1e400000000"
    v, d = eval_with_derivative(fam, 8, x, policy)
    ev, ed = _recurrence_value_and_derivative(fam, 8, x, policy)
    assert (v._mpf_, d._mpf_) == (ev._mpf_, ed._mpf_)
    assert calls
    p = generate(fam, 8, policy)
    calls.clear()
    with policy.workprec():
        acc, z = mp.mpf(0), mp.mpf(x)
        for c in reversed(p.coeffs):
            acc = acc * z + c
        assert p(x)._mpf_ == acc._mpf_
    assert calls


def test_generate_all_prefix_consistency(policy):
    fam = pj_family(-26, -4, policy)
    ladder = generate_all(fam, 12, policy)
    assert len(ladder) == 13
    assert ladder[7] == generate(fam, 7, policy)


def test_dropped_family_frees_what_it_derived(policy):
    # by reference counting alone: nothing the family keeps refers back to it
    gc.disable()
    try:
        fam = mp_family("0.5", "0.9", policy)
        generate(fam, 12, policy)
        zeros_golub_welsch(fam, 8, policy)
        associated(fam, 9, 4, policy)
        fam.shifted(2)
        connection_decompose(fam, even_modifier(fam, 2, policy), 8, 3, policy)
        christoffel_transform(fam, even_modifier(fam, 1, policy), 3, policy)  # keeps the node rows
        mp_symmetry_residual(fam, 6, "0.7", policy)
        bound_separation(fam, 10, policy)  # keeps a spectrum with cells still to finish
        refs = [weakref.ref(fam)] + [weakref.ref(fam._store["spectrum", n, policy.precision_bits]) for n in (8, 10)]
        assert fam._store["spectrum", 10, policy.precision_bits].all is None
        del fam
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_ladder_is_not_recursive():
    p64 = TolerancePolicy(precision_bits=64)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        p = generate(mp_family("0.5", "0.9", p64), 300, p64)
    finally:
        sys.setrecursionlimit(limit)
    assert p.degree == 300 and p.coeffs[-1] == 1
