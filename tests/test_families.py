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
    connection_decompose,
    even_modifier,
    eval_with_derivative,
    generate,
    generate_all,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    recurrence_residual,
    zeros_golub_welsch,
)


def test_mp_recurrence_coefficients(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        cot = mp.cos(mp.mpf("0.9")) / mp.sin(mp.mpf("0.9"))
        assert fam.C(30) == -mp.mpf("29.5") * cot
        # printed reference value, 3 decimals
        assert abs(fam.C(30) - mp.mpf("-23.410")) < mp.mpf("5e-3")
        assert abs(fam.Lambda(2) - 1 / (4 * mp.sin(mp.mpf("0.9")) ** 2)) < policy.rel_tol
        assert abs(fam.Lambda(2) - mp.mpf("0.40743")) < mp.mpf("5e-5")


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
            assert p.reflected() == (-1 * p if n % 2 else p)


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
    with pytest.raises(ValueError):
        even_modifier(pj, 2, policy)


def test_even_modifier_has_no_odd_coefficients(policy):
    fam = mp_family("1.25", "0.6", policy)
    for k in range(6):
        mod = even_modifier(fam, k, policy)
        assert mod.c.degree == 2 * k
        assert all(mod.c.coeff(i) == 0 for i in range(1, 2 * k, 2))


def test_modifier_validation_rejects_repeated_nodes(policy):
    with pytest.raises(ValueError):
        ModifierSpec.from_nodes([mp.mpc(0, 1), mp.mpc(0, 1)], policy)
    with pytest.raises(ValueError):
        ModifierSpec.from_nodes([mp.mpc(0, 1), mp.mpc(0, -1)], policy)


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


def test_generate_all_prefix_consistency(policy):
    fam = pj_family(-26, -4, policy)
    ladder = generate_all(fam, 12, policy)
    assert len(ladder) == 13
    assert ladder[7] == generate(fam, 7, policy)


def test_dropped_family_frees_what_it_derived(policy):
    fam = mp_family("0.5", "0.9", policy)
    generate(fam, 12, policy)
    zeros_golub_welsch(fam, 8, policy)
    associated(fam, 9, 4, policy)
    fam.shifted(2)
    connection_decompose(fam, even_modifier(fam, 2, policy), 8, 3, policy)
    mp_symmetry_residual(fam, 6, "0.7", policy)
    ref = weakref.ref(fam)
    del fam
    gc.collect()
    assert ref() is None


def test_ladder_is_not_recursive():
    p64 = TolerancePolicy(precision_bits=64)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        p = generate(mp_family("0.5", "0.9", p64), 300, p64)
    finally:
        sys.setrecursionlimit(limit)
    assert p.degree == 300 and p.coeffs[-1] == 1
