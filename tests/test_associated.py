from __future__ import annotations

import random

import pytest
from mpmath import mp

from christoffel import (
    Polynomial,
    TolerancePolicy,
    associated,
    associated_identity_residual,
    extension_identity_residual,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    recurrence_residual,
)
from christoffel.families import MEIXNER_POLLACZEK
from polyhelpers import (
    mpf_associated_identity_residual,
    mpf_extension_identity_residual,
    mpf_recurrence_residual,
    mpf_symmetry_residual,
)


def test_order_zero_is_one(policy):
    fam = mp_family("0.5", "0.9", policy)
    assert associated(fam, 8, 0, policy) == Polynomial([1])


def test_order_one_is_linear_in_anchor_coefficient(policy):
    fam = mp_family("0.5", "0.9", policy)
    for anchor in (3, 6, 11):
        with policy.workprec():
            expect = Polynomial([-fam.C(anchor), 1])
            assert (associated(fam, anchor, 1, policy) - expect).inf_norm() == 0


def test_order_two_unrolls_one_step(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        lhs = associated(fam, 6, 2, policy)
        rhs = Polynomial([-fam.C(5), 1]) * Polynomial([-fam.C(6), 1]) - fam.Lambda(6) * Polynomial([1])
        assert (lhs - rhs).inf_norm() < policy.rel_tol


def test_degree_and_monicity(policy):
    for fam in (mp_family(20, "0.1", policy), pj_family(-35, 8, policy)):
        for n in range(0, 21):
            for m in range(0, n + 1):
                s = associated(fam, n, m, policy)
                assert s.degree == m
                assert s.coeffs[-1] == 1


def test_anchor_matters(policy):
    fam = mp_family("0.5", "0.9", policy)
    assert associated(fam, 10, 2, policy) != associated(fam, 9, 2, policy)


def test_bridge_identity_reduces_to_recurrence_at_gap_two(policy):
    fam = mp_family("0.5", "0.9", policy)
    for x in ("-1.5", "0.3", "4"):
        assert associated_identity_residual(fam, 9, 2, x, policy) < mp.ldexp(1, -200)


def test_bridge_identity_residuals_full_triangle(policy):
    rng = random.Random(3)
    for fam in (mp_family("0.5", "0.9", policy), pj_family(-35, 8, policy)):
        for n in range(2, 21):
            for m in range(2, n + 1):
                for _ in range(10):
                    x = rng.uniform(-4, 4)
                    assert associated_identity_residual(fam, n, m, x, policy) <= policy.rel_tol


def test_bridge_identity_residuals_other_parameters(policy):
    rng = random.Random(4)
    fam = mp_family(20, "0.1", policy)
    for n in (6, 13, 20):
        for m in range(2, n + 1, 4):
            for _ in range(3):
                x = rng.uniform(-4, 4)
                assert associated_identity_residual(fam, n, m, x, policy) <= policy.rel_tol


def test_bridge_identity_specific_points(policy):
    assert associated_identity_residual(mp_family("0.5", "0.9", policy), 10, 5, "0.7", policy) <= policy.rel_tol
    assert associated_identity_residual(pj_family(-35, 8, policy), 12, 7, "-2.1", policy) <= policy.rel_tol


def test_extension_identity_trivial_orders(policy):
    fam = pj_family(-35, 8, policy)
    for x in ("-2", "0.1"):
        assert extension_identity_residual(fam, 5, 0, x, policy) == 0
        assert extension_identity_residual(fam, 5, 1, x, policy) <= policy.rel_tol


def test_extension_identity_residuals_full_range(policy):
    rng = random.Random(5)
    for fam in (mp_family(20, "0.1", policy), pj_family(-26, -4, policy)):
        for n in range(1, 11):
            for m in range(0, 11):
                for _ in range(10):
                    x = rng.uniform(-4, 4)
                    assert extension_identity_residual(fam, n, m, x, policy) <= policy.rel_tol
    assert extension_identity_residual(mp_family(20, "0.1", policy), 6, 4, "3.3", policy) <= policy.rel_tol


def test_index_validation(policy):
    fam = mp_family("0.5", "0.9", policy)
    with pytest.raises(ValueError):
        associated(fam, 5, 6, policy)
    with pytest.raises(ValueError):
        associated_identity_residual(fam, 5, 1, 0, policy)
    with pytest.raises(ValueError):
        extension_identity_residual(fam, 0, 2, 0, policy)
    pj = pj_family("-5.5", 0, policy)
    with pytest.raises(ValueError):
        extension_identity_residual(pj, 3, 4, 0, policy)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_identity_residuals_are_the_mpf_bodies_bit_for_bit(bits):
    # the four identity residuals on kernel pairs against the mpf bodies they replaced, on --verify's families
    # and MP(0.5, pi/2), at seeded degrees and points: 0, tiny, up to 200 in size, and one wider than the precision
    policy = TolerancePolicy(precision_bits=bits)
    rng = random.Random(bits)
    with mp.workprec(2 * bits):
        wide = mp.mpf(-7) / 3
    with policy.workprec():
        fams = [mp_family(*params, policy) for params in (("0.5", "0.9"), ("20", "0.1"), ("3.25", "2.4"), ("0.5", mp.pi / 2))]
        fams += [pj_family(*params, policy) for params in (("-35", "8"), ("-26", "-4"), ("-23.5", "0"))]
    points = [0, "1e-40", mp.ldexp(1, -300), "-2e-9", 200, "-200", "137.25", wide]
    checks = [
        (recurrence_residual, mpf_recurrence_residual, lambda: (rng.randint(2, 20),)),
        (associated_identity_residual, mpf_associated_identity_residual, lambda: (n := rng.randint(2, 20), rng.randint(2, n))),
        (extension_identity_residual, mpf_extension_identity_residual, lambda: (rng.randint(1, 12), rng.randint(0, 10))),
        (mp_symmetry_residual, mpf_symmetry_residual, lambda: (rng.randint(0, 14),)),
    ]
    cases = 0
    for fam in fams:
        for kernel, oracle, degrees in checks * 8:
            if kernel is mp_symmetry_residual and fam.kind != MEIXNER_POLLACZEK:
                continue
            x = rng.choice(points) if rng.random() < 0.4 else rng.uniform(-200, 200) if rng.random() < 0.5 else rng.uniform(-4, 4)
            args = degrees()
            assert kernel(fam, *args, x, policy)._mpf_ == oracle(fam, *args, x, policy)._mpf_, (fam.label, kernel.__name__, args, x)
            cases += 1
    assert cases == 200
