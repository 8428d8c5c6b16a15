from __future__ import annotations

import ast
import gc
import inspect
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from christoffel import (
    ModifierSpec,
    Polynomial,
    TolerancePolicy,
    associated,
    associated_identity_residual,
    bound_separation,
    christoffel_transform,
    connection_decompose,
    connection_degree_law,
    custom_family,
    even_modifier,
    eval_with_derivative,
    extension_identity_residual,
    gauss_rule,
    generate,
    generate_all,
    inner_bound,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    recurrence_residual,
    stieltjes_check,
    zeros_golub_welsch,
)
from christoffel import cli, families
from christoffel.core import _to_mpf, _unpack, to_scalar
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
def test_kernel_rows_and_views_are_the_mpf_closures_bit_for_bit(bits, far_sums):
    # each built-in family's one row function against the mpf closures it replaced: its rows read at
    # the family's precision and at others, the C and Lambda views at the ambient precision (53 bits
    # included), and past PJ's validity range the same row or the same exception type
    pol = TolerancePolicy(precision_bits=bits)
    far = set()
    for fam in _built_in_families(pol):
        C, Lambda = mpf_recurrence(fam, bits)
        top = 30 if fam.max_valid_degree is None else fam.max_valid_degree
        before = len(far_sums)
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
        if any(m1 and m2 for m1, _, m2, _, _ in far_sums[before:]):
            far.add(fam.label)
    # sums of nonzero operands too far apart to align took mpf_add's far-sum rule, for the smallest and the largest lambda
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


def test_modifier_rejects_nodes_whose_square_is_not_real(policy):
    # z^2 = 2i and -3.75 + 2i: c = prod (x^2 - z^2) would have complex coefficients
    for z in (mp.mpc(1, 1), mp.mpc("0.5", 2)):
        with pytest.raises(ValueError, match="would give a non-real modifier polynomial"):
            ModifierSpec([z], policy)
    # a nan node passes that test, as every comparison with nan is false
    for z in (mp.nan, mp.inf, mp.mpc(mp.nan, 1), mp.mpc(0, mp.inf)):
        with pytest.raises(ValueError, match="is not finite"):
            ModifierSpec([z], policy)


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


@pytest.mark.parametrize("k", [1.5, 1.0, mp.mpf(1), "1"])
def test_shift_and_modifier_orders_must_be_integers(k, policy):
    # one order check for both: a float shift would key its own store entry and shift lambda by 1.5
    fam = mp_family("0.5", "0.9", policy)
    with pytest.raises(ValueError, match="^shift must be an integer, got "):
        fam.shifted(k)
    with pytest.raises(ValueError, match="^modifier order k must be an integer, got "):
        even_modifier(fam, k, policy)
    assert not fam._store


def _pj(pol):
    return pj_family("-20", "8", pol)  # valid to degree 19


_PJ_RANGE = "exceeds the validity range of PJ(a=-20.0, b=8.0) (max valid degree 19)"

# Every public entry point with a degree, gap or order, given a bool, a float, a value below its range and one
# above it: (id, call(fam, pol) on fam = MP(0.5, 0.9), the whole message, which names what the caller passed)
_BAD_ARGUMENTS = [
    ("generate", lambda fam, pol: generate(fam, 2.5, pol), "degree must be an integer, got 2.5"),
    ("generate-bool", lambda fam, pol: generate(fam, True, pol), "degree must be an integer, got True"),
    ("generate-below", lambda fam, pol: generate(fam, -1, pol), "degree must be nonnegative, got -1"),
    ("generate-above", lambda fam, pol: generate(_pj(pol), 20, pol), f"degree 20 {_PJ_RANGE}"),
    ("generate_all-bool", lambda fam, pol: generate_all(fam, False, pol), "degree must be an integer, got False"),
    ("eval_with_derivative-bool", lambda fam, pol: eval_with_derivative(fam, True, 1, pol), "degree must be an integer, got True"),
    ("mp_symmetry_residual-float", lambda fam, pol: mp_symmetry_residual(fam, 2.5, 1, pol), "degree must be an integer, got 2.5"),
    ("recurrence_residual", lambda fam, pol: recurrence_residual(fam, 2.5, 1, pol), "degree must be an integer, got 2.5"),
    ("recurrence_residual-bool", lambda fam, pol: recurrence_residual(fam, True, 1, pol), "degree must be an integer, got True"),
    ("recurrence_residual-below", lambda fam, pol: recurrence_residual(fam, 1, 1, pol), "degree must be at least 2, got 1"),
    ("recurrence_residual-above", lambda fam, pol: recurrence_residual(_pj(pol), 20, 1, pol), f"degree 20 {_PJ_RANGE}"),
    ("custom_family-bool", lambda fam, pol: custom_family(fam.C, fam.Lambda, True), "max_valid_degree must be an integer, got True"),
    ("custom_family-below", lambda fam, pol: custom_family(fam.C, fam.Lambda, -3), "max_valid_degree must be nonnegative, got -3"),
    ("shifted-bool", lambda fam, pol: fam.shifted(True), "shift must be an integer, got True"),
    ("shifted-below", lambda fam, pol: fam.shifted(-1), "shift must be nonnegative, got -1"),
    ("even_modifier-bool", lambda fam, pol: even_modifier(fam, True, pol), "modifier order k must be an integer, got True"),
    ("even_modifier-below", lambda fam, pol: even_modifier(fam, -1, pol), "modifier order k must be nonnegative, got -1"),
    ("zeros_golub_welsch", lambda fam, pol: zeros_golub_welsch(fam, 2.5, pol), "degree must be an integer, got 2.5"),
    ("zeros_golub_welsch-bool", lambda fam, pol: zeros_golub_welsch(fam, True, pol), "degree must be an integer, got True"),
    ("zeros_golub_welsch-below", lambda fam, pol: zeros_golub_welsch(fam, -1, pol), "degree must be nonnegative, got -1"),
    ("zeros_golub_welsch-above", lambda fam, pol: zeros_golub_welsch(_pj(pol), 20, pol), f"degree 20 {_PJ_RANGE}"),
    ("gauss_rule", lambda fam, pol: gauss_rule(fam, 3.0, pol), "degree must be an integer, got 3.0"),
    ("gauss_rule-bool", lambda fam, pol: gauss_rule(fam, True, pol), "degree must be an integer, got True"),
    ("gauss_rule-below", lambda fam, pol: gauss_rule(fam, 0, pol), "degree must be at least 1, got 0"),
    ("gauss_rule-above", lambda fam, pol: gauss_rule(_pj(pol), 20, pol), f"degree 20 {_PJ_RANGE}"),
    ("inner_bound", lambda fam, pol: inner_bound(fam, 5, 1.0, pol), "bound order k must be an integer, got 1.0"),
    ("inner_bound-bool", lambda fam, pol: inner_bound(fam, 5, True, pol), "bound order k must be an integer, got True"),
    ("inner_bound-below", lambda fam, pol: inner_bound(fam, 5, -1, pol), "bound order k must be in 0..2, got -1"),
    ("inner_bound-above", lambda fam, pol: inner_bound(fam, 5, 3, pol), "bound order k must be in 0..2, got 3"),
    ("inner_bound-n-float", lambda fam, pol: inner_bound(fam, 5.0, 1, pol), "degree must be an integer, got 5.0"),
    ("inner_bound-n-below", lambda fam, pol: inner_bound(fam, 0, 1, pol), "degree must be at least 1, got 0"),
    ("bound_separation-float", lambda fam, pol: bound_separation(fam, 12.0, pol), "degree must be an integer, got 12.0"),
    ("bound_separation-below", lambda fam, pol: bound_separation(fam, 1, pol), "degree must be at least 2, got 1"),
    ("bound_separation-above", lambda fam, pol: bound_separation(_pj(pol), 20, pol), f"degree 20 {_PJ_RANGE}"),
    ("stieltjes_check-bool", lambda fam, pol: stieltjes_check(fam, True, 10, pol), "modifier order k must be an integer, got True"),
    ("stieltjes_check-below", lambda fam, pol: stieltjes_check(fam, -1, 10, pol), "modifier order k must be in 0..2, got -1"),
    ("stieltjes_check-above", lambda fam, pol: stieltjes_check(fam, 3, 10, pol), "modifier order k must be in 0..2, got 3"),
    ("stieltjes_check-n-float", lambda fam, pol: stieltjes_check(fam, 1, 10.0, pol), "degree must be an integer, got 10.0"),
    ("stieltjes_check-n-below", lambda fam, pol: stieltjes_check(fam, 1, 1, pol), "degree must be at least 2, got 1"),
    ("stieltjes_check-n-above", lambda fam, pol: stieltjes_check(_pj(pol), 1, 20, pol), f"degree 20 {_PJ_RANGE}"),
    ("associated", lambda fam, pol: associated(fam, 5, 1.5, pol), "order m must be an integer, got 1.5"),
    ("associated-bool", lambda fam, pol: associated(fam, 5, True, pol), "order m must be an integer, got True"),
    ("associated-below", lambda fam, pol: associated(fam, 5, -1, pol), "order m must be in 0..5, got -1"),
    ("associated-above", lambda fam, pol: associated(fam, 5, 6, pol), "order m must be in 0..5, got 6"),
    ("associated-n-bool", lambda fam, pol: associated(fam, True, 0, pol), "degree must be an integer, got True"),
    ("associated_identity_residual", lambda fam, pol: associated_identity_residual(fam, 6, 2.5, 1, pol), "order m must be an integer, got 2.5"),
    ("associated_identity_residual-bool", lambda fam, pol: associated_identity_residual(fam, True, 2, 1, pol), "degree must be an integer, got True"),
    ("associated_identity_residual-below", lambda fam, pol: associated_identity_residual(fam, 5, 1, 1, pol), "order m must be in 2..5, got 1"),
    ("associated_identity_residual-above", lambda fam, pol: associated_identity_residual(fam, 5, 6, 1, pol), "order m must be in 2..5, got 6"),
    ("extension_identity_residual-float", lambda fam, pol: extension_identity_residual(fam, 5, 1.5, 1, pol), "order m must be an integer, got 1.5"),
    ("extension_identity_residual-bool", lambda fam, pol: extension_identity_residual(fam, True, 1, 1, pol), "degree must be an integer, got True"),
    ("extension_identity_residual-below", lambda fam, pol: extension_identity_residual(fam, 0, 2, 1, pol), "degree must be at least 1, got 0"),
    ("extension_identity_residual-m-below", lambda fam, pol: extension_identity_residual(fam, 5, -1, 1, pol), "order m must be nonnegative, got -1"),
    ("extension_identity_residual-above", lambda fam, pol: extension_identity_residual(_pj(pol), 15, 6, 1, pol), f"degree 21 (n + m for n=15, m=6) {_PJ_RANGE}"),
    ("degree_law_k", lambda fam, pol: connection_degree_law(1.5, 3), "modifier order k must be an integer, got 1.5"),
    ("degree_law_m", lambda fam, pol: connection_degree_law(1, 2.5), "gap m must be an integer, got 2.5"),
    ("degree_law-bool", lambda fam, pol: connection_degree_law(True, 3), "modifier order k must be an integer, got True"),
    ("degree_law-k-below", lambda fam, pol: connection_degree_law(-1, 3), "modifier order k must be nonnegative, got -1"),
    ("degree_law-m-below", lambda fam, pol: connection_degree_law(1, 1), "gap m must be at least 2, got 1"),
    ("christoffel_transform-float", lambda fam, pol: christoffel_transform(fam, even_modifier(fam, 1, pol), 2.5, pol), "degree must be an integer, got 2.5"),
    ("christoffel_transform-bool", lambda fam, pol: christoffel_transform(fam, even_modifier(fam, 1, pol), True, pol), "degree must be an integer, got True"),
    ("christoffel_transform-above", lambda fam, pol: christoffel_transform(_pj(pol), even_modifier(_pj(pol), 3, pol), 15, pol), f"degree 21 (deg + 2k for deg=15, k=3) {_PJ_RANGE}"),
    ("connection_decompose", lambda fam, pol: connection_decompose(fam, even_modifier(fam, 1, pol), 5, 2.5, pol), "gap m must be an integer, got 2.5"),
    ("connection_decompose-bool", lambda fam, pol: connection_decompose(fam, even_modifier(fam, 1, pol), True, 2, pol), "degree must be an integer, got True"),
    ("connection_decompose-below", lambda fam, pol: connection_decompose(fam, even_modifier(fam, 1, pol), 5, 1, pol), "gap m must be in 2..5, got 1"),
    ("connection_decompose-above", lambda fam, pol: connection_decompose(fam, even_modifier(fam, 1, pol), 5, 6, pol), "gap m must be in 2..5, got 6"),
    ("connection_decompose-top-above", lambda fam, pol: connection_decompose(_pj(pol), even_modifier(_pj(pol), 9, pol), 8, 2, pol), f"degree 24 (n - m + 2k for n=8, m=2, k=9) {_PJ_RANGE}"),
    ("dispatch-n-float", lambda fam, pol: cli.dispatch(cli.RunConfig(command="grid", n=4.5)), "--n must be an integer, got 4.5"),
    ("dispatch-table-float", lambda fam, pol: cli.dispatch(cli.RunConfig(command="table", table_id=2.0)), "--table must be an integer, got 2.0"),
    ("dispatch-k-bool", lambda fam, pol: cli.dispatch(cli.RunConfig(command="decompose", family="mp", lam="0.5", phi="0.9", n=5, m=2, k=True)), "--k must be an integer, got True"),
    ("dispatch-m-below", lambda fam, pol: cli.dispatch(cli.RunConfig(command="decompose", family="mp", lam="0.5", phi="0.9", n=5, m=-2, k=1)), "--m must be nonnegative, got -2"),
]


def _bad_arguments(non_integer: bool):
    cases = [case for case in _BAD_ARGUMENTS if ("must be an integer" in case[2]) == non_integer]
    return pytest.mark.parametrize("call, message", [case[1:] for case in cases], ids=[case[0] for case in cases])


@_bad_arguments(non_integer=True)
def test_a_non_integer_degree_gap_or_order_is_a_value_error(call, message, policy):
    # range(2.5) would raise TypeError, (B0, B1, B2)[1.0] too, the degree law would answer deg_G = 2 for k = 1.5,
    # and True would be taken for 1
    with pytest.raises(ValueError) as raised:
        call(mp_family("0.5", "0.9", policy), policy)
    assert str(raised.value) == message


@_bad_arguments(non_integer=False)
def test_a_degree_gap_or_order_out_of_range_names_what_the_caller_passed(call, message, policy):
    # checked where the caller passed it, before any degree derived from it; a derived degree past the family's
    # range says which arguments need it
    with pytest.raises(ValueError) as raised:
        call(mp_family("0.5", "0.9", policy), policy)
    assert str(raised.value) == message


def test_a_shift_out_of_range_names_the_family_and_order(policy):
    # a = -3.5 shifted by 2 is -1.5, a value the caller never gave
    fam = pj_family("-3.5", "1", policy)
    for call in (lambda: fam.shifted(2), lambda: stieltjes_check(fam, 2, 3, policy)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == "the order-2 shift of PJ(a=-3.5, b=1.0) leaves its parameter range"
    assert fam.shifted(1).params["a"] == mp.mpf("-2.5")


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
    fam = custom_family(C, Lambda, label="bad")
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
        fam = custom_family(c_map, lambda_map)
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
def test_sweep_rows_are_eval_with_derivative_bit_for_bit(make, bits):
    # row j of one kernel sweep to degree n has the bits of a sweep to degree j, so the grid reads every g_{n-m,k}
    # off the rows swept to its first cell's degree; and the bits of the recurrence written with mpf operations.
    # The rows in doubles lie within their bounds of those bits.
    pol = TolerancePolicy(precision_bits=bits)
    fam, n = make(pol), 16
    C, _ = fam.recurrence(n, bits)
    with mp.workprec(2 * bits):
        wide = mp.mpf(-7) / 3  # enters unrounded, rounded by the first subtraction
    with pol.workprec():
        ones = mp.ldexp(mp.ldexp(1, bits) - 1, 3 - bits)  # a mantissa of bits ones, just below 8
    for x in ("-3.7", "0.25", "11", 11, -2, C[5], C[16], ones, wide):
        point = families._point(x, pol)
        rows = families._Rows(fam, n, [point], bits).sweep(0)
        [doubles] = families._sweep_rows(fam, n, [point], bits)
        assert len(rows) == len(doubles) == n + 1
        for j, ((vm, ve, dm, de), (dv, dd, bv, bd)) in enumerate(zip(rows, doubles)):
            v, d = _to_mpf(vm, ve), _to_mpf(dm, de)
            for ev, ed in (eval_with_derivative(fam, j, x, pol), _recurrence_value_and_derivative(fam, j, x, pol)):
                assert (v._mpf_, d._mpf_) == (ev._mpf_, ed._mpf_)
            assert abs(Fraction(dv) - Fraction(vm) * Fraction(2) ** ve) <= bv
            assert abs(Fraction(dd) - Fraction(dm) * Fraction(2) ** de) <= bd


@pytest.mark.parametrize(
    "x", ["inf", "-inf", "nan", mp.inf, mp.nan], ids=["inf-str", "-inf-str", "nan-str", "inf", "nan"]
)
def test_sweep_rejects_a_nonfinite_point(x, policy):
    # the sweep's kernel would read inf and nan as 0 and return p(0)
    fam = mp_family("0.5", "0.9", policy)
    with pytest.raises(ValueError, match="evaluation point .* is not finite"):
        eval_with_derivative(fam, 4, x, policy)


def test_sweep_rows_are_collected_in_one_place():
    # only families._Rows.sweep passes _sweep the list it appends its rows to, so only families makes the kernel
    # rows (m, e, dm, de) of every degree at a point, and only zeros reads them
    src = Path(families.__file__).parent
    collecting = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_sweep":
                    if len(call.args) > 5 or any(kw.arg == "out" for kw in call.keywords):
                        collecting.append((path.name, func.name))
    assert collecting == [("families.py", "sweep")]


@pytest.mark.parametrize(
    "x", ["inf", "-inf", "nan", mp.inf, mp.nan], ids=["inf-str", "-inf-str", "nan-str", "inf", "nan"]
)
def test_identity_residuals_reject_a_nonfinite_point(x, policy):
    # a point that is no finite number is the caller's error, as in the sweep, not a numerical failure
    fam = mp_family("0.5", "0.9", policy)
    residuals = (
        lambda: recurrence_residual(fam, 4, x, policy),
        lambda: associated_identity_residual(fam, 4, 2, x, policy),
        lambda: extension_identity_residual(fam, 2, 2, x, policy),
        lambda: mp_symmetry_residual(fam, 4, x, policy),
    )
    for residual in residuals:
        with pytest.raises(ValueError, match="evaluation point .* is not finite"):
            residual()


def test_far_apart_sums_are_mpf_add_bit_for_bit(policy, far_sums):
    # x - C(j) with x = 1e400000000 is an exponent gap of about 1.3e9 bits: the
    # kernel runs mpf_add's far-sum rule on such sums instead of aligning the mantissas
    fam, x = mp_family("0.5", "0.9", policy), "1e400000000"
    v, d = eval_with_derivative(fam, 8, x, policy)
    ev, ed = _recurrence_value_and_derivative(fam, 8, x, policy)
    assert (v._mpf_, d._mpf_) == (ev._mpf_, ed._mpf_)
    assert far_sums
    p = generate(fam, 8, policy)
    far_sums.clear()
    with policy.workprec():
        acc, z = mp.mpf(0), mp.mpf(x)
        for c in reversed(p.coeffs):
            acc = acc * z + c
        assert p(x)._mpf_ == acc._mpf_
    assert far_sums


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
