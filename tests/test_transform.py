from __future__ import annotations

import pytest
from mpmath import mp

from christoffel import (
    ModifierSpec,
    Polynomial,
    christoffel_transform,
    connection_decompose,
    connection_degree_law,
    custom_family,
    even_modifier,
    gauss_rule,
    generate,
    mp_family,
    pj_family,
)
from christoffel.core import max_rel_coeff_diff
from christoffel.families import _ladder
from christoffel.transform import modified_polynomial


def _decompose_by_solve(family, modifier, n, m, policy):
    """Least-squares coefficient matching for (a, G): the cross-check oracle.

    Solves for the coefficients of a and G at the degrees the law predicts.
    Unique (and equal to the canonical pair) whenever 2k < n + m + 1; for
    larger k the system is underdetermined and the returned pair is just one
    member of the solution family.
    """
    law = connection_degree_law(modifier.k, m)
    top = max(n, n - m + 2 * modifier.k)
    g = modified_polynomial(family, modifier, n - m, policy)
    with policy.workprec():
        ladder = _ladder(family, top, policy.precision_bits)
        lhs = modifier.c * g
        pn, pn1 = ladder[n], ladder[n - 1]
        na, ng = law.deg_a + 1, law.deg_G + 1
        mat = mp.matrix(top + 1, na + ng)
        rhs = mp.matrix(top + 1, 1)
        for t in range(top + 1):
            for i in range(na):
                mat[t, i] = pn.coeff(t - i)
            for i in range(ng):
                mat[t, na + i] = -pn1.coeff(t - i)
            rhs[t] = lhs.coeff(t)
        sol = mp.qr_solve(mat, rhs)[0]
        return Polynomial([sol[i] for i in range(na)]), Polynomial([sol[na + i] for i in range(ng)])


def test_order_zero_transform_is_identity(policy):
    fam = mp_family("0.5", "0.9", policy)
    mod = even_modifier(fam, 0, policy)
    assert christoffel_transform(fam, mod, 4, policy) == generate(fam, 4, policy)


def test_transform_matches_parameter_shift_mp(policy):
    fam = mp_family("0.5", "0.9", policy)
    for k in (1, 2, 3):
        mod = even_modifier(fam, k, policy)
        shifted = fam.shifted(k)
        for deg in (0, 1, 4, 10):
            det = christoffel_transform(fam, mod, deg, policy)
            ref = generate(shifted, deg, policy)
            with policy.workprec():
                assert max_rel_coeff_diff(det, ref) <= policy.rel_tol


def test_transform_matches_parameter_shift_pj(policy):
    fam = pj_family(-12, 8, policy)
    mod = even_modifier(fam, 1, policy)
    shifted = fam.shifted(1)
    for deg in (0, 3, 8):
        det = christoffel_transform(fam, mod, deg, policy)
        ref = generate(shifted, deg, policy)
        with policy.workprec():
            assert max_rel_coeff_diff(det, ref) <= policy.rel_tol


def test_transform_with_noncanonical_modifier_is_orthogonal(policy):
    # no closed form for arbitrary nodes; the oracle is discrete
    # orthogonality under c(x) w(x) through a Gauss rule of the base weight
    fam = mp_family("1.5", "1.1", policy)
    mod = ModifierSpec.from_nodes([mp.mpc(0, "0.8"), mp.mpc(0, "2.3")], policy)
    degs = range(4)
    gs = [christoffel_transform(fam, mod, d, policy) for d in degs]
    nodes, weights = gauss_rule(fam, 10, policy)
    with policy.workprec():
        for j in degs:
            norm = sum(w * mod.c(x) * gs[j](x) ** 2 for x, w in zip(nodes.values, weights))
            assert norm > 0
            for l in range(j):
                s = sum(w * mod.c(x) * gs[j](x) * gs[l](x) for x, w in zip(nodes.values, weights))
                assert abs(s) / norm <= mp.mpf("1e-30")


def test_transform_requires_distinct_nodes(policy):
    fam = mp_family("1.5", "1.1", policy)
    doubled = ModifierSpec(
        k=2,
        c=Polynomial([1, 0, 2, 0, 1]),
        nodes=(mp.mpc(0, 1), mp.mpc(0, 1)),
    )
    with pytest.raises(ValueError):
        christoffel_transform(fam, doubled, 3, policy)


def test_transform_degree_budget_enforced(policy):
    fam = pj_family(-10, 8, policy)  # degrees valid up to 9
    mod = even_modifier(fam, 1, policy)
    with pytest.raises(ValueError):
        christoffel_transform(fam, mod, 8, policy)  # needs p_10


def test_degree_law_cases():
    assert connection_degree_law(2, 2) == (2, 1, True)
    assert connection_degree_law(3, 2) == (4, 3, False)
    assert connection_degree_law(0, 5) == (3, 4, False)
    assert connection_degree_law(0, 2) == (0, 1, True)
    assert connection_degree_law(1, 2) == (0, 1, True)
    # at k = m the order formula sits in the upper branch
    assert connection_degree_law(3, 3) == (3, 2, False)
    with pytest.raises(ValueError):
        connection_degree_law(1, 1)
    with pytest.raises(ValueError):
        connection_degree_law(-1, 3)


def test_decomposition_mp_gap_two_closed_form(policy):
    lam, n = mp.mpf("0.5"), 5
    fam = mp_family(lam, "0.9", policy)
    decomp = connection_decompose(fam, even_modifier(fam, 1, policy), n, 2, policy)
    with policy.workprec():
        cot = mp.cos(mp.mpf("0.9")) / mp.sin(mp.mpf("0.9"))
        a_expect = Polynomial([-2 * lam / (n - 1)])
        g_expect = mp.mpf(-(2 * lam + n - 1)) / (n - 1) * Polynomial([lam * cot, 1])
        assert (decomp.a_poly - a_expect).inf_norm() <= policy.rel_tol
        assert (decomp.G_poly - g_expect).inf_norm() <= policy.rel_tol
        assert abs(decomp.B - (-lam * cot)) <= policy.rel_tol
        # leading coefficients balance: coefficient of x^n on both sides
        assert abs(decomp.a_poly.coeff(0) - decomp.G_poly.coeffs[-1] - 1) <= policy.rel_tol
        # the identity scale renormalises G to monic
        assert abs(decomp.scale * decomp.G_poly.coeffs[-1] - 1) <= policy.rel_tol


def test_decomposition_pj_bound_root(policy):
    fam = pj_family(-10, 8, policy)
    decomp = connection_decompose(fam, even_modifier(fam, 1, policy), 5, 2, policy)
    assert decomp.G_poly.degree == 1
    with policy.workprec():
        assert abs(decomp.B - mp.mpf("1.6")) <= policy.rel_tol


def test_decomposition_degrees_k3_gap2(policy):
    fam = mp_family("0.5", "0.9", policy)
    decomp = connection_decompose(fam, even_modifier(fam, 3, policy), 8, 2, policy)
    assert decomp.a_poly.degree == 4
    assert decomp.G_poly.degree == 3
    assert decomp.B is None


def test_decomposition_identity_residuals_include_underdetermined_cells(policy):
    fam = mp_family("0.5", "0.9", policy)
    # (4, 2, 4) and (4, 3, 4) admit a whole family of representations; the
    # canonical construction must still land on the law's degrees
    for n, m, k in ((6, 2, 0), (6, 2, 2), (7, 3, 1), (4, 2, 4), (4, 3, 4), (9, 5, 7), (12, 12, 14)):
        decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
        law = connection_degree_law(k, m)
        assert decomp.residual <= policy.rel_tol
        assert decomp.a_poly.degree == law.deg_a
        assert decomp.G_poly.degree == law.deg_G


def test_decomposition_expansion_coefficients(policy):
    fam = mp_family("0.5", "0.9", policy)
    n, m, k = 8, 3, 2
    decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, m, policy)
    assert len(decomp.work) == 2 * k + 1
    assert decomp.work[-1] == 1
    with policy.workprec():
        # the expansion coefficients reproduce c * g in the monic basis
        ladder = _ladder(fam, n - m + 2 * k, policy.precision_bits)
        combo = Polynomial()
        for j, d in enumerate(decomp.work):
            combo = combo + d * ladder[n - m + j]
        lhs = even_modifier(fam, k, policy).c * decomp.g_poly
        assert (combo - lhs).inf_norm() <= policy.rel_tol * max(1, lhs.inf_norm())


def test_solve_crosscheck_on_well_posed_cell(policy):
    fam = mp_family("0.5", "0.9", policy)
    n, m, k = 8, 2, 2
    mod = even_modifier(fam, k, policy)
    decomp = connection_decompose(fam, mod, n, m, policy)
    a, G = _decompose_by_solve(fam, mod, n, m, policy)
    with policy.workprec():
        assert max_rel_coeff_diff(a, decomp.a_poly) <= mp.mpf("1e-40")
        assert max_rel_coeff_diff(G, decomp.G_poly) <= mp.mpf("1e-40")


def test_decompose_needs_valid_gap(policy):
    fam = mp_family("0.5", "0.9", policy)
    mod = even_modifier(fam, 1, policy)
    with pytest.raises(ValueError):
        connection_decompose(fam, mod, 4, 1, policy)
    with pytest.raises(ValueError):
        connection_decompose(fam, mod, 4, 5, policy)


def test_determinant_path_inside_decompose(policy):
    fam = mp_family("0.5", "0.9", policy)
    shift = connection_decompose(fam, even_modifier(fam, 2, policy), 7, 2, policy)
    # a copy without parameters has no parameter shift, so g comes from the determinant
    copy = custom_family(fam.C, fam.Lambda, policy=policy)
    with policy.workprec():
        mod = ModifierSpec.from_nodes([mp.mpc(0, "0.5"), mp.mpc(0, "1.5")], policy)
    det = connection_decompose(copy, mod, 7, 2, policy)
    with policy.workprec():
        assert max_rel_coeff_diff(det.g_poly, shift.g_poly) <= policy.rel_tol
        assert max_rel_coeff_diff(det.G_poly, shift.G_poly) <= policy.rel_tol


def test_modifier_node_consistency_checked(policy):
    bad = ModifierSpec(k=1, c=Polynomial([1, 0, 1]), nodes=(mp.mpc(0, "0.5"),))
    with pytest.raises(ValueError):
        bad.validate(policy)
    not_monic = ModifierSpec(k=1, c=Polynomial([2, 0, 2]), nodes=(mp.mpc(0, 1),))
    with pytest.raises(ValueError):
        not_monic.validate(policy)
