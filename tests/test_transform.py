from __future__ import annotations

import random
from collections import Counter

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

from christoffel import (
    ModifierSpec,
    Polynomial,
    TolerancePolicy,
    christoffel_transform,
    connection_decompose,
    connection_degree_law,
    custom_family,
    even_modifier,
    gauss_rule,
    generate,
    inner_bound,
    mp_family,
    pj_family,
)
from christoffel import transform
from christoffel.core import _to_mpf, _unpack
from christoffel.families import _ladder
from christoffel.transform import DegenerateTransformError, modified_polynomial
from polyhelpers import (
    NODE_SETS,
    assert_grid_decompositions_are_the_mpf_loops,
    assert_transforms_are_the_mpc_loops,
    coeff,
    _to_mpc,
    max_rel_coeff_diff,
    mpc_bareiss_det,
    mpc_cofactor_minors,
    mpc_node_rows,
)


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
                mat[t, i] = coeff(pn, t - i)
            for i in range(ng):
                mat[t, na + i] = -coeff(pn1, t - i)
            rhs[t] = coeff(lhs, t)
        sol = mp.qr_solve(mat, rhs)[0]
        return Polynomial([sol[i] for i in range(na)]), Polynomial([sol[na + i] for i in range(ng)])


def test_bareiss_pivot_tie_takes_the_first_row():
    # z and conj(z) lead rows 0 and 1 with equal mpc_abs: the first row is the pivot, as max picks it in the
    # mpc loop; pivoting on the second gives other bits at 64 bits
    def entry(re, im, den):
        return (*_unpack((mp.mpf(re) / den)._mpf_), *_unpack((mp.mpf(im) / den)._mpf_))

    def det(rows):
        return transform._eliminate([list(row) for row in rows], [0, 1, 2], 0, 1, None, 64)

    with mp.workprec(64):
        rows = [
            [entry(5, 6, 7), entry(7, -9, 3), entry(5, -2, 3)],
            [entry(5, -6, 7), entry(-8, -4, 3), entry(-6, 2, 3)],
            [entry(6, -2, 11), entry(3, 8, 11), entry(-6, 9, 11)],
        ]
        oracle = mpc_bareiss_det([[_to_mpc(*v) for v in row] for row in rows])._mpc_
        am, ae, bm, be = det(rows)
        assert (from_man_exp(am, ae), from_man_exp(bm, be)) == oracle
        am, ae, bm, be = det([rows[1], rows[0], rows[2]])  # the second row as pivot, the sign flipped back
        assert (from_man_exp(-am, ae), from_man_exp(-bm, be)) != oracle


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


def test_transform_keeps_tiny_coefficients():
    # phi = pi/2 - 1e-45 leaves g tiny coefficients of alternate parity, near 1e-45; the determinant route
    # returns its quotient as it is, so each coefficient is the shift's to rel_tol of its own size
    pol = TolerancePolicy(precision_bits=256)
    with pol.workprec():
        fam = mp_family("0.5", mp.pi / 2 - mp.mpf("1e-45"), pol)
    for k in (1, 2, 3):
        mod = even_modifier(fam, k, pol)
        for deg in range(7):
            det, ref = christoffel_transform(fam, mod, deg, pol), generate(fam.shifted(k), deg, pol)
            with pol.workprec():
                assert det.degree == ref.degree == deg
                for a, b in zip(det.coeffs, ref.coeffs):
                    assert abs(a - b) <= pol.rel_tol * abs(b), (k, deg, a, b)


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_transform_is_monic_as_divided(bits):
    # c_{2k} and the combination of the monic p_{d+j} with d_{2k} = 1 are monic, so the exact division's
    # quotient ends in exactly 1: for the canonical modifiers and imaginary, real, repeated and zero nodes
    pol = TolerancePolicy(precision_bits=bits)
    with pol.workprec():
        families = [mp_family("0.5", "0.9", pol), mp_family("0.5", mp.pi / 2, pol), pj_family("-12", "8", pol)]
        nodes = [ModifierSpec([mp.mpc(*z) for z in zs], pol) for zs in NODE_SETS.values()]
    for fam in families:
        for mod in [even_modifier(fam, k, pol) for k in (1, 2, 3)] + nodes:
            for deg in range(6):
                top = christoffel_transform(fam, mod, deg, pol)._pairs[-1]
                assert _to_mpf(*top) == 1, (fam.label, mod.nodes, deg, top)


def test_transform_with_noncanonical_modifier_is_orthogonal(policy):
    # no closed form for arbitrary nodes; the oracle is discrete
    # orthogonality under c(x) w(x) through a Gauss rule of the base weight
    fam = mp_family("1.5", "1.1", policy)
    mod = ModifierSpec([mp.mpc(0, "0.8"), mp.mpc(0, "2.3")], policy)
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


def _pj_copy(a, b, policy):
    """PJ(a, b) without parameters: no parameter shift, so g comes from the determinant."""
    fam = pj_family(a, b, policy)
    return fam, custom_family(fam.C, fam.Lambda, fam.max_valid_degree)


def test_determinant_takes_zeros_of_multiplicity(policy):
    fam, copy = _pj_copy(-20, 8, policy)
    # +-i twice: confluent rows p(+-i), p'(+-i) give the shift a -> a + 2
    mod = ModifierSpec([mp.mpc(0, 1), mp.mpc(0, -1)], policy)
    for deg in (0, 3, 8):
        det = christoffel_transform(copy, mod, deg, policy)
        ref = generate(fam.shifted(2), deg, policy)
        with policy.workprec():
            assert max_rel_coeff_diff(det, ref) <= policy.rel_tol
    # the node 0 is the double zero of c = x^2: rows p(0), p'(0)
    zero = ModifierSpec([0], policy)
    gs = [christoffel_transform(copy, zero, d, policy) for d in range(4)]
    nodes, weights = gauss_rule(fam, 10, policy)
    with policy.workprec():
        for j, g in enumerate(gs):
            assert g.degree == j
            norm = sum(w * x**2 * g(x) ** 2 for x, w in zip(nodes.values, weights))
            for l in range(j):
                s = sum(w * x**2 * g(x) * gs[l](x) for x, w in zip(nodes.values, weights))
                assert abs(s) / norm <= mp.mpf("1e-60")


@pytest.mark.parametrize("node, step", [("1j", "1e-60j"), ("0.3", "1e-60")], ids=["imaginary", "real"])
def test_nearly_coincident_nodes_fail_loudly(node, step, policy):
    # equal nodes get confluent rows; nodes that differ by 1e-60 get two
    # nearly equal rows, and the transform must not return a polynomial
    _, copy = _pj_copy(-20, 8, policy)
    with policy.workprec():
        node = mp.mpmathify(node)
        mod = ModifierSpec([node, node + mp.mpmathify(step)], policy)
    for deg in (0, 3, 6):
        with pytest.raises(ArithmeticError):
            christoffel_transform(copy, mod, deg, policy)


_BOUND_FAMILIES = {
    "-35-8": lambda pol: pj_family("-35", "8", pol),
    "-35-1": lambda pol: pj_family("-35", "1", pol),
    "-35-0": lambda pol: pj_family("-35", "0", pol),
    "-55-5": lambda pol: pj_family("-55", "5", pol),
    "mp-0.5-0.9": lambda pol: mp_family("0.5", "0.9", pol),
    "mp-0.5-halfpi": lambda pol: mp_family("0.5", mp.pi / 2, pol),
    "mp-3.25-2.4": lambda pol: mp_family("3.25", "2.4", pol),
    "mp-20-0.1": lambda pol: mp_family("20", "0.1", pol),
}


@pytest.mark.parametrize("family", _BOUND_FAMILIES)
def test_table_3_bound_from_the_connection_formula(family, policy):
    # inner_bound's closed form B_n(k) is the root of the linear G for the canonical c_{2k}, m = 2, which
    # the decomposition reaches by another route; B_25(2) of table 3 for (-55, 5) is 5/54, not the printed 0.09926.
    # MP(20, 0.1) at n = 17, 25 and 30 has rounding noise below p_{n-2} above rel_tol times the largest d_j
    with policy.workprec():
        fam = _BOUND_FAMILIES[family](policy)
    for n in (2, 3, 12, 25, *((17, 30) if family == "mp-20-0.1" else ())):
        for k in (0, 1, 2):
            decomp = connection_decompose(fam, even_modifier(fam, k, policy), n, 2, policy)
            law = connection_degree_law(k, 2)
            assert law.linear_G and (decomp.a_poly.degree, decomp.G_poly.degree) == (law.deg_a, law.deg_G)
            bound = inner_bound(fam, n, k, policy)
            with policy.workprec():
                assert abs(decomp.B - bound) <= policy.rel_tol * max(1, abs(bound)), (fam.label, n, k)


def test_transform_degree_budget_enforced(policy):
    fam = pj_family(-10, 8, policy)  # degrees valid up to 9
    mod = even_modifier(fam, 1, policy)
    with pytest.raises(ValueError):
        christoffel_transform(fam, mod, 8, policy)  # needs p_10


@pytest.mark.parametrize("deg", [-1, -2])
def test_negative_degree_transform_is_rejected(deg, policy):
    # deg + 2k is in range, but deg is no degree: the usual ValueError, not an IndexError from the ladder
    fam = mp_family("0.5", "0.9", policy)
    other = ModifierSpec([mp.mpf("0.5"), mp.mpf("1.5")], policy)  # not the canonical modifier: the determinant route
    for call in (
        lambda: christoffel_transform(fam, even_modifier(fam, 1, policy), deg, policy),
        lambda: christoffel_transform(fam, other, deg, policy),
        lambda: modified_polynomial(fam, other, deg, policy),
    ):
        with pytest.raises(ValueError, match=f"degree must be nonnegative, got {deg}"):
            call()


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
        assert abs(coeff(decomp.a_poly, 0) - decomp.G_poly.coeffs[-1] - 1) <= policy.rel_tol
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
    copy = custom_family(fam.C, fam.Lambda)
    with policy.workprec():
        mod = ModifierSpec([mp.mpc(0, "0.5"), mp.mpc(0, "1.5")], policy)
    det = connection_decompose(copy, mod, 7, 2, policy)
    with policy.workprec():
        assert max_rel_coeff_diff(det.g_poly, shift.g_poly) <= policy.rel_tol
        assert max_rel_coeff_diff(det.G_poly, shift.G_poly) <= policy.rel_tol


@pytest.mark.parametrize(
    "nodes, reason",
    [
        ((mp.mpc(1, 1),), "non-real"),
    ],
)
def test_user_built_modifiers_are_checked_when_built(nodes, reason, policy):
    with pytest.raises(ValueError, match=reason):
        ModifierSpec(nodes, policy)


def test_modifier_from_canonical_nodes_takes_the_shift(policy, monkeypatch):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        mod = ModifierSpec([mp.mpc(0, mp.mpf("0.5") + j) for j in range(3)], policy)
    canonical = even_modifier(fam, 3, policy)
    assert mod == canonical and hash(mod) == hash(canonical)
    monkeypatch.setattr(transform, "christoffel_transform", lambda *args: pytest.fail("determinant route taken"))
    decomp = connection_decompose(fam, mod, 7, 2, policy)
    assert decomp.g_poly == generate(fam.shifted(3), 5, policy)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_expansion_ends_in_exactly_one(bits):
    # c_{2k}, g and the basis are monic, so the top coefficient of c_{2k} g in
    # the monic basis is exactly 1 and the decomposition reads the expansion as
    # it is: for the canonical modifiers (the shift) and for imaginary, real
    # and repeated nodes (the determinant route, confluent rows for repeats).
    pol = TolerancePolicy(precision_bits=bits)
    mp_fam, pj_fam = mp_family("0.5", "0.9", pol), pj_family(-40, 8, pol)
    with pol.workprec():
        others = [
            ModifierSpec(nodes, pol)
            for nodes in ([mp.mpc(0, "0.3"), mp.mpc(0, "2.7")], [mp.mpf("0.4"), mp.mpf("1.7")], [mp.mpc(0, "0.8")] * 3)
        ]
    cases = [(fam, even_modifier(fam, k, pol)) for fam in (mp_fam, pj_fam) for k in range(5)]
    for fam, mod in cases + [(mp_fam, mod) for mod in others]:
        for d in range(8):
            top = transform._expansion(fam, mod, d, pol)[3][-1]
            assert _to_mpf(*top) == 1, f"{fam.label}, nodes {mod.nodes}, d = {d}: top coefficient {top}"


def _expansion_keys(fam) -> list:
    return [key for key in fam._store if isinstance(key, tuple) and key[0] == "expansion"]


def test_cells_with_one_gap_share_their_expansion(policy):
    fam = mp_family("0.5", "0.9", policy)
    mod = even_modifier(fam, 2, policy)
    first = connection_decompose(fam, mod, 7, 3, policy)
    second = connection_decompose(fam, mod, 8, 4, policy)
    assert _expansion_keys(fam) == [("expansion", mod, 4, policy)]
    assert second.g_poly is first.g_poly
    fresh = mp_family("0.5", "0.9", policy)
    assert second == connection_decompose(fresh, even_modifier(fresh, 2, policy), 8, 4, policy)


def test_expansions_are_kept_per_policy(policy):
    # same precision, other rel_tol: the determinant route's gates read it
    fam = mp_family("0.5", "0.9", policy)
    mod = even_modifier(fam, 2, policy)
    other = TolerancePolicy(precision_bits=policy.precision_bits, rel_tol="1e-30")
    connection_decompose(fam, mod, 7, 3, policy)
    connection_decompose(fam, mod, 7, 3, other)
    assert _expansion_keys(fam) == [("expansion", mod, 4, policy), ("expansion", mod, 4, other)]


def test_canonical_nodes_at_53_bits_take_the_determinant_route(policy, monkeypatch):
    # the shift route needs a modifier equal to even_modifier bit for bit;
    # nodes rounded at mpmath's default precision are close, not equal
    fam = mp_family("0.1", "0.9", policy)
    with mp.workprec(53):
        nodes = [mp.mpc(0, mp.mpf("0.1") + j) for j in range(2)]
    mod = ModifierSpec(nodes, policy)
    assert mod != even_modifier(fam, 2, policy)
    routes = []
    determinant = transform.christoffel_transform
    monkeypatch.setattr(transform, "christoffel_transform", lambda *args: routes.append(1) or determinant(*args))
    g = modified_polynomial(fam, mod, 6, policy)
    assert routes == [1]
    with policy.workprec():
        assert max_rel_coeff_diff(g, generate(fam.shifted(2), 6, policy)) <= mp.mpf("1e-12")


@pytest.mark.parametrize(
    "lam, phi, bits, n_max, cells",
    [("0.5", "0.9", 256, 12, 534), ("0.5", "0.9", 64, 8, 180)],
    ids=["default-grid", "64-bits-n8"],
)
def test_grid_decompositions_are_the_mpf_loops_bit_for_bit(lam, phi, bits, n_max, cells):
    # (a, G, g, work, residual, scale, B) against the mpf loops the kernel
    # pairs replaced; the larger grids are in tests/slow_oracles.py
    assert assert_grid_decompositions_are_the_mpf_loops(lam, phi, bits, n_max) == cells


def test_residual_gate_is_inclusive_to_the_last_bit():
    # the pair's one rel_tol gate, residual <= rel_tol, on kernel pairs: a rel_tol equal to the cell's residual
    # passes it, and the 256-bit value one unit below fails it, with the residual's bits unchanged
    base = TolerancePolicy()
    fam = mp_family("0.5", "0.9", base)
    residual = connection_decompose(fam, even_modifier(fam, 2, base), 8, 3, base).residual
    m, e = _unpack(residual._mpf_)
    shift = base.precision_bits - m.bit_length()
    below = _to_mpf((m << shift) - 1, e - shift)
    assert 0 < below < residual
    for rel_tol, ok in ((residual, True), (below, False)):
        policy = TolerancePolicy(rel_tol=rel_tol)
        decomp = connection_decompose(fam, even_modifier(fam, 2, policy), 8, 3, policy)
        assert decomp.residual._mpf_ == residual._mpf_
        assert (decomp.residual_ok, decomp.follows_law, decomp.ok) == (ok, True, ok)


@pytest.mark.parametrize(
    "family, bits",
    [(lambda policy: mp_family("0.5", "0.9", policy), 113), (lambda policy: pj_family("-12", "8", policy), 256)],
    ids=["MP(0.5,0.9)-113", "PJ(-12,8)-256"],
)
def test_determinant_transform_is_the_mpc_loops_bit_for_bit(family, bits):
    # the node rows, the minors of the one shared elimination and g against the mpc
    # loops, each minor eliminated on its own; the full sweep is in tests/slow_oracles.py
    outcomes = assert_transforms_are_the_mpc_loops(family, bits, range(0, 5, 2), ["0.3i,2.7i,0.4", "0.9i,-0.9i,0"])
    assert outcomes == {"ok": 15}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_node_rows_kept_per_modifier_give_fresh_family_transforms(order, policy, monkeypatch):
    # one family keeps each modifier's node rows and extends them as higher degrees are asked for, so each
    # p_j^(s) is evaluated once per row; every transform, in any request order, is a fresh family's bit for
    # bit, or the same error
    def bits_or_error(fam, modifier, deg):
        try:
            return [c._mpf_ for c in christoffel_transform(fam, modifier, deg, policy).coeffs]
        except ArithmeticError as exc:
            return type(exc), str(exc)

    fam = mp_family("0.5", "0.9", policy)
    nodes = [[(0, "0.3")], [(0, 0)], [("0.4", 0), ("-0.4", 0)], [(0, "1.5"), (0, "1.5")], [(0, "0.9"), (0, "-0.9"), (0, 0)]]
    with policy.workprec():
        modifiers = [ModifierSpec([mp.mpc(*z) for z in zs], policy) for zs in nodes] + [even_modifier(fam, 3, policy)]
    requests = [(modifier, deg) for modifier in modifiers for deg in range(7)]
    if order == "descending":
        requests.reverse()
    elif order == "shuffled":
        random.Random(3).shuffle(requests)
    calls, chorner = [], transform._chorner
    with monkeypatch.context() as patch:
        patch.setattr(transform, "_chorner", lambda *args: calls.append(args) or chorner(*args))
        kept = [bits_or_error(fam, modifier, deg) for modifier, deg in requests]
    # 2k rows of p_0 .. p_{6 + 2k} per modifier
    assert len(calls) == sum(2 * m.k * (7 + 2 * m.k) for m in modifiers)
    assert kept == [bits_or_error(mp_family("0.5", "0.9", policy), modifier, deg) for modifier, deg in requests]


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_transforms_in_either_order_are_the_mpc_minors(bits, monkeypatch):
    # a transform keeps its trunk and minor 0, and the degree below takes its minor 0 from the trunk; degrees 0..6
    # ascending on one fresh family, asked again, and 6..0 descending on another give the same coefficient bits, or
    # the same error, and the minors of the mpc loops, each eliminated on its own, for the canonical modifiers and
    # every node set.  On p_j = U_j(x / 2) (C = 0, Lambda = 1) the node 1 is a zero of p_2 and p_5, so the transforms
    # of degrees 1, 2, 4 and 5 are degenerate, and the eliminations of 2 and 5 meet a zero pivot at once: the
    # minors they would branch off later stay 0, as in the mpc loops
    policy = TolerancePolicy(precision_bits=bits)
    cases = []
    for _ in range(2):
        with policy.workprec():
            fam = mp_family("0.5", "0.9", policy)
            modifiers = [even_modifier(fam, k, policy) for k in (1, 2, 3)]
            modifiers += [ModifierSpec([mp.mpc(*z) for z in zs], policy) for zs in NODE_SETS.values()]
        chebyshev = custom_family(lambda j: mp.mpf(0), lambda j: mp.mpf(1))
        cases.append([(fam, modifier) for modifier in modifiers] + [(chebyshev, ModifierSpec([1], policy))])
    minors, updates, cofactor_minors, cupdate = [], Counter(), transform._cofactor_minors, transform._cupdate
    monkeypatch.setattr(transform, "_cofactor_minors", lambda *args: minors.append(cofactor_minors(*args)) or minors[-1])

    def run(fam, modifier, deg, order):
        minors.clear()
        monkeypatch.setattr(transform, "_cupdate", lambda *args: updates.update([order]) or cupdate(*args))
        try:
            g = [c._mpf_ for c in christoffel_transform(fam, modifier, deg, policy).coeffs]
        except ArithmeticError as exc:
            g = type(exc), str(exc)
        [kept] = minors
        return g, [(from_man_exp(am, ae), from_man_exp(bm, be)) for am, ae, bm, be in kept]

    outcomes = Counter()
    for (fam, modifier), (other, same) in zip(*cases):
        ascending = [run(fam, modifier, deg, "ascending") for deg in range(7)]
        descending = [run(other, same, deg, "descending") for deg in range(6, -1, -1)][::-1]
        assert ascending == descending == [run(fam, modifier, deg, "again") for deg in range(7)]
        with policy.workprec():
            ladder = _ladder(fam, 6 + 2 * modifier.k, bits)
            for deg, (g, kept) in enumerate(ascending):
                assert kept == [u._mpc_ for u in mpc_cofactor_minors(mpc_node_rows(ladder[deg : deg + 2 * modifier.k + 1], modifier.nodes))]
                outcomes[g[0] if isinstance(g, tuple) else "ok"] += 1
    # top down, and asked again, each degree takes its minor 0 from the store
    assert updates["again"] < updates["descending"] < updates["ascending"]
    assert outcomes == {"ok": 59, DegenerateTransformError: 4}
