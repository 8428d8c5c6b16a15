from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

import pytest
from mpmath import mp

from christoffel import (
    bound_separation,
    custom_family,
    eval_with_derivative,
    gauss_rule,
    generate_all,
    inner_bound,
    interlace_strict,
    mp_family,
    pj_family,
    polynomial_real_roots,
    stieltjes_check,
    zeros_golub_welsch,
)
from christoffel import zeros
from christoffel.cli import main
from christoffel.core import Polynomial, TolerancePolicy


def _poly_map(coeffs):
    """x -> (p(x), p'(x)) for the polynomial with ascending ``coeffs``."""
    p = Polynomial(coeffs)
    dp = p.derivative()
    return lambda x: (p(x), dp(x))


def test_degree_one_zero_is_recurrence_offset(policy):
    fam = pj_family(-10, 8, policy)
    zs = zeros_golub_welsch(fam, 1, policy)
    assert len(zs) == 1
    with policy.workprec():
        assert abs(zs[0] - fam.C(1)) <= policy.rel_tol


def test_symmetric_pj_quintic_zeros(policy):
    zs = zeros_golub_welsch(pj_family("-5.5", 0, policy), 5, policy)
    with policy.workprec():
        assert abs(zs[0] - mp.mpf("-2.1428")) < mp.mpf("5e-4")
        assert abs(zs[-1] - mp.mpf("2.1428")) < mp.mpf("5e-4")
        assert abs(zs[2]) < policy.abs_tol
        assert abs(zs[0] + zs[-1]) <= mp.ldexp(1, -200)


def test_mp_degree_thirty_extreme_zeros(policy):
    zs = zeros_golub_welsch(mp_family("0.5", "0.9", policy), 30, policy)
    with policy.workprec():
        assert abs(zs[0] - mp.mpf("-53.239")) < mp.mpf("5e-3")
        assert abs(zs[-1] - mp.mpf("11.016")) < mp.mpf("5e-3")


def test_zero_residuals_after_newton(policy):
    for fam, n in ((mp_family("0.5", "0.08", policy), 30), (pj_family("-5.0001", 3, policy), 5)):
        zs = zeros_golub_welsch(fam, n, policy)
        with policy.workprec():
            for z in zs.values:
                v, _ = eval_with_derivative(fam, n, z, policy)
                ladder = generate_all(fam, n, policy)
                scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(ladder[n].coeffs))
                assert abs(v) / scale <= policy.rel_tol


def test_zero_simplicity_gaps(policy):
    for fam, n in ((mp_family(20, "0.1", policy), 25), (pj_family(-35, 8, policy), 25)):
        zs = zeros_golub_welsch(fam, n, policy)
        with policy.workprec():
            assert min(b - a for a, b in zip(zs.values, zs.values[1:])) > policy.abs_tol


def _count_polish(monkeypatch) -> list:
    """Replace zeros._polish by a wrapper that appends to the returned list on every call."""
    calls = []
    polish = zeros._polish

    def counted(*args):
        calls.append(args[1])
        return polish(*args)

    monkeypatch.setattr(zeros, "_polish", counted)
    return calls


def test_zeros_are_solved_once_per_family(policy, monkeypatch):
    calls = _count_polish(monkeypatch)
    fam, n = mp_family("0.5", "0.9", policy), 12
    report = bound_separation(fam, n, policy)
    assert stieltjes_check(fam, 1, n, policy).ok
    nodes, _ = gauss_rule(fam, n, policy)
    assert nodes.values[0] == report.x_min
    assert len(calls) == n


def test_cached_zeros_are_checked_under_each_tolerance(policy, monkeypatch):
    fam, n = pj_family(-35, 8, policy), 25
    zs = zeros_golub_welsch(fam, n, policy)
    with policy.workprec():
        gap = min(b - a for a, b in zip(zs.values, zs.values[1:]))
    loose = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=2 * gap)
    calls = _count_polish(monkeypatch)
    with pytest.raises(ValueError, match="abs_tol .* is at least the gap"):
        zeros_golub_welsch(fam, n, loose)
    assert calls == []
    assert zeros_golub_welsch(fam, n, policy) is zs


def _jacobi_eigenvalues(fam, n, policy):
    """Eigenvalues of the Jacobi matrix by mpmath's dense symmetric solver."""
    C, L = fam.recurrence(n, policy.precision_bits)
    with policy.workprec():
        T = mp.zeros(n, n)
        for i in range(n):
            T[i, i] = C[i + 1]
            if i + 1 < n:
                T[i, i + 1] = T[i + 1, i] = mp.sqrt(L[i + 2])
        return sorted(mp.eigsy(T, eigvals_only=True))


@pytest.mark.parametrize("m", [10, 15])
def test_wilkinson_close_pairs_are_separated(policy, m):
    # W+_{2m+1}: its top pair is 7.2e-14 apart at m = 10, which doubles
    # resolve, and 4.9e-25 apart at m = 15, which needs working precision.
    fam = custom_family(lambda j: mp.mpf(abs(m - (j - 1))), lambda j: mp.mpf(1), label=f"W+{2 * m + 1}", policy=policy)
    n = 2 * m + 1
    zs = zeros_golub_welsch(fam, n, policy)
    ev = _jacobi_eigenvalues(fam, n, policy)
    assert len(zs) == n
    with policy.workprec():
        assert ev[-1] - ev[-2] < mp.mpf("1e-13")
        assert max(abs(z - e) for z, e in zip(zs.values, ev)) <= policy.abs_tol


@pytest.mark.parametrize(
    "C, Lam, abs_tol",
    [
        (lambda j: j * mp.mpf(10) ** 400, lambda j: mp.mpf(10) ** 799, None),
        (lambda j: j * mp.mpf(10) ** -400, lambda j: mp.mpf(10) ** -801, "1e-480"),
        (lambda j: j * mp.mpf(10) ** -400, lambda j: mp.mpf(10) ** -801, None),
        (lambda j: mp.mpf(10) ** 10, lambda j: mp.mpf(1), None),
        (lambda j: mp.mpf(10) ** 30, lambda j: mp.mpf(1), None),
    ],
    ids=["1e400", "1e-400", "1e-400-default-tol", "offset-1e10", "offset-1e30"],
)
def test_zeros_at_extreme_scales(policy, C, Lam, abs_tol):
    # Entries outside the double range need the shift and scale.  Zeros 1e10
    # or 1e30 from the origin but O(1) apart are closer than 64-bit midpoints
    # resolve.  The 1e-400 zeros are 1e-400 apart; the simple-zero check
    # measures gaps relative to the spectrum's scale, so the default abs_tol
    # passes them as a tiny one does.
    pol = TolerancePolicy(precision_bits=policy.precision_bits, abs_tol=abs_tol)
    fam, n = custom_family(C, Lam, policy=pol), 12
    zs = zeros_golub_welsch(fam, n, pol)
    ev = _jacobi_eigenvalues(fam, n, pol)
    with pol.workprec():
        assert all(abs(z - e) <= pol.rel_tol * abs(e) for z, e in zip(zs.values, ev))


def test_float_counts_keep_the_64_bit_cells(monkeypatch):
    # A zero of this family lies within double rounding of a cell midpoint;
    # only the recount at 64 bits puts it on the side a 64-bit count does,
    # and Newton's last bits depend on the cell it starts from.
    pol = TolerancePolicy(precision_bits=64)
    fast = zeros._solve(mp_family("3.901", "2.473", pol), 30, pol).values
    monkeypatch.setattr(zeros, "_BAND", 1.0)  # every count at 64 bits
    assert zeros._solve(mp_family("3.901", "2.473", pol), 30, pol).values == fast


def test_polish_raises_at_the_iteration_cap(policy, monkeypatch):
    # Newton steps that flip direction each time never shrink, so the polish
    # runs into its cap instead of returning its last iterate.
    def flipping(fam, n, x, pol):
        flipping.sign = -flipping.sign
        return mp.mpf(flipping.sign), mp.mpf(1)

    flipping.sign = 1
    monkeypatch.setattr(zeros, "eval_with_derivative", flipping)
    with pytest.raises(ArithmeticError, match=r"MP\(lambda=0.5, phi=0.9\) degree 6 did not converge .* bracket \[-"):
        zeros_golub_welsch(mp_family("0.5", "0.9", policy), 6, policy)


def test_invalid_family_ranges_rejected(policy):
    with pytest.raises(ValueError):
        zeros_golub_welsch(pj_family(-5, 1, policy), 5, policy)
    neg = custom_family(lambda n: mp.mpf(0), lambda n: mp.mpf(-1), None, policy=policy)
    with pytest.raises(ValueError):
        zeros_golub_welsch(neg, 3, policy)


def test_zeros_negate_under_mirror(policy):
    lam, phi = "2.5", "0.7"
    fam = mp_family(lam, phi, policy)
    with policy.workprec():
        cot = mp.cos(mp.mpf(phi)) / mp.sin(mp.mpf(phi))
        lam_s = mp.mpf(lam)
        inv = 1 / (4 * mp.sin(mp.mpf(phi)) ** 2)
    mirror = custom_family(
        lambda n: (lam_s + n - 1) * cot,
        lambda n: (n - 1) * (2 * lam_s + n - 2) * inv,
        None,
        policy=policy,
    )
    n = 9
    zs = zeros_golub_welsch(fam, n, policy)
    zm = zeros_golub_welsch(mirror, n, policy)
    with policy.workprec():
        for a, b in zip(zs.values, reversed(zm.values)):
            assert abs(a + b) <= policy.rel_tol * max(1, abs(a))


def test_gauss_rule_degree_one(policy):
    nodes, weights = gauss_rule(pj_family(-10, 8, policy), 1, policy)
    assert weights == (1,)
    with policy.workprec():
        assert abs(nodes[0] - mp.mpf(8) / 9) <= policy.rel_tol


def test_gauss_rule_orthogonality_and_positivity(policy):
    for fam in (mp_family("0.5", "0.9", policy), pj_family(-35, 8, policy)):
        n = 8
        nodes, weights = gauss_rule(fam, n, policy)
        with policy.workprec():
            assert abs(sum(weights) - 1) <= mp.ldexp(1, -200)
            ladder = generate_all(fam, n, policy)
            for j in range(n):
                for l in range(j):
                    if j + l <= 2 * n - 1:
                        s = sum(w * ladder[j](x) * ladder[l](x) for x, w in zip(nodes.values, weights))
                        assert abs(s) <= mp.mpf("1e-30")
            norm3 = sum(w * ladder[3](x) ** 2 for x, w in zip(nodes.values, weights))
            assert norm3 > 0


def test_interlace_basic_cases(policy):
    assert interlace_strict(_poly_map([0, 1]), 1, [-1, 1], policy).strict
    assert not interlace_strict(_poly_map([-2, 1]), 1, [-1, 1], policy).strict
    with pytest.raises(ValueError):
        interlace_strict(_poly_map([0, -2, 1]), 2, [-1, 1], policy)
    # right degree with a zero on an outer zero: reported, not an error
    assert interlace_strict(_poly_map([0, -2, 1]), 2, [-1, 0, 1], policy).common == (0,)


def test_interlace_reports_common_zeros(policy):
    verdict = interlace_strict(_poly_map([0, -1, 1]), 2, [-1, 0, 2], policy)  # x (x - 1)
    assert not verdict.strict
    assert verdict.common == (0,)


def test_consecutive_degrees_interlace(policy):
    rng = random.Random(13)
    fams = [mp_family(20, "0.1", policy), mp_family("0.5", "2.7", policy), pj_family(-35, 8, policy)]
    fams.append(mp_family(rng.uniform(0.1, 8), rng.uniform(0.2, 2.9), policy))
    for fam in fams:
        for n in (2, 12, 30):
            if fam.max_valid_degree is not None and n > fam.max_valid_degree:
                continue
            inner = partial(eval_with_derivative, fam, n - 1, policy=policy)
            outer = zeros_golub_welsch(fam, n, policy)
            assert interlace_strict(inner, n - 1, outer, policy).strict


def test_sign_verdict_matches_direct_zero_comparison(policy):
    """Sign alternation agrees with b[i] < a[i] < b[i+1] on solved zero sets."""
    cases = [
        (mp_family("0.5", "0.9", policy), mp_family(lam, phi, policy), 8)
        for lam in ("0.5", "1.5", "4")
        for phi in ("0.9", "0.7", "1.2")
    ] + [
        (pj_family(-35, 8, policy), pj_family(a, b, policy), 12)
        for a in (-35, -30, -20)
        for b in (8, 6, -2)
    ]
    outcomes = set()
    for outer_fam, inner_fam, n in cases:
        b = zeros_golub_welsch(outer_fam, n, policy)
        a = zeros_golub_welsch(inner_fam, n - 1, policy)
        with policy.workprec():
            direct = all(b[i] < a[i] < b[i + 1] for i in range(n - 1))
        q = partial(eval_with_derivative, inner_fam, n - 1, policy=policy)
        assert interlace_strict(q, n - 1, b, policy).strict == direct, inner_fam.label
        outcomes.add(direct)
    assert outcomes == {True, False}


def test_mp_bound_reference_values(policy):
    with policy.workprec():
        assert abs(inner_bound(mp_family("0.5", "0.08", policy), 30, 0, policy) - mp.mpf("-367.963")) < mp.mpf("5e-3")
        assert abs(inner_bound(mp_family(20, "0.1", policy), 30, 2, policy) - mp.mpf("-83.720")) < mp.mpf("5e-3")
        # cancelled Pochhammer form cross-check
        lam, phi = mp.mpf("0.5"), mp.mpf("0.9")
        cot = mp.cos(phi) / mp.sin(phi)
        expect = -lam * (lam + 1) / (lam + 30) * cot
        assert abs(inner_bound(mp_family(lam, phi, policy), 30, 2, policy) - expect) <= policy.rel_tol
        assert abs(expect - mp.mpf("-0.0195")) < mp.mpf("5e-4")
    with pytest.raises(ValueError):
        inner_bound(mp_family("0.5", "0.9", policy), 30, 3, policy)


def test_mp_bound_equals_recurrence_offset(policy):
    fam = mp_family("0.5", "0.9", policy)
    with policy.workprec():
        assert abs(inner_bound(fam, 30, 0, policy) - fam.C(30)) <= policy.rel_tol


def test_pj_bound_reference_values(policy):
    with policy.workprec():
        b = [inner_bound(pj_family(-10, 8, policy), 5, k, policy) for k in (0, 1, 2)]
        for got, frac in zip(b, (Fraction(80, 30), Fraction(8, 5), Fraction(8, 9))):
            assert abs(got - mp.mpf(frac.numerator) / frac.denominator) <= policy.rel_tol
        assert abs(inner_bound(pj_family("-5.0001", 3, policy), 5, 1, policy) - 30000) < mp.mpf("0.5")
        assert all(inner_bound(pj_family("-5.5", 0, policy), 5, k, policy) == 0 for k in (0, 1, 2))
    with pytest.raises(ValueError):
        inner_bound(pj_family(-10, 8, policy), 5, 3, policy)
    # PJ bounds need a < -n: a = -5 is a valid family, but not at degree 5
    with pytest.raises(ValueError):
        inner_bound(pj_family(-5, 3, policy), 5, 0, policy)


def test_inner_bound_needs_a_built_in_family(policy):
    fam = mp_family("0.5", "0.9", policy)
    copy = custom_family(fam.C, fam.Lambda, policy=policy)
    with pytest.raises(ValueError, match="no closed-form bounds"):
        inner_bound(copy, 5, 0, policy)


def test_bound_separation_table_rows(policy):
    rep = bound_separation(mp_family("0.5", "0.08", policy), 30, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[0] < rep.bounds[1] < rep.bounds[2]
        assert abs(rep.x_min - mp.mpf("-650.578")) < mp.mpf("5e-3")
        assert abs(rep.x_max - mp.mpf("0.010")) < mp.mpf("5e-3")

    rep = bound_separation(pj_family(-35, 8, policy), 25, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[2] < rep.bounds[1] < rep.bounds[0]

    rep = bound_separation(pj_family("-5.5", 0, policy), 5, policy)
    assert all(rep.separated.values()) and rep.ordering_ok
    assert all(v == 0 for v in rep.bounds.values())


def test_bound_ordering_reverses(policy):
    rep = bound_separation(mp_family("0.5", "2.7", policy), 12, policy)
    assert rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[2] < rep.bounds[1] < rep.bounds[0]
    rep = bound_separation(pj_family(-35, -8, policy), 12, policy)
    assert rep.ordering_ok
    with policy.workprec():
        assert rep.bounds[0] < rep.bounds[1] < rep.bounds[2]


def test_right_angle_phi_bounds_are_exactly_zero(policy):
    with policy.workprec():
        fam = mp_family("0.5", mp.pi / 2, policy)
        for k in (0, 1, 2):
            assert inner_bound(fam, 12, k, policy) == 0


def test_bound_separation_random_draws(policy):
    rng = random.Random(20250810)
    for _ in range(50):
        fam = mp_family(rng.uniform(0.05, 30), rng.uniform(0.05, 3.09), policy)
        rep = bound_separation(fam, rng.randint(2, 10), policy)
        assert all(rep.separated.values()), rep
        assert rep.ordering_ok, rep
    for _ in range(50):
        fam = pj_family(rng.uniform(-60, -12), rng.uniform(-10, 10), policy)
        rep = bound_separation(fam, rng.randint(2, min(10, fam.max_valid_degree)), policy)
        assert all(rep.separated.values()), rep
        assert rep.ordering_ok, rep


def test_gauss_weights_positive(policy):
    for fam in (mp_family("0.5", "0.08", policy), pj_family(-35, 8, policy)):
        _, weights = gauss_rule(fam, 12, policy)
        assert all(w > 0 for w in weights)


def test_stieltjes_coprime_branch(policy):
    verdict = stieltjes_check(mp_family("0.5", "0.9", policy), 2, 10, policy)
    assert verdict.ok and verdict.branch == "coprime" and not verdict.common


def test_stieltjes_classical_case(policy):
    verdict = stieltjes_check(mp_family(20, "0.1", policy), 0, 8, policy)
    assert verdict.ok and verdict.branch == "coprime"


def test_stieltjes_common_zero_branch(policy):
    verdict = stieltjes_check(pj_family("-5.5", 0, policy), 1, 5, policy)
    assert verdict.ok and verdict.branch == "common_zero"
    assert len(verdict.common) == 1
    with policy.workprec():
        assert abs(verdict.common[0]) <= policy.abs_tol
        assert verdict.bound == 0


def test_stieltjes_common_zero_branch_mp_right_angle(policy):
    with policy.workprec():
        fam = mp_family("0.5", mp.pi / 2, policy)
    verdict = stieltjes_check(fam, 2, 9, policy)
    assert verdict.ok and verdict.branch == "common_zero"
    assert len(verdict.common) == 1


def test_stieltjes_failure_path_reports_violations(policy, monkeypatch):
    fam = mp_family("0.5", "0.9", policy)
    n, k = 10, 2
    zp = zeros_golub_welsch(fam, n, policy)
    zg = zeros_golub_welsch(fam.shifted(k), n - 2, policy)
    with policy.workprec():
        beyond = zp[-1] + 1
    monkeypatch.setattr(zeros, "inner_bound", lambda *args: beyond)
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "coprime"
    assert verdict.violations == (
        "zeros of (x-B) g do not interlace the zeros of p_n",
        "bound is not strictly inside the extreme zeros",
    )
    monkeypatch.setattr(zeros, "inner_bound", lambda *args: zg[len(zg) // 2])
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "coprime"
    assert verdict.violations == (
        "bound coincides with a zero of the modified polynomial",
        "zeros of (x-B) g do not interlace the zeros of p_n",
    )


def test_stieltjes_common_zero_failures_report_violations(policy, monkeypatch):
    # PJ(-5.5, 0) at n = 5 shares its middle zero 0 with g_{3,1}, and B_5(1) = 0
    fam, k, n = pj_family("-5.5", "0", policy), 1, 5
    shifted = fam.shifted(k)
    zp = zeros_golub_welsch(fam, n, policy)
    assert stieltjes_check(fam, k, n, policy).ok
    evaluate = zeros.eval_with_derivative

    monkeypatch.setattr(zeros, "inner_bound", lambda *args: mp.mpf("0.25"))
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("common zero 0.0 differs from bound 0.25",)
    monkeypatch.undo()

    # g vanishing at every zero of p_n
    monkeypatch.setattr(
        zeros,
        "eval_with_derivative",
        lambda f, *args: (mp.mpf(0), mp.mpf(1)) if f is shifted else evaluate(f, *args),
    )
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    x = [mp.nstr(z, 10) for z in zp.values]
    assert verdict.violations == (
        "expected exactly one common zero, found 5",
        f"common zero {x[0]} differs from bound 0.0",
        "common zero is an extreme zero of p_n (index 0)",
        f"common zero {x[1]} differs from bound 0.0",
        f"common zero {x[3]} differs from bound 0.0",
        f"common zero {x[4]} differs from bound 0.0",
        "common zero is an extreme zero of p_n (index 4)",
    )

    # g of one sign at the four zeros of p_n it does not share
    monkeypatch.setattr(
        zeros,
        "eval_with_derivative",
        lambda f, m, z, *args: (mp.mpf(1), mp.mpf(0)) if f is shifted and z != 0 else evaluate(f, m, z, *args),
    )
    verdict = stieltjes_check(fam, k, n, policy)
    assert verdict.ok is False and verdict.branch == "common_zero"
    assert verdict.violations == ("zeros of g do not interlace the non-common zeros of p_n",)


def test_root_finder_failure_is_a_numerical_failure(policy, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise mp.NoConvergence("polyroots failed to converge")

    monkeypatch.setattr(mp, "polyroots", no_convergence)
    with pytest.raises(ArithmeticError, match="degree-2 polynomial did not converge"):
        polynomial_real_roots(Polynomial([-1, 0, 1]), policy)
    # the grid names its m = 2, k = 3 cells by the roots of their cubic G
    assert main(["--grid", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: root finding on a degree-3 polynomial did not converge\n"


def test_stieltjes_parameter_validation(policy):
    with pytest.raises(ValueError):
        stieltjes_check(mp_family("0.5", "0.9", policy), 3, 10, policy)
    with pytest.raises(ValueError):
        # base degree outside the validity range
        stieltjes_check(pj_family("-5.5", 8, policy), 2, 6, policy)
    with pytest.raises(ValueError):
        # shift pushes the parameter out of the constructor's range
        stieltjes_check(pj_family("-3.5", 8, policy), 2, 3, policy)


def test_polynomial_real_roots_classification(policy):
    p = Polynomial([-1, 0, 1])  # x^2 - 1
    roots, nonreal = polynomial_real_roots(p, policy)
    assert nonreal == 0
    with policy.workprec():
        assert abs(roots[0] + 1) <= policy.abs_tol and abs(roots[1] - 1) <= policy.abs_tol
    q = Polynomial([1, 0, 1])  # x^2 + 1
    roots, nonreal = polynomial_real_roots(q, policy)
    assert roots == [] and nonreal == 2
    lin = Polynomial([3, 2])
    roots, nonreal = polynomial_real_roots(lin, policy)
    assert nonreal == 0
    with policy.workprec():
        assert abs(roots[0] + mp.mpf(3) / 2) <= policy.rel_tol
