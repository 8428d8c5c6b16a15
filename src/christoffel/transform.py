"""Christoffel transform of a recurrence family and its connection decomposition.

Multiplying the orthogonality weight w(x) by an even monic polynomial
c_{2k}(x) with conjugate zero pairs +-x_1, ..., +-x_k produces a new
orthogonal sequence g_{d,k}.  Two routes to g are implemented:

* the determinant route (:func:`christoffel_transform`): expand the classical
  bordered determinant along its polynomial row,

      U_{d,2k} c_{2k}(x) g_{d,k}(x) = sum_j (-1)^j U_{d,j} p_{d+j}(x),

  where U_{d,j} are numeric 2k x 2k minors of the matrix of values
  p_{d+i}(+-x_l); divide by c_{2k} and normalise monic;

* the parameter-shift route for the built-in families, where the canonical
  modifier corresponds to lambda -> lambda + k (Meixner-Pollaczek) or
  a -> a + k (Pseudo-Jacobi).

The connection decomposition writes, for 2 <= m <= n,

    c_{2k}(x) g_{n-m,k}(x) = a(x) p_n(x) - G(x) p_{n-1}(x)

with deg a = m-2 for k <= m-1 (else 2k-m) and deg G = max(m-1, 2k-m-1).
The pair (a, G) is built from the expansion coefficients d_j of
c_{2k} g_{n-m,k} in the monic basis p_{n-m}, ..., p_{n-m+2k} combined with
associated polynomials.  This construction pins the canonical pair: when
2k >= n+m+1 the representation a p_n - G p_{n-1} is not unique (any multiple
of (h p_{n-1}, h p_n) can be added), so a bare linear solve on coefficients
may return a different, lower-degree member of the solution family.  The
tests keep a coefficient-matching least-squares solve as a cross-check for
the well-posed cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from mpmath import mp

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy
from .families import ModifierSpec, RecurrenceFamily, _ladder, even_modifier, generate
from .associated import associated


class DegenerateTransformError(ArithmeticError):
    """The Christoffel determinant is numerically singular for these inputs."""


class DegreeLaw(NamedTuple):
    deg_a: int
    deg_G: int
    linear_G: bool


def connection_degree_law(k: int, m: int) -> DegreeLaw:
    """Predicted degrees of the connection pair (a, G) for modifier order k and gap m.

    ``linear_G`` is the m = 2, k <= 2 specialisation where G is linear and its
    root is an inner bound for the extreme zeros.
    """
    if m < 2:
        raise ValueError("gap m must be at least 2")
    if k < 0:
        raise ValueError("modifier order k must be nonnegative")
    deg_a = m - 2 if k <= m - 1 else 2 * k - m
    deg_g = max(m - 1, 2 * k - m - 1)
    return DegreeLaw(deg_a, deg_g, m == 2 and k <= 2)


def _bareiss_det(rows) -> mp.mpc:
    """Fraction-free Gaussian elimination with partial pivoting; returns det."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return mp.mpc(1)
    sign = 1
    prev = mp.mpc(1)
    for r in range(n - 1):
        piv = max(range(r, n), key=lambda i: abs(a[i][r]))
        if a[piv][r] == 0:
            return mp.mpc(0)
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) / prev
            a[i][r] = mp.mpc(0)
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


def _cofactor_minors(node_rows) -> list:
    """All 2k minors U_j of the 2k x (2k+1) node-value matrix (delete column j)."""
    width = len(node_rows[0]) if node_rows else 1
    minors = []
    for j in range(width):
        sub = [[row[t] for t in range(width) if t != j] for row in node_rows]
        minors.append(_bareiss_det(sub))
    return minors


def christoffel_transform(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    deg: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Polynomial:
    """Monic degree-``deg`` polynomial orthogonal with respect to c_{2k}(x) w(x).

    Uses the bordered-determinant construction; requires the modifier node
    pairs to be pairwise distinct and the base family to be valid up to
    degree deg + 2k.
    """
    modifier.validate(policy)
    k = modifier.k
    if k == 0:
        return generate(family, deg, policy)
    family.require_degree(deg + 2 * k)
    with policy.workprec():
        ladder = _ladder(family, deg + 2 * k, policy.precision_bits)
        polys = ladder[deg : deg + 2 * k + 1]
        node_rows = []
        for z in modifier.nodes:
            node_rows.append([p(z) for p in polys])
            node_rows.append([p(-z) for p in polys])
        minors = _cofactor_minors(node_rows)
        scale = max(abs(u) for u in minors)
        if scale == 0 or abs(minors[-1]) <= policy.rel_tol * scale:
            raise DegenerateTransformError(
                f"leading cofactor is {mp.nstr(abs(minors[-1]), 6)} against scale "
                f"{mp.nstr(scale, 6)}; transform is degenerate for {family.label}"
            )
        dlast = minors[-1]
        combo = Polynomial()
        for j, u in enumerate(minors):
            d = u / dlast
            if j % 2:
                d = -d
            if abs(d.imag) > policy.abs_tol * max(1, abs(d)):
                raise DegenerateTransformError(
                    f"imaginary residue {mp.nstr(abs(d.imag), 6)} in expansion "
                    "coefficients; modifier nodes are inconsistent"
                )
            combo = combo + polys[j] * d.real
        g = combo.divide_exact(modifier.c, policy).monic()
        return g.chop(policy.rel_tol * max(1, g.inf_norm()))


def _expand_in_monic_basis(f: Polynomial, ladder) -> list:
    """Coefficients e with f = sum e_i p_i over the monic ladder p_0..p_N."""
    rem = list(f.coeffs)
    out = [mp.mpf(0)] * (f.degree + 1)
    for i in range(f.degree, -1, -1):
        e = rem[i]
        out[i] = e
        if e != 0:
            for t, c in enumerate(ladder[i].coeffs):
                rem[t] -= e * c
        rem[i] = mp.mpf(0)
    return out


def _is_canonical_modifier(family, modifier, policy) -> bool:
    if not family.supports_shift:
        return False
    try:
        canon = even_modifier(family, modifier.k, policy)
    except ValueError:
        return False
    with policy.workprec():
        diff = (canon.c - modifier.c).inf_norm()
        return diff <= policy.rel_tol * max(1, canon.c.inf_norm())


def modified_polynomial(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    deg: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Polynomial:
    """g_{deg,k}, orthogonal with respect to c_{2k}(x) w(x).

    Taken from the parameter shift when the modifier is the family's
    canonical one (exact and cheap), otherwise from the determinant route.
    """
    if _is_canonical_modifier(family, modifier, policy):
        return generate(family.shifted(modifier.k), deg, policy)
    return christoffel_transform(family, modifier, deg, policy)


@dataclass(frozen=True)
class ConnectionDecomposition:
    """The pair (a, G) with c_{2k} g_{n-m,k} = a p_n - G p_{n-1}, g monic.

    ``scale`` is the factor that renormalises G to monic form (multiplying
    the whole identity by it gives the bound-normalised variant); ``B`` is
    the root of G when G is linear, the inner bound for extreme zeros.
    ``work`` holds the expansion coefficients d_j of c_{2k} g_{n-m,k} in the
    monic basis p_{n-m}, ..., p_{n-m+2k} (d_{2k} = 1).  ``residual`` is the
    sup-norm defect of the identity relative to the left side.
    """

    n: int
    m: int
    k: int
    a_poly: Polynomial
    G_poly: Polynomial
    g_poly: Polynomial
    scale: mp.mpf
    B: Optional[mp.mpf]
    residual: mp.mpf
    work: tuple


def connection_decompose(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    n: int,
    m: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> ConnectionDecomposition:
    """Canonical connection pair (a, G) for the modified family, 2 <= m <= n."""
    if not 2 <= m <= n:
        raise ValueError(f"need 2 <= m <= n, got m={m}, n={n}")
    modifier.validate(policy)
    k = modifier.k
    top = max(n, n - m + 2 * k)
    family.require_degree(top)
    g = modified_polynomial(family, modifier, n - m, policy)
    with policy.workprec():
        ladder = _ladder(family, top, policy.precision_bits)
        lhs = modifier.c * g
        coeffs = _expand_in_monic_basis(lhs, ladder)
        escale = max(max(abs(e) for e in coeffs), mp.mpf(1))
        for low in coeffs[: n - m]:
            if abs(low) > policy.rel_tol * escale:
                raise ArithmeticError(
                    "modified polynomial has components below the expected basis "
                    "range; the transform inputs are inconsistent"
                )
        d = [e / coeffs[-1] for e in coeffs[n - m :]]

        L = family.recurrence(top, policy.precision_bits)[1]
        a_poly = Polynomial()
        g_proof = Polynomial()
        for j in range(0, min(m - 2, 2 * k) + 1):
            prod = mp.mpf(1)
            for t in range(m - j - 1):
                prod *= L[n - t]
            w = d[j] / prod
            a_poly = a_poly - associated(family, n - 1, m - j - 2, policy) * w
            g_proof = g_proof + associated(family, n, m - j - 1, policy) * w
        if m - 1 <= 2 * k:
            g_proof = g_proof + Polynomial([d[m - 1]])
        for j in range(m, 2 * k + 1):
            a_poly = a_poly + associated(family, n - m + j, j - m, policy) * d[j]
        for j in range(m + 1, 2 * k + 1):
            g_proof = g_proof - associated(family, n - m + j, j - m - 1, policy) * (L[n + 1] * d[j])
        G_poly = -g_proof

        a_poly = a_poly.chop(policy.rel_tol * max(1, a_poly.inf_norm()))
        G_poly = G_poly.chop(policy.rel_tol * max(1, G_poly.inf_norm()))
        if G_poly.is_zero():
            raise DegenerateTransformError("connection coefficient G vanished")

        rhs = a_poly * ladder[n] - G_poly * ladder[n - 1]
        residual = (lhs - rhs).inf_norm() / max(lhs.inf_norm(), mp.mpf(1))
        scale = 1 / G_poly.coeffs[-1]
        B = -G_poly.coeffs[0] / G_poly.coeffs[1] if G_poly.degree == 1 else None
        return ConnectionDecomposition(
            n=n,
            m=m,
            k=k,
            a_poly=a_poly,
            G_poly=G_poly,
            g_poly=g,
            scale=scale,
            B=B,
            residual=residual,
            work=tuple(d),
        )
