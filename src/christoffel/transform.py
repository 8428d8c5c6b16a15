"""Christoffel transform of a recurrence family and its connection decomposition.

Multiplying the orthogonality weight w(x) by an even monic polynomial
c_{2k}(x) with zero pairs +-x_1, ..., +-x_k produces a new orthogonal
sequence g_{d,k}.  Two routes to g are implemented:

* the determinant route (:func:`christoffel_transform`): expand the classical
  bordered determinant along its polynomial row,

      U_{d,2k} c_{2k}(x) g_{d,k}(x) = sum_j (-1)^j U_{d,j} p_{d+j}(x),

  where U_{d,j} are numeric 2k x 2k minors of the matrix of values
  p_{d+i}(+-x_l); g is the quotient of the exact division by c_{2k}, as it
  is, and the division's remainder gate checks the identity.  A zero of c
  of multiplicity r (a repeated node, a node repeated up to sign, or the
  node 0) gives the confluent rows p_{d+i}^{(s)}, s < r, at that zero:
  Christoffel's theorem with multiple zeros (Szego, Orthogonal Polynomials,
  Thm 2.5; Gautschi, Orthogonal Polynomials, 2004, section 2.4);

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
from .core import _accumulate, _add, _cmp, _defect, _div, _round, _to_mpf, _unpack  # the exact-rounding kernel
from .core import _cabs, _cdiv, _chorner, _cnorm, _cupdate  # and its complex operations
from .families import ModifierSpec, RecurrenceFamily, _ladder, _order, even_modifier, generate
from .associated import _sequence


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
    _order(m, "gap m", 2)
    _order(k, "modifier order k")
    deg_a = m - 2 if k <= m - 1 else 2 * k - m
    deg_g = max(m - 1, 2 * k - m - 1)
    return DegreeLaw(deg_a, deg_g, m == 2 and k <= 2)


def _node_rows(family: RecurrenceFamily, modifier: ModifierSpec, ladder: tuple, prec: int) -> list:
    """The determinant's rows p_j^{(s)}(w) over the zeros w = z_1, -z_1, z_2, ... of c, as complex quadruples,
    for j = 0 up to at least the top of ``ladder`` (p_0, p_1, ...): kept by the family per (modifier, prec) and
    extended as higher degrees need them.

    s counts the earlier occurrences of w, so a zero of multiplicity r gives the confluent rows s < r.
    Each p_j^{(s)}(w) is formed once, with the derivatives rounded at the ambient precision, ``prec``.
    """
    zeros = [w for z in modifier.nodes for w in (z, -z)]
    table = family.owned(("node_rows", modifier, prec), lambda: [[] for _ in zeros])
    for i, (w, row) in enumerate(zip(zeros, table)):
        (xm, xe), (ym, ye) = (_unpack(v) for v in w._mpc_)
        s = zeros[:i].count(w)
        for p in ladder[len(row) :]:
            for _ in range(s):
                p = p.derivative()
            row.append(_chorner(p._pairs, xm, xe, ym, ye, prec))
    return table


def _eliminate(a: list, cols: list, r: int, sign: int, prev, prec: int, minors=None) -> tuple:
    """Bareiss steps r, r + 1, ... on the rows ``a`` over the columns ``cols``, in mpc's roundings.

    Returns sign times the last pivot, or zero at a zero pivot.  The pivot is the first entry of
    largest ``mpc_abs`` (:func:`_cabs`) in its column, as ``max`` picks it; ``prev`` is the last pivot,
    None for 1.  With ``minors``, ``a`` is the full matrix and minor j, unless it is known already, is
    branched off before step j.
    """
    n = len(a)
    norm = prev and _cnorm(*prev, prec)
    while True:
        if minors is not None and minors[r] is None:
            minors[r] = _eliminate([row[:] for row in a], cols[:r] + cols[r + 1 :], r, sign, prev, prec)
        if r == n - 1:
            am, ae, bm, be = a[r][cols[r]]
            return sign * am, ae, sign * bm, be
        c = cols[r]
        piv, top = r, _cabs(*a[r][c], prec)
        for i in range(r + 1, n):
            size = _cabs(*a[i][c], prec)
            if _cmp(*size, *top) > 0:
                piv, top = i, size
        if not top[0]:
            return 0, 0, 0, 0
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot_row, p = a[r], a[r][c]
        for row in a[r + 1 :]:
            x = row[c]
            for t in cols[r + 1 :]:
                row[t] = _cupdate(row[t], p, x, pivot_row[t], prev, norm, prec)
        prev, norm = p, _cnorm(*p, prec)
        r += 1


def _cofactor_minors(rows: list, prec: int, first=None) -> list:
    """All 2k + 1 minors U_j of the 2k x (2k + 1) node-value matrix (delete column j), as complex quadruples.

    Each is the determinant by fraction-free elimination with partial pivoting (Bareiss, Math. Comp.
    22, 1968) in mpc's roundings.  For its steps 0..j-1 minor j pivots on the full matrix's columns,
    and an update reads only its own column, the pivot column and the last pivot, so the minors share
    one elimination of the full matrix: minor j branches off before step j and finishes on the columns
    after j, which are exactly the operations of its own elimination.  Minor 0, when it is known
    (``first``), is not formed again; minors past a zero pivot of the shared elimination are 0, as the
    pivot stops their own eliminations too.
    """
    n = len(rows)
    minors = [first] + [None] * n
    minors[n] = _eliminate([list(row) for row in rows], list(range(n + 1)), 0, 1, None, prec, minors)
    return [(0, 0, 0, 0) if u is None else u for u in minors]


def christoffel_transform(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    deg: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Polynomial:
    """Monic degree-``deg`` polynomial orthogonal with respect to c_{2k}(x) w(x).

    Uses the bordered-determinant construction; requires the base family to
    be valid up to degree deg + 2k.  Its rows run over the zeros z_1, -z_1,
    z_2, -z_2, ... of c: the s-th earlier occurrence of a value w gives the
    row p^{(s)}(w), so a zero of multiplicity r contributes the confluent
    rows s < r (Szego, Thm 2.5) and distinct zeros give the plain values.
    Nodes that nearly coincide without being equal make the determinant
    numerically singular and raise an ``ArithmeticError``.
    """
    family.require_degree(deg)
    k = modifier.k
    if k == 0:
        return generate(family, deg, policy)
    family.require_degree(deg + 2 * k, of=f"deg + 2k for deg={deg}, k={k}")
    with policy.workprec():
        prec = policy.precision_bits
        (rel_m, rel_e), (abs_m, abs_e) = _unpack(policy.rel_tol._mpf_), _unpack(policy.abs_tol._mpf_)
        ladder = _ladder(family, deg + 2 * k, prec)
        polys = ladder[deg:]
        rows = _node_rows(family, modifier, ladder, prec)
        # the determinant of node-row columns p_s .. p_{s + 2k - 1}, by s: this transform's trunk (its minor 2k)
        # is block deg and its minor 0 block deg + 1, the same operations on the same columns as the trunk of
        # deg + 1, so the degree below takes its minor 0 from here
        blocks = family.owned(("blocks", modifier, prec), dict)
        minors = _cofactor_minors([row[deg : deg + 2 * k + 1] for row in rows], prec, blocks.get(deg + 1))
        blocks[deg], blocks[deg + 1] = minors[-1], minors[0]
        # the mpc checks scale = max |U_j|, |U_2k| <= rel_tol * scale, d_j = (-1)**j U_j / U_2k and
        # |Im d_j| > abs_tol * max(1, |d_j|), in the same roundings on the quadruples
        scale = (0, 0)
        for u in minors:
            size = _cabs(*u, prec)
            if _cmp(*size, *scale) > 0:
                scale = size
        last = minors[-1]
        size = _cabs(*last, prec)
        if not scale[0] or _cmp(*size, *_round(rel_m * scale[0], rel_e + scale[1], prec)) <= 0:
            raise DegenerateTransformError(
                f"leading cofactor is {mp.nstr(_to_mpf(*size), 6)} against scale "
                f"{mp.nstr(_to_mpf(*scale), 6)}; transform is degenerate for {family.label}"
            )
        norm = _cnorm(*last, prec)
        # sum_j d_j p_{deg+j}, each term rounded and added as the polynomial sum of the scaled p_{deg+j} would
        combo = [(0, 0)] * (deg + 2 * k + 1)
        for j, u in enumerate(minors):
            dm, de, im, ie = _cdiv(*u, *last, norm, prec)
            if j % 2:
                dm, im = -dm, -im
            size = _cabs(dm, de, im, ie, prec)
            if _cmp(*size, 1, 0) <= 0:
                size = 1, 0
            if _cmp(abs(im), ie, *_round(abs_m * size[0], abs_e + size[1], prec)) > 0:
                raise DegenerateTransformError(
                    f"imaginary residue {mp.nstr(_to_mpf(abs(im), ie), 6)} in expansion "
                    "coefficients; modifier nodes are inconsistent"
                )
            _accumulate(combo, dm, de, polys[j]._pairs, 0, prec)
        return Polynomial._of(combo).divide_exact(modifier.c, policy)


def _expand_in_monic_basis(f: Polynomial, ladder, low: int, prec: int) -> list:
    """Kernel pairs e_low..e_N with f = sum e_i p_i over the monic ladder p_0..p_N, top down.

    Subtracting e_i p_i leaves exactly 0 at x**i: p_i is monic, and e_i has at most the
    working precision's bits, as f is a product rounded there.  Top down, e_i reads only
    x**i and above, so the coefficients below x**low are neither formed nor returned."""
    rem = list(f._pairs[low:])
    out = [(0, 0)] * len(rem)
    for i in range(len(rem) - 1, -1, -1):
        em, ee = out[i] = rem[i]
        if em:
            _accumulate(rem, -em, ee, ladder[low + i]._pairs[low:], 0, prec)
    return out


def modified_polynomial(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    deg: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Polynomial:
    """g_{deg,k}, orthogonal with respect to c_{2k}(x) w(x).

    Taken from the parameter shift when the modifier is the family's
    canonical one (exact and cheap), otherwise from the determinant route.
    The shift route needs exact equality with ``even_modifier(family, k)``:
    nodes that differ in their last bits, such as canonical nodes rounded at
    another precision, take the determinant route.
    """
    if family.paper is not None and modifier == even_modifier(family, modifier.k, policy):
        return generate(family.shifted(modifier.k), deg, policy)
    return christoffel_transform(family, modifier, deg, policy)


@dataclass(frozen=True)
class ConnectionDecomposition:
    """The pair (a, G) with c_{2k} g_{n-m,k} = a p_n - G p_{n-1}, g monic, and its verdict.

    ``scale`` is the factor that renormalises G to monic form (multiplying
    the whole identity by it gives the bound-normalised variant); ``B`` is
    the root of G when G is linear, the inner bound for extreme zeros.
    ``work`` holds the expansion coefficients d_j of c_{2k} g_{n-m,k} in the
    monic basis p_{n-m}, ..., p_{n-m+2k} (d_{2k} = 1).  ``residual`` is the
    sup-norm defect of the identity relative to the left side.  ``law`` is the
    degree law of (k, m), ``follows_law`` whether deg a and deg G are its, and
    ``residual_ok`` whether the residual is within the ``rel_tol`` of the
    policy the pair was built under; ``ok`` is both.
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
    law: DegreeLaw
    follows_law: bool
    residual_ok: bool

    @property
    def ok(self) -> bool:
        return self.follows_law and self.residual_ok


def _expansion(family, modifier, d, policy) -> tuple:
    """What the cells with n - m = d share, kept by the family: g_{d,k}, the left side c_{2k} g_{d,k},
    max(1, its sup norm) as a kernel pair, and its monic-basis coefficients from p_d up (kernel pairs, mpf); the
    last is exactly 1, as c_{2k}, g and the basis are monic and the expansion's top step only copies the product's
    top coefficient.

    The key holds the whole policy, for the determinant route's gates read its tolerances.
    """

    def build() -> tuple:
        g = modified_polynomial(family, modifier, d, policy)
        prec = policy.precision_bits
        with policy.workprec():
            lhs = modifier.c * g
            coeffs = _expand_in_monic_basis(lhs, _ladder(family, lhs.degree, prec), d, prec)
            return g, lhs, _unpack(max(lhs.inf_norm(), mp.mpf(1))._mpf_), coeffs, tuple(_to_mpf(*w) for w in coeffs)

    return family.owned(("expansion", modifier, d, policy), build)


def _connection_range(family: RecurrenceFamily, n: int, m: int, k: int) -> int:
    """The range rule of a connection decomposition: k, n from 2, m in 2..n, then the top degree
    max(n, n - m + 2k) it reads, which is returned; ``ValueError`` names the argument out of range."""
    _order(k, "modifier order k")
    family.require_degree(n, 2)
    _order(m, "gap m", 2, n)
    top = max(n, n - m + 2 * k)
    family.require_degree(top, of=f"n - m + 2k for n={n}, m={m}, k={k}")
    return top


def connection_decompose(
    family: RecurrenceFamily,
    modifier: ModifierSpec,
    n: int,
    m: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> ConnectionDecomposition:
    """Canonical connection pair (a, G) for the modified family, 2 <= m <= n.

    The left side and its expansion depend on n - m and the modifier only,
    so they are built once per (modifier, n - m, policy) and kept by the
    family (see :func:`_expansion`).  The arrays for a and -G are sized to
    the degree law and nothing is chopped from them: each degree is the
    index of its top nonzero coefficient, and the identity residual is the
    pair's one gate.
    """
    k = modifier.k
    top = _connection_range(family, n, m, k)
    law = connection_degree_law(k, m)
    g, lhs, lhs_scale, d, work = _expansion(family, modifier, n - m, policy)
    prec = policy.precision_bits
    ladder = _ladder(family, n, prec)
    # Lambda(n) Lambda(n-1) ... in that order: the product for j is a prefix of the one for j - 1
    rows = family.kernel_rows(top, prec)
    prods = [(1, 0)]
    for t in range(m - 1):
        prods.append(_round(prods[-1][0] * rows[n - t][2], prods[-1][1] + rows[n - t][3], prec))

    # a and -G term by term in the order of the formula, each w * s rounded before it is added
    a_out = [(0, 0)] * (law.deg_a + 1)
    minus_G = [(0, 0)] * (law.deg_G + 1)
    lower, upper = _sequence(family, n - 1, m - 2, prec), _sequence(family, n, m - 1, prec)  # anchors n - 1 and n
    for j in range(0, min(m - 2, 2 * k) + 1):
        wm, we = _div(*d[j], *prods[m - j - 1], prec)
        _accumulate(a_out, -wm, we, lower[m - j - 2]._pairs, 0, prec)
        _accumulate(minus_G, wm, we, upper[m - j - 1]._pairs, 0, prec)
    if m - 1 <= 2 * k:
        minus_G[0] = _add(*minus_G[0], *d[m - 1], prec)
    for j in range(m, 2 * k + 1):  # a and -G are separate sums, so one loop keeps each one's order
        s = _sequence(family, n - m + j, j - m, prec)  # anchor n - m + j
        _accumulate(a_out, *d[j], s[j - m]._pairs, 0, prec)
        if j > m:
            wm, we = _round(rows[n + 1][2] * d[j][0], rows[n + 1][3] + d[j][1], prec)
            _accumulate(minus_G, -wm, we, s[j - m - 1]._pairs, 0, prec)
    a_poly = Polynomial._of(a_out)
    G_poly = Polynomial._of([(-cm, ce) for cm, ce in minus_G])  # rounded sums: negation is exact
    if G_poly.is_zero():
        raise DegenerateTransformError("connection coefficient G vanished")

    G = G_poly._pairs
    defect = _defect(lhs._pairs, a_poly._pairs, ladder[n]._pairs, G, ladder[n - 1]._pairs, prec)
    residual = _div(*defect, *lhs_scale, prec)
    return ConnectionDecomposition(
        n=n,
        m=m,
        k=k,
        a_poly=a_poly,
        G_poly=G_poly,
        g_poly=g,
        scale=_to_mpf(*_div(1, 0, *G[-1], prec)),
        B=_to_mpf(*_div(-G[0][0], G[0][1], *G[1], prec)) if len(G) == 2 else None,
        residual=_to_mpf(*residual),
        work=work,
        law=law,
        follows_law=(a_poly.degree, G_poly.degree) == (law.deg_a, law.deg_G),
        residual_ok=_cmp(*residual, *_unpack(policy.rel_tol._mpf_)) <= 0,
    )


def canonical_decompose(family: RecurrenceFamily, n: int, m: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY):
    """:func:`connection_decompose` under the canonical modifier of order k, whose c_{2k} costs about k**2
    operations to build: the range of n, m, k and n - m + 2k is checked first."""
    _connection_range(family, n, m, k)
    return connection_decompose(family, even_modifier(family, k, policy), n, m, policy)
