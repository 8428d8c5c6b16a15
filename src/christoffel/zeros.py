"""Zeros, Gauss rules, interlacing verdicts and inner bounds for extreme zeros.

Zeros of the degree-n family member are the eigenvalues of the symmetric
tridiagonal Jacobi matrix with diagonal C(1..n) and off-diagonal
sqrt(Lambda(2..n)).  They are isolated by bisection on the Sturm negative
pivot count (which needs only the Lambda values, no square roots), counted
in Python floats on the shifted and power-of-two scaled matrix, and then
polished by safeguarded Newton iteration at working precision on the
recurrence evaluation of p_n; only zeros closer than the bisection's 64-bit
midpoints resolve are bisected at working precision.  Eigenvalues of a
symmetric tridiagonal are perfectly conditioned; root-finding on monic
coefficients at n = 30 is not, which is why the coefficients are never
touched here.

Interlacing is decided in one place, :func:`interlace_strict`, by sign
alternation at the already computed zeros of p_n; no zero of the inner
polynomial is solved for.  General root finding (:func:`polynomial_real_roots`)
only names failures, such as nonreal roots of a connection coefficient; when
it does not converge it raises ``ArithmeticError`` instead of retrying.

The inner bounds B_n(k), k in {0, 1, 2}, are the roots of the linear
connection coefficient G in the gap-2 decomposition; they sit strictly
between the extreme zeros of p_n.  :func:`inner_bound` evaluates the closed
forms from a family's parameters:

    Meixner-Pollaczek: B_n(k) = -(lam)_k (lam)_n / ((lam)_{n+k-1} tan(phi)),
    evaluated in cancelled form (no large Pochhammer ratios):
        B_n(0) = -(lam+n-1) cot(phi)
        B_n(1) = -lam cot(phi)
        B_n(2) = -lam (lam+1) cot(phi) / (lam+n)

    Pseudo-Jacobi:
        B_n(0) = -a b / ((a+n)(a+n-1))
        B_n(1) = -b / (a+n)
        B_n(2) = -b / (a+1)
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import mpf_add, mpf_le, mpf_shift, mpf_sub, round_nearest, to_float

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, to_scalar
from .families import (
    MEIXNER_POLLACZEK,
    PSEUDO_JACOBI,
    RecurrenceFamily,
    _snapped_cot,
    eval_with_derivative,
)


@dataclass(frozen=True)
class ZeroSet:
    """Strictly ascending real zeros of one family member."""

    values: tuple
    label: str
    degree: int

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class InterlaceVerdict:
    """strict: q alternates in sign over the outer zeros; common: outer zeros that are zeros of q."""

    strict: bool
    common: tuple = ()


@dataclass(frozen=True)
class BoundReport:
    n: int
    bounds: dict
    x_min: mp.mpf
    x_max: mp.mpf
    separated: dict
    ordering_ok: bool
    label: str


@dataclass(frozen=True)
class StieltjesVerdict:
    """Outcome of the gap-2 interlacing check against the modified sequence.

    ``branch`` is "coprime" when p_n and g_{n-2,k} share no zero, otherwise
    "common_zero".  ``violations`` lists every failed assertion; an instance
    never passes silently.
    """

    label: str
    n: int
    k: int
    branch: str
    bound: mp.mpf
    ok: bool
    common: tuple = ()
    violations: tuple = ()


# Sturm counts in doubles on the shifted, scaled Jacobi matrix, whose entries
# are below 1/2 in size, are exact counts of a matrix within about 2**-51 of
# it (Kahan's backward error bound plus the roundings to double), so no
# eigenvalue lies within this band of x when the counts at x -/+ _BAND agree.
_BAND = 2.0**-49

# Newton iterations allowed per zero; from a 2**-44 bracket it needs four.
_POLISH_CAP = 150


def _count_below(diag, offsq, x, tiny):
    """Eigenvalues of the Jacobi matrix strictly below x (Sturm pivot count).

    Runs in the arithmetic of its arguments: Python floats or mpf.
    """
    count = 0
    d = diag[0] - x
    if d == 0:
        d = -tiny
    if d < 0:
        count += 1
    for j in range(1, len(diag)):
        d = (diag[j] - x) - offsq[j - 1] / d
        if d == 0:
            d = -tiny
        if d < 0:
            count += 1
    return count


def _isolate(count, a, b, ca, cb, width, prec):
    """Ascending brackets (a, b, ca, cb) of the eigenvalues in [a, b), by bisection.

    a, b and ``width`` are raw mpf values, and midpoints are rounded to
    ``prec`` bits.  ``ca`` and ``cb`` are the Sturm counts at a and b, so a
    bracket holds the eigenvalues of index ca+1..cb; ``count(x, ca, cb)``
    returns the count at x, or any number that clamps to the same value in
    [ca, cb].  A bracket stops once it is no wider than ``width`` and holds
    exactly one eigenvalue, or once its midpoint rounds to an end, so only a
    cluster closer than ``prec`` bits resolve stops holding more than one.
    """
    out = []
    todo = [(a, b, ca, cb)] if ca < cb else []
    while todo:
        a, b, ca, cb = todo.pop()
        mid = mpf_shift(mpf_add(a, b, prec, round_nearest), -1)
        if (cb - ca == 1 and mpf_le(mpf_sub(b, a, prec, round_nearest), width)) or mid in (a, b):
            out.append((a, b, ca, cb))
            continue
        cm = min(max(count(mid, ca, cb), ca), cb)
        if cm < cb:
            todo.append((mid, b, cm, cb))
        if ca < cm:
            todo.append((a, mid, ca, cm))
    return out


def _polish(family, n, lo, hi, policy, unit):
    """Newton on p_n from the centre of the isolating bracket (lo, hi).

    The bracket is already a few dozen bits wide, so plain Newton converges
    quadratically; iterates are merely clamped to an inflated copy of the
    bracket.  Termination is on the step size reaching the precision floor,
    not on sign tests, which become meaningless roundoff at the end; steps
    are measured relative to max(unit, |x|).  Running out of iterations
    raises ``ArithmeticError``.
    """
    w0 = max(hi - lo, mp.ldexp(max(unit, abs(lo)), -mp.prec))
    x_min, x_max = lo - w0, hi + w0
    x = (lo + hi) / 2
    eps_stop = mp.ldexp(1, -(mp.prec - 8))
    floor_step = mp.ldexp(w0, -16)
    prev_step = None
    for _ in range(_POLISH_CAP):
        p, dp = eval_with_derivative(family, n, x, policy)
        if p == 0 or dp == 0:
            return x
        xn = x - p / dp
        if xn < x_min:
            xn = x_min
        elif xn > x_max:
            xn = x_max
        step = abs(xn - x)
        if step <= eps_stop * max(unit, abs(xn)):
            return xn
        if prev_step is not None and step >= prev_step and prev_step <= floor_step:
            return x
        prev_step = step
        x = xn
    raise ArithmeticError(
        f"Newton polish of a zero of {family.label} degree {n} did not converge in "
        f"{_POLISH_CAP} iterations on the bracket [{mp.nstr(lo, 20)}, {mp.nstr(hi, 20)}]"
    )


def _solve(family: RecurrenceFamily, n: int, policy: TolerancePolicy) -> ZeroSet:
    """Sturm bisection with counts in doubles, then Newton polish at working precision (n >= 1).

    The brackets are cells of a bisection of the padded Gershgorin interval
    down to 2**-44 of its width, with midpoints rounded to 64 bits.  Newton's
    last bits depend on where it starts, and reports print roundoff-level
    residuals, so these cells stay fixed however the counts are done.  The
    counts run in doubles on the Jacobi matrix shifted by its Gershgorin
    midpoint and scaled by a power of two at working precision, which fits
    any recurrence mpf holds; a count is redone at 64 bits only when an
    eigenvalue lies within ``_BAND`` of the midpoint.  A cell that 64-bit
    midpoints cannot split into single zeros is bisected again at working
    precision.
    """
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        diag = C[1 : n + 1]
        offsq = L[2 : n + 1]
        if n == 1:
            return ZeroSet((diag[0],), family.label, 1)
        with mp.workprec(64):
            d64 = [+c for c in diag]
            o64 = [+v for v in offsq]
            beta = [mp.mpf(0)] + [mp.sqrt(v) for v in o64] + [mp.mpf(0)]
            lo = min(d - (beta[i] + beta[i + 1]) for i, d in enumerate(d64))
            hi = max(d + (beta[i] + beta[i + 1]) for i, d in enumerate(d64))
            # Newton's step floors are relative to max(unit, |x|): unit is 1,
            # or the Gershgorin width of a smaller spectrum.
            unit = min(hi - lo, 1)
            pad = (hi - lo) * mp.mpf("0.001")
            lo -= pad
            hi += pad
            spread = hi - lo
            tiny = mp.ldexp(spread, -120)
            width = spread * mp.ldexp(1, -44)
        centre = (lo + hi) / 2
        e = mp.frexp(spread)[1]
        fdiag = [float(mp.ldexp(d - centre, -e)) for d in diag]
        foffsq = [float(mp.ldexp(v, -2 * e)) for v in offsq]

        def count64(x, ca, cb):
            xs = to_float(mpf_shift(mpf_sub(x, centre._mpf_, 64, round_nearest), -e))
            below = _count_below(fdiag, foffsq, xs - _BAND, 2.0**-120)
            if below >= cb:
                return below
            upto = _count_below(fdiag, foffsq, xs + _BAND, 2.0**-120)
            if min(max(upto, ca), cb) == max(below, ca):
                return upto
            with mp.workprec(64):
                return _count_below(d64, o64, mp.make_mpf(x), tiny)

        # A cell that 64-bit midpoints cannot split into single zeros is
        # bisected again at working precision.  64-bit counts are exact for a
        # matrix within about 2**-62 max(|lo|, |hi|) of this one, so the cell
        # is first widened past that reach, and only its own indices are kept.
        reach = (width + mp.ldexp(max(abs(lo), abs(hi)), -60))._mpf_
        tiny_wp = mp.ldexp(tiny, -mp.prec)

        def count_wp(x, *_):
            return _count_below(diag, offsq, mp.make_mpf(x), tiny_wp)

        brackets = []
        for a, b, ca, cb in _isolate(count64, lo._mpf_, hi._mpf_, 0, n, width._mpf_, 64):
            if cb - ca == 1:
                brackets.append((a, b))
                continue
            a = mpf_sub(a, reach, mp.prec, round_nearest)
            b = mpf_add(b, reach, mp.prec, round_nearest)
            for u, v, cu, cv in _isolate(count_wp, a, b, count_wp(a), count_wp(b), width._mpf_, mp.prec):
                brackets += [(u, v)] * max(0, min(cv, cb) - max(cu, ca))
        if len(brackets) != n:
            raise ArithmeticError(f"isolated {len(brackets)} of the {n} zeros of {family.label} degree {n}")
        values = sorted(
            _polish(family, n, mp.make_mpf(a), mp.make_mpf(b), policy, unit) for a, b in brackets
        )
        return ZeroSet(tuple(values), family.label, n)


def zeros_golub_welsch(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> ZeroSet:
    """All n zeros of the degree-n member, ascending, at working precision.

    The zeros depend only on the precision, so they are solved once per
    (n, precision) and kept by the family; the simple-zero check runs on
    every call, under the caller's ``abs_tol``.  Zeros out of order are a
    numerical failure (``ArithmeticError``); a gap no wider than ``abs_tol``
    times max(unit, |u|, |v|) is the tolerance's fault (``ValueError``).  As
    in the Newton polish, the unit is 1, or the span of a smaller spectrum,
    so the check means the same at every scale.
    """
    family.require_degree(n)
    if n == 0:
        return ZeroSet((), family.label, 0)
    zs = family.owned(("zeros", n, policy.precision_bits), lambda: _solve(family, n, policy))
    with policy.workprec():
        unit = min(1, zs.values[-1] - zs.values[0])
        for u, v in zip(zs.values, zs.values[1:]):
            gap = v - u
            if not gap > 0:
                raise ArithmeticError(
                    f"zeros of {family.label} degree {n} are not simple: "
                    f"{mp.nstr(u, 12)} vs {mp.nstr(v, 12)}"
                )
            scale = max(unit, abs(u), abs(v))
            if gap <= policy.abs_tol * scale:
                raise ValueError(
                    f"abs_tol {mp.nstr(policy.abs_tol, 6)} is at least the gap {mp.nstr(gap / scale, 6)} "
                    f"between two zeros of {family.label} degree {n}, relative to {mp.nstr(scale, 6)}"
                )
        return zs


def gauss_rule(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY):
    """Gauss nodes and weights for the family's weight, total mass normalised to 1.

    Weights come from the Christoffel function: w_i is the reciprocal of
    sum_j p_j(x_i)^2 / h_j over j < n with h_j the squared norms, which
    equals the squared-first-eigenvector-component formula without forming
    eigenvectors.
    """
    if n < 1:
        raise ValueError("Gauss rule needs n >= 1")
    nodes = zeros_golub_welsch(family, n, policy)
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        h = [mp.mpf(1)]
        for j in range(2, n + 1):
            h.append(h[-1] * L[j])
        weights = []
        for x in nodes.values:
            p_prev, p = mp.mpf(0), mp.mpf(1)  # p_{-1}, p_0
            denom = mp.mpf(1)  # j = 0 term
            for j in range(1, n):
                p, p_prev = (x - C[j]) * p - L[j] * p_prev, p
                denom += p * p / h[j]
            weights.append(1 / denom)
        total = sum(weights)
        weights = [w / total for w in weights]
        return nodes, tuple(weights)


def _local_gap(sorted_vals, idx) -> mp.mpf:
    gaps = []
    if idx > 0:
        gaps.append(sorted_vals[idx] - sorted_vals[idx - 1])
    if idx + 1 < len(sorted_vals):
        gaps.append(sorted_vals[idx + 1] - sorted_vals[idx])
    return min(gaps) if gaps else mp.mpf(1)


def _is_zero(value, slope, x, policy) -> bool:
    """x is a zero at tolerance: the Newton step |value/slope| is within abs_tol * max(1, |x|)."""
    return abs(value) <= policy.abs_tol * max(1, abs(x)) * abs(slope)


def interlace_strict(q, degree: int, outer, policy: TolerancePolicy = DEFAULT_POLICY) -> InterlaceVerdict:
    """Whether the zeros of q strictly interlace the ascending zeros in ``outer``.

    ``q`` maps x to (q(x), q'(x)).  A q of degree len(outer) - 1 interlaces
    exactly when q(x_i) q(x_{i+1}) < 0 for every i (Markov's sign argument
    and its converse, Wendroff 1961); for any other degree the signs prove
    nothing, so that raises ``ValueError``.  Outer zeros that are zeros of q
    at tolerance are reported in ``common`` and make the verdict non-strict.
    """
    xs = tuple(sorted(to_scalar(v) for v in outer))
    if degree != len(xs) - 1:
        raise ValueError(f"q must have degree {len(xs) - 1} to interlace {len(xs)} zeros, got {degree}")
    with policy.workprec():
        vals = [q(x) for x in xs]
        common = tuple(x for x, (v, d) in zip(xs, vals) if _is_zero(v, d, x, policy))
        alternates = all(u * w < 0 for (u, _), (w, _) in zip(vals, vals[1:]))
        return InterlaceVerdict(strict=alternates and not common, common=common)


def inner_bound(family: RecurrenceFamily, n: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Inner bound B_n(k) for the extreme zeros of p_n, k in {0, 1, 2}, in closed form.

    The parameters were checked when the family was built; the degree is
    checked against its validity range, which is Pseudo-Jacobi's a < -n.
    """
    if k not in (0, 1, 2):
        raise ValueError("bound order k must be 0, 1 or 2")
    if n < 1:
        raise ValueError("bound needs n >= 1")
    family.require_degree(n)
    with policy.workprec():
        if family.kind == MEIXNER_POLLACZEK:
            lam, cot = family.params["lambda"], _snapped_cot(family.params["phi"])
            if k == 0:
                return -(lam + n - 1) * cot
            if k == 1:
                return -lam * cot
            return -lam * (lam + 1) / (lam + n) * cot
        if family.kind == PSEUDO_JACOBI:
            a, b = family.params["a"], family.params["b"]
            if k == 0:
                return -a * b / ((a + n) * (a + n - 1))
            if k == 1:
                return -b / (a + n)
            return -b / (a + 1)
    raise ValueError(f"no closed-form bounds for {family.label}")


def bound_separation(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> BoundReport:
    """All three bounds, the extreme zeros, separation flags and the ordering check.

    Ordering: Meixner-Pollaczek has B(0) < B(1) < B(2) for phi < pi/2 and the
    reverse for phi > pi/2 (all zero at pi/2); Pseudo-Jacobi has
    B(2) < B(1) < B(0) for b > 0, the reverse for b < 0, all zero at b = 0.
    """
    if n < 2:
        raise ValueError("bound separation needs n >= 2")
    with policy.workprec():
        bounds = {k: inner_bound(family, n, k, policy) for k in (0, 1, 2)}
        zs = zeros_golub_welsch(family, n, policy)
        x_min, x_max = zs[0], zs[-1]
        separated = {k: bool(x_min < bounds[k] < x_max) for k in (0, 1, 2)}
        # direction > 0 means B(0) < B(1) < B(2).  cot > 0 pushes MP bounds
        # negative with B(0) lowest; b > 0 puts PJ bounds positive with B(0)
        # highest, hence the sign flip.  At direction 0 all bounds are 0.
        if family.kind == MEIXNER_POLLACZEK:
            direction = _snapped_cot(family.params["phi"])
        else:
            direction = -family.params["b"]
        if direction == 0:
            ordering = all(bounds[k] == 0 for k in (0, 1, 2))
        else:
            lo, mid, hi = (0, 1, 2) if direction > 0 else (2, 1, 0)
            ordering = bounds[lo] < bounds[mid] < bounds[hi]
        return BoundReport(
            n=n,
            bounds=bounds,
            x_min=x_min,
            x_max=x_max,
            separated=separated,
            ordering_ok=bool(ordering),
            label=family.label,
        )


def stieltjes_check(family: RecurrenceFamily, k: int, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> StieltjesVerdict:
    """Gap-2 Stieltjes interlacing checks between p_n and the order-k modified g_{n-2}.

    Co-prime branch: the n-1 zeros of (x - B_n(k)) g_{n-2,k} must interlace
    the n zeros of p_n, with B_n(k) strictly inside the extreme zeros.
    Common-zero branch: exactly one shared zero, equal to B_n(k), interior;
    the n-2 zeros of g interlace the n-1 non-common zeros of p_n.

    g is evaluated at the zeros of p_n through its recurrence; common zeros
    and both interlacing claims are read off those values, so no zero of g
    is solved for.
    """
    if k not in (0, 1, 2):
        raise ValueError("modifier order k must be 0, 1 or 2 for the gap-2 check")
    if n < 2:
        raise ValueError("check needs n >= 2")
    shifted = family.shifted(k)
    with policy.workprec():
        bound = inner_bound(family, n, k, policy)
        zp = zeros_golub_welsch(family, n, policy)
        g_at = {x: eval_with_derivative(shifted, n - 2, x, policy) for x in zp.values}
        shared = [j for j, x in enumerate(zp.values) if _is_zero(*g_at[x], x, policy)]
        common = tuple(zp[j] for j in shared)
        violations = []
        if not shared:
            branch = "coprime"
            g_bound, dg_bound = eval_with_derivative(shifted, n - 2, bound, policy)
            if _is_zero(g_bound, dg_bound, bound, policy):
                violations.append("bound coincides with a zero of the modified polynomial")

            def q(x):  # (x - B) g and its derivative
                v, d = g_at[x]
                return (x - bound) * v, v + (x - bound) * d

            verdict = interlace_strict(q, n - 1, zp, policy)
            if verdict.common:
                violations.append(
                    f"common zeros detected between (x-B) g and p_n at {verdict.common}"
                )
            elif not verdict.strict:
                violations.append("zeros of (x-B) g do not interlace the zeros of p_n")
        else:
            branch = "common_zero"
            if len(shared) != 1:
                violations.append(f"expected exactly one common zero, found {len(shared)}")
            for j in shared:
                thr = policy.abs_tol * max(1, _local_gap(zp.values, j))
                if abs(zp[j] - bound) > thr:
                    violations.append(
                        f"common zero {mp.nstr(zp[j], 10)} differs from bound {mp.nstr(bound, 10)}"
                    )
                if j in (0, n - 1):
                    violations.append(f"common zero is an extreme zero of p_n (index {j})")
            if len(shared) == 1:
                rest = tuple(x for x in zp.values if x not in common)
                if not interlace_strict(g_at.__getitem__, n - 2, rest, policy).strict:
                    violations.append("zeros of g do not interlace the non-common zeros of p_n")
        if not zp[0] < bound < zp[-1]:
            violations.append("bound is not strictly inside the extreme zeros")
        return StieltjesVerdict(
            label=family.label,
            n=n,
            k=k,
            branch=branch,
            bound=bound,
            ok=not violations,
            common=common,
            violations=tuple(violations),
        )


def polynomial_real_roots(p: Polynomial, policy: TolerancePolicy = DEFAULT_POLICY):
    """(sorted real roots, number of nonreal roots) of a small dense polynomial.

    General-purpose root finder for the connection coefficient G, whose roots
    carry no orthogonality structure; degrees here stay below ~15.  Roots that
    do not converge in 200 steps raise ``ArithmeticError``.
    """
    if p.degree < 1:
        return [], 0
    with policy.workprec():
        try:
            roots = mp.polyroots(list(reversed(p.coeffs)), maxsteps=200, extraprec=policy.precision_bits)
        except mp.NoConvergence:
            raise ArithmeticError(f"root finding on a degree-{p.degree} polynomial did not converge") from None
        real = []
        nonreal = 0
        for z in roots:
            z = mp.mpc(z)
            if abs(z.imag) <= policy.abs_tol * max(1, abs(z)):
                real.append(z.real)
            else:
                nonreal += 1
        real.sort()
        return real, nonreal
