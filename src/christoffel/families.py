"""Orthogonal polynomial families defined by their three-term recurrences.

A family is the pair of coefficient maps C(n), Lambda(n) in the monic
recurrence

    p_n(x) = (x - C(n)) p_{n-1}(x) - Lambda(n) p_{n-2}(x),   p_0 = 1,

together with a validity range.  Lambda(n) > 0 over the whole range is what
makes the sequence orthogonal with respect to a positive weight, hence real
simple zeros and a symmetric Jacobi matrix.

Built-in families:

* Meixner-Pollaczek, parameters lambda > 0 and 0 < phi < pi:
      C(n) = -(lambda + n - 1) cot(phi)
      Lambda(n) = (n - 1)(2 lambda + n - 2) / (4 sin(phi)^2)
  valid for every degree.

* Pseudo-Jacobi, parameters a, b with a < -2:
      C(n) = -a b / ((a + n - 1)(a + n))
      Lambda(n) = -(n-1)(2a + n - 1)((a + n - 1)^2 + b^2)
                  / ((a + n - 1)^2 (4 (a + n - 1)^2 - 1))
  valid for degrees n with a < -n only.

Both support the canonical even weight modification: multiplying the weight
by the even polynomial ``c_{2k}`` produced by :func:`even_modifier` shifts
the family parameter (lambda -> lambda + k, a -> a + k), which is the cheap
independent route to the modified polynomials used as an oracle for the
determinant-based Christoffel transform.

Everything derived from a recurrence (coefficient arrays, ladder, zeros,
associated sequences, shifted families, canonical modifiers) is built on
first request and kept by the family, in :meth:`RecurrenceFamily.owned`;
dropping the last reference to a family frees all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_add, mpf_mul, mpf_sub, round_nearest

from .core import DEFAULT_POLICY, Polynomial, TolerancePolicy, relative_residual, to_scalar

MEIXNER_POLLACZEK = "meixner_pollaczek"
PSEUDO_JACOBI = "pseudo_jacobi"
CUSTOM = "custom"


def _snapped_cot(phi):
    """cos(phi)/sin(phi), snapped to exactly 0 when phi is pi/2 to working precision.

    Computed as a quotient of cos and sin, never 1/tan: tan blows up at pi/2
    while cot is finite there, and phi = 1.57 sits right next to the pole.
    """
    c = mp.cos(phi)
    if abs(c) <= mp.ldexp(1, -mp.prec + 4):
        return mp.mpf(0)
    return c / mp.sin(phi)


@dataclass(frozen=True, eq=False)
class RecurrenceFamily:
    """Recurrence coefficient provider plus parameter record and validity range.

    ``max_valid_degree`` is None for an unbounded family.  Instances are
    immutable and compared by identity.  Everything derived from the
    recurrence lives in a private store, filled through :meth:`owned` and
    freed together with the family.
    """

    kind: str
    params: Mapping[str, mp.mpf]
    C: Callable[[int], mp.mpf]
    Lambda: Callable[[int], mp.mpf]
    max_valid_degree: Optional[int]
    label: str
    precision_bits: int = 256
    _store: dict = field(default_factory=dict, init=False, repr=False)

    def owned(self, key, build: Callable[[], object]):
        """The value kept under ``key``: ``build()`` on the first request, then the same object."""
        try:
            return self._store[key]
        except KeyError:
            value = self._store[key] = build()
            return value

    def recurrence(self, n: int, prec: int) -> tuple:
        """C(j) and Lambda(j) at ``prec`` bits as shared, read-only lists indexed by degree.

        C[0], Lambda[0] and Lambda[1] are 0.  Extended lazily, never past n: beyond
        the validity range the maps may be undefined (PJ Lambda divides by zero).
        This is where the maps' values enter, so each is checked once, here:
        C(j) finite and Lambda(j) positive and finite, ``ValueError`` otherwise.
        """
        C, L = self.owned(("recurrence", prec), lambda: ([mp.mpf(0)], [mp.mpf(0)]))
        with mp.workprec(prec):
            for j in range(len(C), n + 1):
                c, v = self.C(j), (self.Lambda(j) if j > 1 else mp.mpf(0))
                if not mp.isfinite(c):
                    raise ValueError(f"C({j}) = {mp.nstr(c, 8)} is not finite for {self.label}")
                if j > 1 and not 0 < v < mp.inf:
                    raise ValueError(
                        f"Lambda({j}) = {mp.nstr(v, 8)} is not positive and finite for {self.label}; "
                        "the recurrence is outside the orthogonality range"
                    )
                C.append(c)
                L.append(v)
        return C, L

    def require_degree(self, n: int):
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if self.max_valid_degree is not None and n > self.max_valid_degree:
            raise ValueError(
                f"degree {n} exceeds the validity range of {self.label} "
                f"(max valid degree {self.max_valid_degree})"
            )

    @property
    def supports_shift(self) -> bool:
        return self.kind in (MEIXNER_POLLACZEK, PSEUDO_JACOBI)

    def shifted(self, k: int) -> "RecurrenceFamily":
        """The family orthogonal with respect to c_{2k}(x) w(x), via parameter shift (kept).

        c_0 = 1, so ``shifted(0)`` is the family itself, not stored: a family
        that stored itself would be a reference cycle, left to the collector.
        """
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self

        def build() -> "RecurrenceFamily":
            # the parameter sum must round at the family's precision, not at
            # whatever ambient precision the caller happens to be running under
            policy = TolerancePolicy(precision_bits=self.precision_bits)
            with policy.workprec():
                if self.kind == MEIXNER_POLLACZEK:
                    return mp_family(self.params["lambda"] + k, self.params["phi"], policy)
                if self.kind == PSEUDO_JACOBI:
                    return pj_family(self.params["a"] + k, self.params["b"], policy)
            raise ValueError(f"{self.label} has no canonical parameter shift")

        return self.owned(("shifted", k), build)


def mp_family(lam, phi, policy: TolerancePolicy = DEFAULT_POLICY) -> RecurrenceFamily:
    """Monic Meixner-Pollaczek family, lambda > 0, 0 < phi < pi (open interval)."""
    with policy.workprec():
        lam = to_scalar(lam)
        phi = to_scalar(phi)
        if not 0 < lam < mp.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        if not (0 < phi < mp.pi):
            raise ValueError(f"phi must lie strictly in (0, pi), got {phi}")
        cot = _snapped_cot(phi)
        inv_four_sin2 = 1 / (4 * mp.sin(phi) ** 2)

    def C(n: int):
        return -(lam + n - 1) * cot

    def Lambda(n: int):
        return (n - 1) * (2 * lam + n - 2) * inv_four_sin2

    return RecurrenceFamily(
        kind=MEIXNER_POLLACZEK,
        params={"lambda": lam, "phi": phi},
        C=C,
        Lambda=Lambda,
        max_valid_degree=None,
        label=f"MP(lambda={mp.nstr(lam, 10)}, phi={mp.nstr(phi, 10)})",
        precision_bits=policy.precision_bits,
    )


def pj_family(a, b, policy: TolerancePolicy = DEFAULT_POLICY) -> RecurrenceFamily:
    """Monic Pseudo-Jacobi family, valid for degrees n with a < -n (strict)."""
    with policy.workprec():
        a = to_scalar(a)
        b = to_scalar(b)
        if not -mp.inf < a < -2:
            raise ValueError(f"parameter a must be finite and satisfy a < -2, got {a}")
        if not mp.isfinite(b):
            raise ValueError(f"parameter b must be finite, got {b}")
        nmax = int(mp.floor(-a))
        if mp.mpf(nmax) == -a:
            nmax -= 1

    def C(n: int):
        return -a * b / ((a + n - 1) * (a + n))

    def Lambda(n: int):
        an1 = a + n - 1
        return -(n - 1) * (2 * a + n - 1) * (an1 * an1 + b * b) / (an1 * an1 * (4 * an1 * an1 - 1))

    return RecurrenceFamily(
        kind=PSEUDO_JACOBI,
        params={"a": a, "b": b},
        C=C,
        Lambda=Lambda,
        max_valid_degree=nmax,
        label=f"PJ(a={mp.nstr(a, 10)}, b={mp.nstr(b, 10)})",
        precision_bits=policy.precision_bits,
    )


def custom_family(
    C: Callable[[int], mp.mpf],
    Lambda: Callable[[int], mp.mpf],
    max_valid_degree: Optional[int] = None,
    label: str = "custom",
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> RecurrenceFamily:
    return RecurrenceFamily(
        kind=CUSTOM,
        params={},
        C=C,
        Lambda=Lambda,
        max_valid_degree=max_valid_degree,
        label=label,
        precision_bits=policy.precision_bits,
    )


def _ladder(family: RecurrenceFamily, n: int, prec: int) -> tuple:
    """p_0, ..., p_n at ``prec`` bits, built by a loop and kept by the family."""
    polys = family.owned(("ladder", prec), lambda: [Polynomial([1])])
    if len(polys) <= n:
        C, L = family.recurrence(n, prec)
        with mp.workprec(prec):
            while len(polys) <= n:
                j = len(polys)
                head = Polynomial._of([-C[j], mp.mpf(1)])  # x - C(j); C was checked by recurrence
                polys.append(head if j == 1 else head * polys[j - 1] - polys[j - 2]._scaled(L[j]))
    return tuple(polys[: n + 1])


def generate(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> Polynomial:
    """Monic degree-n polynomial of the family, built by iterating the recurrence."""
    family.require_degree(n)
    return _ladder(family, n, policy.precision_bits)[n]


def generate_all(family: RecurrenceFamily, n: int, policy: TolerancePolicy = DEFAULT_POLICY) -> list:
    """The whole ladder p_0, ..., p_n (cached; cheap to call repeatedly)."""
    family.require_degree(n)
    return list(_ladder(family, n, policy.precision_bits))


def values_ladder(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> list:
    """[(p_j(x), p_j'(x)) for j = 0..n], one sweep of the recurrence, without forming coefficients.

    The recurrence evaluation is far better conditioned than Horner on monic
    coefficients at n = 30, which is what the Newton polish in the zero
    solver relies on.  Row j is the same bits whatever n the sweep runs to.
    """
    family.require_degree(n)
    C, L = family.recurrence(n, policy.precision_bits)
    with policy.workprec():
        # raw libmp values: the calls mpf's -, * and + make, in the same order
        prec, rnd, make = mp.prec, round_nearest, mp.make_mpf
        x = to_scalar(x)._mpf_
        p, p_prev = fone, fzero  # p_0, p_{-1}
        d, d_prev = fzero, fzero
        rows = [(make(p), make(d))]
        for j in range(1, n + 1):
            xc = mpf_sub(x, C[j]._mpf_, prec, rnd)
            lj = L[j]._mpf_
            # order matters: the derivative update reads p_prev after the
            # value update, when it already holds p_{j-1}
            p, p_prev = mpf_sub(mpf_mul(xc, p, prec, rnd), mpf_mul(lj, p_prev, prec, rnd), prec, rnd), p
            d, d_prev = mpf_sub(
                mpf_add(p_prev, mpf_mul(xc, d, prec, rnd), prec, rnd), mpf_mul(lj, d_prev, prec, rnd), prec, rnd
            ), d
            rows.append((make(p), make(d)))
        return rows


def eval_with_derivative(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY):
    """(p_n(x), p_n'(x)): the last row of :func:`values_ladder`."""
    return values_ladder(family, n, x, policy)[n]


@dataclass(frozen=True, init=False)
class ModifierSpec:
    """The even monic polynomial c_{2k}(x) = prod (x^2 - x_i^2), given by its nodes.

    ``nodes`` holds x_1, ..., x_k, one per zero pair +-x_i of c; for the
    built-in families they are purely imaginary.  ``c`` is built from them and
    k is their number, so a modifier is checked once, here: each node must
    give real coefficients (purely imaginary or purely real nodes do).  Any
    multiset of nodes is a modifier: a node repeated, repeated up to sign, or
    the node 0 is a zero of c with multiplicity, which the determinant
    transform takes with confluent rows, the derivatives p^{(s)} at that zero
    (Szego, Orthogonal Polynomials, Thm 2.5).
    """

    nodes: tuple
    c: Polynomial

    def __init__(self, nodes=(), policy: TolerancePolicy = DEFAULT_POLICY):
        with policy.workprec():
            c = Polynomial([1])
            clean = []
            for z in nodes:
                z = mp.mpc(z)
                z2 = z * z
                if abs(z2.imag) > policy.abs_tol * max(1, abs(z2)):
                    raise ValueError(f"node {z} would give a non-real modifier polynomial")
                c = c * Polynomial([-z2.real, 0, 1])
                clean.append(z)
        object.__setattr__(self, "nodes", tuple(clean))
        object.__setattr__(self, "c", c)

    @property
    def k(self) -> int:
        return len(self.nodes)


def even_modifier(family: RecurrenceFamily, k: int, policy: TolerancePolicy = DEFAULT_POLICY) -> ModifierSpec:
    """The canonical even modifier of order k for the family, kept per (k, policy).

    Meixner-Pollaczek: c = prod_{j<k} ((lambda+j)^2 + x^2), nodes i(lambda+j).
    Pseudo-Jacobi: c = (1+x^2)^k, the node i repeated k times, so +-i are
    zeros of multiplicity k; the determinant transform takes them with the
    confluent rows p^{(s)}(+-i), s < k (Szego, Thm 2.5), and agrees with the
    parameter shift a -> a + k.
    """
    if k < 0:  # [i] * k would silently give the order-0 modifier
        raise ValueError("modifier order k must be nonnegative")

    def build() -> ModifierSpec:
        with policy.workprec():
            if k == 0:
                return ModifierSpec((), policy)
            if family.kind == MEIXNER_POLLACZEK:
                lam = family.params["lambda"]
                return ModifierSpec([mp.mpc(0, lam + j) for j in range(k)], policy)
            if family.kind == PSEUDO_JACOBI:
                return ModifierSpec([mp.mpc(0, 1)] * k, policy)
            raise ValueError(f"{family.label} has no canonical even modifier")

    return family.owned(("even_modifier", k, policy), build)


def recurrence_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative residual of the three-term recurrence at a point, degrees >= 2."""
    if n < 2:
        raise ValueError("recurrence residual needs n >= 2")
    family.require_degree(n)
    with policy.workprec():
        x = to_scalar(x)
        ladder = _ladder(family, n, policy.precision_bits)
        C, L = family.recurrence(n, policy.precision_bits)
        t1 = ladder[n](x)
        t2 = (x - C[n]) * ladder[n - 1](x)
        t3 = L[n] * ladder[n - 2](x)
        return relative_residual(t1 - t2 + t3, (t1, t2, t3))


def mp_symmetry_residual(family: RecurrenceFamily, n: int, x, policy: TolerancePolicy = DEFAULT_POLICY) -> mp.mpf:
    """Relative defect of P_n(x; phi) = (-1)^n P_n(-x; -phi) for a Meixner-Pollaczek family."""
    if family.kind != MEIXNER_POLLACZEK:
        raise ValueError(f"the phi -> -phi symmetry holds for Meixner-Pollaczek families, not {family.label}")
    # phi -> -phi flips the sign of C and leaves Lambda unchanged, so the
    # mirrored recurrence is legal even though -phi itself is not; the
    # negation is exact, so the mirror matches a closed form bit for bit.  The
    # mirror holds C, not the family, so keeping it makes no reference cycle.
    C = family.C
    mirror = family.owned(
        "mirror", lambda: custom_family(lambda j: -C(j), family.Lambda, label=f"mirror of {family.label}", policy=policy)
    )
    with policy.workprec():
        x = to_scalar(x)
        lhs = generate(family, n, policy)(x)
        rhs = generate(mirror, n, policy)(-x)
        if n % 2:
            rhs = -rhs
        return relative_residual(lhs - rhs, (lhs, rhs))
