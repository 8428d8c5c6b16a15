"""Connection formulas and zero bounds for orthogonal polynomials under even weight modifications.

High-precision (mpmath-backed) generation of monic orthogonal polynomial
families from three-term recurrences, associated polynomials, Christoffel
transforms for even weight modifiers, connection decompositions with their
degree law, zero computation via Jacobi matrices, interlacing verification
and inner bounds for extreme zeros.
"""

from .core import (
    DEFAULT_POLICY,
    NonFiniteError,
    Polynomial,
    RemainderError,
    TolerancePolicy,
    to_scalar,
)
from .families import (
    ModifierSpec,
    RecurrenceFamily,
    custom_family,
    even_modifier,
    eval_with_derivative,
    generate,
    generate_all,
    mp_family,
    mp_symmetry_residual,
    pj_family,
    recurrence_residual,
)
from .associated import (
    associated,
    associated_identity_residual,
    extension_identity_residual,
)
from .zeros import (
    BoundReport,
    CellVerdict,
    InterlaceVerdict,
    StieltjesVerdict,
    ZeroSet,
    bound_separation,
    cell_verdict,
    gauss_orthogonality,
    gauss_rule,
    inner_bound,
    interlace_strict,
    modified_orthogonality,
    polynomial_real_roots,
    stieltjes_check,
    zeros_golub_welsch,
)

__version__ = "0.1.0"

# The connection layer loads on first use (PEP 562): zero solving, bounds and Gauss rules never read it.  associated
# stays eager, since importing that submodule later would rebind the package's ``associated`` to the module.
_TRANSFORM = frozenset(
    {
        "ConnectionDecomposition",
        "DegenerateTransformError",
        "DegreeLaw",
        "canonical_decompose",
        "christoffel_transform",
        "connection_decompose",
        "connection_degree_law",
        "modified_polynomial",
    }
)


def __getattr__(name: str):
    if name in _TRANSFORM:
        from . import transform

        return getattr(transform, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})

__all__ = [
    "DEFAULT_POLICY",
    "NonFiniteError",
    "Polynomial",
    "RemainderError",
    "TolerancePolicy",
    "to_scalar",
    "ModifierSpec",
    "RecurrenceFamily",
    "custom_family",
    "even_modifier",
    "eval_with_derivative",
    "generate",
    "generate_all",
    "mp_family",
    "mp_symmetry_residual",
    "pj_family",
    "recurrence_residual",
    "associated",
    "associated_identity_residual",
    "extension_identity_residual",
    "ConnectionDecomposition",
    "DegenerateTransformError",
    "DegreeLaw",
    "canonical_decompose",
    "christoffel_transform",
    "connection_decompose",
    "connection_degree_law",
    "modified_polynomial",
    "BoundReport",
    "CellVerdict",
    "InterlaceVerdict",
    "StieltjesVerdict",
    "ZeroSet",
    "bound_separation",
    "cell_verdict",
    "gauss_orthogonality",
    "gauss_rule",
    "inner_bound",
    "interlace_strict",
    "modified_orthogonality",
    "polynomial_real_roots",
    "stieltjes_check",
    "zeros_golub_welsch",
    "__version__",
]
