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
    pochhammer,
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
from .transform import (
    ConnectionDecomposition,
    DegenerateTransformError,
    DegreeLaw,
    christoffel_transform,
    connection_decompose,
    connection_degree_law,
    modified_polynomial,
)
from .zeros import (
    BoundReport,
    InterlaceVerdict,
    StieltjesVerdict,
    ZeroSet,
    bound_separation,
    gauss_rule,
    inner_bound,
    interlace_strict,
    polynomial_real_roots,
    stieltjes_check,
    zeros_golub_welsch,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_POLICY",
    "NonFiniteError",
    "Polynomial",
    "RemainderError",
    "TolerancePolicy",
    "pochhammer",
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
    "christoffel_transform",
    "connection_decompose",
    "connection_degree_law",
    "modified_polynomial",
    "BoundReport",
    "InterlaceVerdict",
    "StieltjesVerdict",
    "ZeroSet",
    "bound_separation",
    "gauss_rule",
    "inner_bound",
    "interlace_strict",
    "polynomial_real_roots",
    "stieltjes_check",
    "zeros_golub_welsch",
    "__version__",
]
