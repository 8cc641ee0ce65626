"""Multi-graded Groebner bases and dimension polynomials over Weyl algebras."""

from .errors import (
    ConvergenceError,
    InputError,
    VerificationError,
    WeylDimError,
    ZeroElementError,
)
from .weyl import (
    ExponentPair,
    Partition,
    monomial_orders,
    weyl_dimension,
)
from .terms import (
    GammaTerm,
    ModuleElement,
    Term,
    leader,
    rho,
)
from .groebner import (
    GroebnerBasis,
    complete_basis,
    is_groebner,
    membership,
    multi_reduce,
    s_element,
)
from .numpoly import (
    IndexSet,
    InvariantReport,
    NumericalPolynomial,
    interpolate,
    invariant_set,
    minimize,
    omega,
)
from .engine import (
    BernsteinReport,
    DimensionReport,
    Presentation,
    bernstein_inequality_check,
    bernstein_polynomial,
    count_grid,
    count_UVW,
    dimension_polynomial,
)
from .oracle import RankOracle

__version__ = "0.1.0"

__all__ = [
    "BernsteinReport",
    "ConvergenceError",
    "DimensionReport",
    "ExponentPair",
    "GammaTerm",
    "GroebnerBasis",
    "IndexSet",
    "InputError",
    "InvariantReport",
    "ModuleElement",
    "NumericalPolynomial",
    "Partition",
    "Presentation",
    "RankOracle",
    "Term",
    "VerificationError",
    "WeylDimError",
    "ZeroElementError",
    "bernstein_inequality_check",
    "bernstein_polynomial",
    "complete_basis",
    "count_grid",
    "count_UVW",
    "dimension_polynomial",
    "interpolate",
    "invariant_set",
    "is_groebner",
    "leader",
    "membership",
    "minimize",
    "monomial_orders",
    "multi_reduce",
    "omega",
    "rho",
    "s_element",
    "weyl_dimension",
]
