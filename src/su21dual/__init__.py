"""Exact truncated (g,K)-modules of SU(2,1) and their unitary dual.

Everything is computed in exact rational (or Gaussian rational)
arithmetic: module construction, brute-force verification of all algebra
relations, the product-sign unitarity criterion, and the classification of
parameters into the irreducible unitary families.
"""

from .algebra import AlgebraElement, Generator, bracket, real_form_basis
from .builder import BasisIndex, TruncatedModule, build, support_of
from .classify import (
    ClassificationRecord,
    c_special,
    c_threshold,
    classify,
    embed_W,
    enumerate_dual,
    parse_label,
)
from .coefficients import (
    ConeParams,
    EdgeProducts,
    TransitionCoeffs,
    VertexParams,
    products,
    transition_coeffs,
)
from .errors import (
    DegenerateInput,
    EmptyTruncation,
    InvalidBasisIndex,
    InvalidParameter,
    Su21Error,
)
from .lattice import ConeCoord, KType, Region, coord_above
from .scalars import (
    GaussianRational,
    parse_rational,
    parse_scalar,
    render_rational,
    render_scalar,
)
from .sl2 import (
    Parity,
    Sl2Classification,
    Sl2Kind,
    Sl2Params,
    sl2_classify,
    sl2_coeffs,
)
from .unitarity import (
    NormTable,
    UnitarityVerdict,
    build_norms,
    check_adjoint,
    is_unitary,
    su2_norms,
)
from .verify import VerificationReport, check_coefficient_relations, check_commutators

__all__ = [
    "AlgebraElement",
    "BasisIndex",
    "ClassificationRecord",
    "ConeCoord",
    "ConeParams",
    "DegenerateInput",
    "EdgeProducts",
    "EmptyTruncation",
    "GaussianRational",
    "Generator",
    "InvalidBasisIndex",
    "InvalidParameter",
    "KType",
    "NormTable",
    "Parity",
    "Region",
    "Sl2Classification",
    "Sl2Kind",
    "Sl2Params",
    "Su21Error",
    "TransitionCoeffs",
    "TruncatedModule",
    "UnitarityVerdict",
    "VerificationReport",
    "VertexParams",
    "bracket",
    "build",
    "build_norms",
    "c_special",
    "c_threshold",
    "check_adjoint",
    "check_coefficient_relations",
    "check_commutators",
    "classify",
    "coord_above",
    "embed_W",
    "enumerate_dual",
    "is_unitary",
    "parse_label",
    "parse_rational",
    "parse_scalar",
    "products",
    "real_form_basis",
    "render_rational",
    "render_scalar",
    "sl2_classify",
    "sl2_coeffs",
    "su2_norms",
    "support_of",
    "transition_coeffs",
]
