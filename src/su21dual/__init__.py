"""Exact truncated (g,K)-modules of SU(2,1) and their unitary dual.

Everything is computed in exact rational (or Gaussian rational)
arithmetic: module construction, brute-force verification of all algebra
relations, the product-sign unitarity criterion, and the classification of
parameters into the irreducible unitary families.

Importing the package loads none of its modules: each exported name is
imported from its module on first use, so a process pays only for what it
calls.  No exported name is also the name of a module.
"""

import importlib

_EXPORTS = {
    "adjoint": ("check_adjoint",),
    "algebra": ("Generator", "real_form_basis"),
    "builder": ("BasisIndex", "TruncatedModule", "build"),
    "coefficients": (
        "ConeParams",
        "EdgeProducts",
        "TransitionCoeffs",
        "VertexParams",
        "products",
        "support_of",
        "transition_coeffs",
    ),
    "dual": (
        "ClassificationRecord",
        "c_special",
        "c_threshold",
        "classify",
        "enumerate_dual",
        "parse_label",
    ),
    "errors": (
        "DegenerateInput",
        "EmptyTruncation",
        "InvalidBasisIndex",
        "InvalidParameter",
        "Su21Error",
    ),
    "lattice": ("ConeCoord", "KType", "Region", "coord_above"),
    "scalars": (
        "GaussianRational",
        "parse_rational",
        "parse_scalar",
        "render_rational",
        "render_scalar",
    ),
    "sl2": ("Parity", "Sl2Classification", "Sl2Kind", "Sl2Params", "sl2_classify"),
    "unitarity": (
        "NormTable",
        "UnitarityVerdict",
        "build_norms",
        "document_norms",
        "is_unitary",
    ),
    "verify": (
        "VerificationReport",
        "check_coefficient_relations",
        "check_commutators",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
