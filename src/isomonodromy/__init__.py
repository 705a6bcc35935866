"""Monodromy data of rank-1 irregular systems dY/dz = (Lambda + A/z) Y.

The package works on the Fuchsian side: local solutions of the Laplace-dual
system (Lambda - lam) dPsi/dlam = (A + I) Psi are built as Frobenius series,
continued numerically in the cut lambda-plane, and transformed back by
contour quadrature.  Connection coefficients of the local solutions assemble
the Stokes matrices in closed form; an independent sectorial-matching oracle
cross-checks them.  Schlesinger transport moves the whole picture around a
polydisc containing a coalescence point of the eigenvalues.

The public names are resolved on first access, so importing the package
(or its command line) loads no submodule; each name brings in its own
submodule and whatever that imports.  No submodule imports scipy.
"""

import importlib

# public name -> defining submodule; a name loads its submodule on first access
_EXPORTS = {
    "CutPlane": "model",
    "DeformationGeometry": "model",
    "NonAdmissibleError": "model",
    "Ordering": "model",
    "SystemPair": "model",
    "is_in_cell": "model",
    "sector_bounds": "model",
    "stokes_ray_directions": "model",
    "LocalSolution": "frobenius",
    "gamma_shift": "frobenius",
    "levelt_at_confluence": "frobenius",
    "selected_solution": "frobenius",
    "selected_solutions": "frobenius",
    "FormalSolution": "laplace",
    "asymptotic_coeffs": "laplace",
    "formal_recursion": "laplace",
    "ConnectionData": "continuation",
    "connection_coefficients": "continuation",
    "monodromy_matrix": "continuation",
    "StokesPair": "stokes",
    "stokes_from_connection": "stokes",
    "stokes_pipeline": "stokes",
    "stokes_pair_direct": "stokes",
    "DeformationState": "deformation",
    "integrability_residual": "deformation",
    "transport": "deformation",
    "vanishing_check": "deformation",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    """Resolve an exported name from its submodule (PEP 562).

    The result is not stored in this namespace, so a function swapped in
    place on its submodule is what every later access sees.
    """
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
