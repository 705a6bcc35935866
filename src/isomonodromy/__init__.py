"""Monodromy data of rank-1 irregular systems dY/dz = (Lambda + A/z) Y.

The package works on the Fuchsian side: local solutions of the Laplace-dual
system (Lambda - lam) dPsi/dlam = (A + I) Psi are built as Frobenius series,
continued numerically in the cut lambda-plane, and transformed back by
contour quadrature.  Connection coefficients of the local solutions assemble
the Stokes matrices in closed form; an independent sectorial-matching oracle
cross-checks them.  Schlesinger transport moves the whole picture around a
polydisc containing a coalescence point of the eigenvalues.
"""

from .model import (
    CutPlane,
    DeformationGeometry,
    NonAdmissibleError,
    SystemPair,
    is_in_cell,
    label_rays,
    sector_bounds,
    stokes_ray_directions,
)
from .frobenius import (
    FuchsianSystem,
    LocalSolution,
    build_fuchsian,
    gamma_shift,
    levelt_at_confluence,
    selected_solution,
    singular_solution,
)
from .laplace import (
    FormalSolution,
    asymptotic_coeffs,
    asymptotic_fit,
    f1,
    formal_recursion,
    laplace_column,
)
from .continuation import (
    ConnectionData,
    connection_coefficients,
    continue_solution,
    monodromy_matrix,
)
from .stokes import (
    Ordering,
    StokesPair,
    stokes_direct,
    stokes_from_connection,
    stokes_generate,
)
from .deformation import (
    DeformationState,
    integrability_residual,
    jordan_reduce_Bj,
    omega,
    schlesinger_rhs,
    transport,
    vanishing_check,
    verify_connection_constancy,
)

__all__ = [
    "CutPlane",
    "DeformationGeometry",
    "NonAdmissibleError",
    "SystemPair",
    "is_in_cell",
    "label_rays",
    "sector_bounds",
    "stokes_ray_directions",
    "FuchsianSystem",
    "LocalSolution",
    "build_fuchsian",
    "gamma_shift",
    "levelt_at_confluence",
    "selected_solution",
    "singular_solution",
    "FormalSolution",
    "asymptotic_coeffs",
    "asymptotic_fit",
    "f1",
    "formal_recursion",
    "laplace_column",
    "ConnectionData",
    "connection_coefficients",
    "continue_solution",
    "monodromy_matrix",
    "Ordering",
    "StokesPair",
    "stokes_direct",
    "stokes_from_connection",
    "stokes_generate",
    "DeformationState",
    "integrability_residual",
    "jordan_reduce_Bj",
    "omega",
    "schlesinger_rhs",
    "transport",
    "vanishing_check",
    "verify_connection_constancy",
]

__version__ = "0.1.0"
