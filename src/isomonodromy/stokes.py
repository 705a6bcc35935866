"""Stokes matrices from connection coefficients, and the sectorial oracle.

The closed formula fills the pair S_nu, S_{nu+mu} from the products
alpha_k c_jk and the dominance ordering at the coalescence point; the
oracle recomputes them by matching Laplace-transformed fundamental
solutions of adjacent sectors on a common ray.  Both routes run on the
system that :func:`.frobenius.shift_exponents` shifts off the integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    CutPlane,
    DeformationGeometry,
    MatchingInconsistent,
    Ordering,
    OverlapEmpty,
    sector_bounds,
)
from .frobenius import selected_solutions, shift_exponents
from .continuation import connection_products
from .laplace import ColumnSpec, laplace_columns


# relative spread of the fitted Stokes matrix allowed across the |z| ladder
CONSISTENCY_TOL = 1e-6


@dataclass
class StokesPair:
    """The matrices S_nu and S_{nu+mu}, and the route that gave them."""

    S_nu: np.ndarray
    S_nu_plus_mu: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)


def stokes_from_connection(products, ordering: Ordering, lambda_prime):
    """Assemble the Stokes pair from the products P[j,k] = alpha_k c_jk.

    (S_nu)_jk      = e^{2 pi i lambda'_k} alpha_k c_jk   for j prec k,
    (S_{nu+mu}^-1)_jk = -e^{2 pi i (lambda'_k - lambda'_j)} alpha_k c_jk
                                                         for j succ k,
    identity diagonal, zeros elsewhere (in-group entries are structural
    zeros).  S_{nu+mu} is the inverse of the assembled I + N, N nilpotent
    (strictly triangular in dominance order): the finite sum
    sum_{m<n} (-N)^m, in n - 1 Horner steps X <- I - N X.  Every term of
    an in-group or diagonal entry of N X is a product with an exact 0, so
    those entries stay exactly 0 and 1.
    """
    P = np.asarray(products, dtype=complex)
    lp = np.asarray(lambda_prime, dtype=complex)
    one = np.eye(lp.size, dtype=complex)
    S = one + np.where(ordering.sign < 0, np.exp(2j * math.pi * lp) * P, 0)
    N = np.where(ordering.sign > 0, -np.exp(2j * math.pi * (lp - lp[:, None])) * P, 0)
    X = one
    for _ in range(lp.size - 1):
        X = one - N @ X
    return StokesPair(S_nu=S, S_nu_plus_mu=X, method="formula")


def stokes_pipeline(system, geometry: DeformationGeometry, tol=1e-10, N=40):
    """Connection products (:func:`.continuation.connection_products`) -> formula Stokes pair."""
    cut = CutPlane(eta=geometry.eta)
    P, conn = connection_products(system, cut, tol=tol, N=N, geometry=geometry)
    pair = stokes_from_connection(P, geometry.ordering, conn.lambda_prime)
    pair.diagnostics["connection"] = conn
    return pair


# ---------------------------------------------------------------------------
# sectorial-matching oracle
# ---------------------------------------------------------------------------


def _matching_ray(geometry, h):
    """Bisector of the overlap of the shrunk sectors with labels h mu, (h+1) mu."""
    mu = geometry.mu
    lo_a, hi_a = sector_bounds(h * mu, geometry, shrink=True)
    lo_b, hi_b = sector_bounds((h + 1) * mu, geometry, shrink=True)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if not lo < hi:
        raise OverlapEmpty(
            f"no common ray between sectors {h * mu} and {(h + 1) * mu}: "
            f"({lo:.4f}, {hi:.4f})"
        )
    return 0.5 * (lo + hi)


def default_ladder(system, geometry, theta):
    """Moduli |z| whose worst cross-group suppression is 4, 6.5 and 9.

    The matching relation is exact at any z in the sector overlap, but the
    solve amplifies quadrature error by e^{+suppression} on the suppressed
    entries, so the ladder is scaled from the pole separations (and kept
    shallow) instead of being fixed.
    """
    u = np.asarray(system.u, dtype=complex)
    e = cmath.exp(1j * theta)
    cross = ~geometry.in_group & ~np.eye(u.size, dtype=bool)
    worst = max(abs((e * (u[j] - u[k])).real) for j, k in zip(*np.nonzero(cross)))
    return [s / worst for s in (4.0, 6.5, 9.0)]


def _matching(system, geometry, h):
    """``(theta, ladder, specs)`` of the matching of labels h mu and (h+1) mu.

    The ray is the bisector of the sector overlap (:func:`_matching_ray`),
    the |z| ladder :func:`default_ladder`, and the 2n column specs are
    those of label h, then those of label h + 1, at the samples of the ladder.
    """
    theta = _matching_ray(geometry, h)
    ladder = default_ladder(system, geometry, theta)
    z = np.array([rz * cmath.exp(1j * theta) for rz in ladder])
    specs = [ColumnSpec(k, label, z, theta) for label in (h, h + 1) for k in range(system.n)]
    return theta, ladder, specs


def _fit(system, matching, reduced, eta):
    """The Stokes matrix of one matching from its 2n columns: ``(S, diagnostics)``.

    ``matching`` is its ``(theta, ladder, specs)`` (:func:`_matching`), and
    ``reduced`` (2n, nz, n) and ``eta`` (2n,) its slice of the
    :class:`.laplace.LaplaceColumns`.  Y_h S = Y_{h+1} is solved at every |z|
    of the ladder in one stacked solve, and z-independence checked against
    CONSISTENCY_TOL.  The diagnostics hold the ladder, the ray, the spread
    and the contour directions d of labels h and h + 1.
    """
    theta, ladder, specs = matching
    n, u = system.n, system.u
    W = reduced.transpose(1, 2, 0)  # W[i] = [Y_h | Y_{h+1}] at z_i, reduced
    M = np.linalg.solve(W[..., :n], W[..., n:])
    # restore the exponential factors: S = D^-1 M D, D = diag(e^{z u_k})
    E = np.exp(np.array([[x * (u[k] - u[j]) for j in range(n) for k in range(n)]
                         for x in specs[0].z]))
    fits = M * E.reshape(M.shape)
    spread = float(np.max(np.abs(fits - fits[0])))
    scale = max(1.0, float(np.max(np.abs(fits))))
    if spread > CONSISTENCY_TOL * scale:
        raise MatchingInconsistent(
            f"fitted Stokes matrix varies by {spread:.2e} (relative "
            f"{spread / scale:.2e}) across |z| ladder {ladder}"
        )
    return np.mean(fits, axis=0), {"ladder": list(ladder), "theta": theta, "z_spread": spread,
                                   "directions": eta[::n].tolist()}


def stokes_pair_direct(system, geometry, tol=1e-12, N=40):
    """Oracle Stokes pair (S_nu, S_{nu+mu}) from matchings at h = 0 and h = 1.

    The matchings run on the system shifted by the gamma that
    :func:`.frobenius.shift_exponents` picks, recorded as
    ``diagnostics["gamma"]``: Y -> z^{-gamma} Y leaves the pair as it is,
    and every exponent of the shifted system is noninteger, so each column
    is a hairpin.  Both matchings share one shifted system and one set of
    local series, and their 4n Laplace columns go through one carry of at
    most 2 CUT_STEPS lockstep steps (:func:`laplace_columns`); each
    matching is then fitted on its own half of the stack (:func:`_fit`).
    """
    gamma, shifted = shift_exponents(system)
    sols = selected_solutions(shifted, N)
    matchings = [_matching(system, geometry, h) for h in (0, 1)]
    cols = laplace_columns(shifted, geometry, matchings[0][2] + matchings[1][2], sols, tol)
    (S0, d0), (S1, d1) = (_fit(system, matching, reduced, eta) for matching, reduced, eta
                          in zip(matchings, np.split(cols.reduced, 2), np.split(cols.eta, 2)))
    return StokesPair(S_nu=S0, S_nu_plus_mu=S1, method="oracle",
                      diagnostics={"h0": d0, "h1": d1, "gamma": gamma})


def monodromy_invariant_residual(pair, A):
    """Distance of spec(e^{-2 pi i Lambda'} S_nu S_{nu+mu}) from exp(-2 pi i spec A).

    Lambda' = diag(A): the product of the pair is conjugate to the formal
    monodromy, a check on either route that needs neither the other route
    nor a reference value.  Each target eigenvalue in turn takes the
    nearest product eigenvalue not yet taken (a greedy matching); the
    largest of these distances is divided by ||S_nu||_2 ||S_{nu+mu}||_2, so
    that an ill-conditioned product at large S is measured on its own scale.
    """
    M = np.diag(np.exp(-2j * np.pi * np.diag(A))) @ pair.S_nu @ pair.S_nu_plus_mu
    got = list(np.linalg.eigvals(M))
    worst = 0.0
    for target in np.exp(-2j * np.pi * np.linalg.eigvals(A)):
        i = int(np.argmin([abs(g - target) for g in got]))
        worst = max(worst, abs(got.pop(i) - target))
    return float(worst / (np.linalg.norm(pair.S_nu, 2) * np.linalg.norm(pair.S_nu_plus_mu, 2)))
