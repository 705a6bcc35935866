"""Stokes matrices from connection coefficients, and the sectorial oracle.

The closed formula fills the pair S_nu, S_{nu+mu} from the products
alpha_k c_jk and the dominance ordering at the coalescence point; the
oracle recomputes them by matching Laplace-transformed fundamental
solutions of adjacent sectors on a common ray.
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
from .frobenius import build_fuchsian, selected_solution
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
    zeros).  S_{nu+mu} is returned as the inverse of the assembled matrix.
    """
    P = np.asarray(products, dtype=complex)
    lp = np.asarray(lambda_prime, dtype=complex)
    one = np.eye(lp.size, dtype=complex)
    S = one + np.where(ordering.sign < 0, np.exp(2j * math.pi * lp) * P, 0)
    Sinv = one - np.where(ordering.sign > 0, np.exp(2j * math.pi * (lp - lp[:, None])) * P, 0)
    return StokesPair(S_nu=S, S_nu_plus_mu=_unit_triangular_inverse(Sinv, ordering.order),
                      method="formula")


def _unit_triangular_inverse(Sinv, order):
    """Inverse of the assembled S_{nu+mu}^-1 by unit-triangular substitution.

    In dominance order (the permutation ``order`` of :class:`Ordering`) the
    matrix is unit lower triangular with identity blocks on the coalescence
    groups, so the substitution reproduces the in-group structural zeros
    exactly.
    """
    L = Sinv[np.ix_(order, order)]
    X = np.eye(L.shape[0], dtype=complex)
    for i in range(1, L.shape[0]):
        X[i, :i] = -L[i, :i] @ X[:i, :i]
    out = np.empty_like(X)
    out[np.ix_(order, order)] = X
    return out


def stokes_pipeline(system, geometry: DeformationGeometry, tol=1e-10, N=40):
    """Connection coefficients (gamma-shifted when needed) -> formula Stokes pair."""
    cut = CutPlane(eta=geometry.eta)
    P, conn = connection_products(system, cut, tol=tol, N=N, geometry=geometry)
    pair = stokes_from_connection(P, Ordering(geometry.u_c, geometry.tau), system.lambda_prime)
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


def _match(system, geometry, fs, sols, h, tol):
    """Match the Laplace solutions of labels h mu and (h+1) mu: ``(S, diagnostics)``.

    Solves Y_h S = Y_{h+1} at each |z| of :func:`default_ladder` on the
    bisector ray of the sector overlap and checks z-independence against
    CONSISTENCY_TOL.  The 2n columns of both labels are carried in one
    batch (:func:`laplace_columns`).
    """
    n = fs.n
    theta = _matching_ray(geometry, h)
    ladder = default_ladder(system, geometry, theta)
    z = np.array([rz * cmath.exp(1j * theta) for rz in ladder])
    cols = laplace_columns(fs, geometry, [ColumnSpec(k, label, z, theta)
                                          for label in (h, h + 1) for k in range(n)],
                           sols=sols, tol=tol)
    cols_a, cols_b = cols[:n], cols[n:]
    fits = []
    for i, zval in enumerate(z):
        Wa = np.column_stack([c.reduced[i] for c in cols_a])
        Wb = np.column_stack([c.reduced[i] for c in cols_b])
        M = np.linalg.solve(Wa, Wb)
        # restore the exponential factors: S = D^-1 M D, D = diag(e^{z u_k})
        E = np.exp(np.array([zval * (system.u[k] - system.u[j])
                             for j in range(n) for k in range(n)])).reshape(n, n)
        fits.append(M * E)
    fits = np.array(fits)
    spread = float(np.max(np.abs(fits - fits[0]))) if len(fits) > 1 else 0.0
    scale = max(1.0, float(np.max(np.abs(fits))))
    if spread > CONSISTENCY_TOL * scale:
        raise MatchingInconsistent(
            f"fitted Stokes matrix varies by {spread:.2e} (relative "
            f"{spread / scale:.2e}) across |z| ladder {ladder}"
        )
    S = np.mean(fits, axis=0)
    return S, {"ladder": list(ladder), "theta": theta, "z_spread": spread}


def stokes_pair_direct(system, geometry, tol=1e-12, N=40):
    """Oracle Stokes pair (S_nu, S_{nu+mu}) from matchings at h = 0 and h = 1.

    Both matchings share one Fuchsian system and one set of local series;
    each carries its 2n Laplace columns in one batch.
    """
    fs = build_fuchsian(system)
    sols = [selected_solution(fs, k, N) for k in range(fs.n)]
    S0, d0 = _match(system, geometry, fs, sols, 0, tol)
    S1, d1 = _match(system, geometry, fs, sols, 1, tol)
    return StokesPair(S_nu=S0, S_nu_plus_mu=S1, method="oracle",
                      diagnostics={"h0": d0, "h1": d1})


def stokes_generate(S_nu, S_nu_plus_mu, lambda_prime, h_values):
    """All S_{nu+h mu} from the pair via S_{m+2 mu} = e^{-2 pi i B} S_m e^{2 pi i B}."""
    lp = np.asarray(lambda_prime, dtype=complex)
    phase = np.exp(2j * math.pi * lp)
    out = {}
    for h in h_values:
        base = np.asarray(S_nu if h % 2 == 0 else S_nu_plus_mu, dtype=complex)
        q = h // 2
        # conjugation by e^{2 pi i B} is entrywise scaling
        out[h] = base * np.outer(phase ** (-q), phase ** q)
    return out
