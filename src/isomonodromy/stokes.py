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
    COALESCE_TOL,
    CutPlane,
    DeformationGeometry,
    MatchingInconsistent,
    OverlapEmpty,
    sector_bounds,
)
from .frobenius import build_fuchsian, selected_solution
from .continuation import connection_products
from .laplace import ColumnSpec, laplace_columns


# relative spread of the fitted Stokes matrix allowed across the |z| ladder
CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class Ordering:
    """Dominance ordering at u^c: j prec k iff Re(e^{i tau}(u_j^c-u_k^c)) < 0.

    Pairs inside one coalescence group carry no relation (their Stokes
    entries are structural zeros).
    """

    u_c: np.ndarray
    tau: float
    tie_tol: float = 1e-12

    def relation(self, j, k):
        """-1 if j prec k, +1 if j succ k, None for in-group pairs."""
        d = self.u_c[j] - self.u_c[k]
        if abs(d) < COALESCE_TOL:
            return None
        s = (cmath.exp(1j * self.tau) * d).real
        if abs(s) < self.tie_tol:
            raise ValueError(
                f"ordering tie for pair ({j},{k}): tau is a Stokes direction"
            )
        return -1 if s < 0 else 1


@dataclass
class StokesPair:
    """The matrices S_nu and S_{nu+mu} with the ordering that shaped them."""

    S_nu: np.ndarray
    S_nu_plus_mu: np.ndarray
    nu: int
    ordering: Ordering
    method: str
    diagnostics: dict = field(default_factory=dict)


def stokes_from_connection(products, ordering: Ordering, lambda_prime, nu=0):
    """Assemble the Stokes pair from the products P[j,k] = alpha_k c_jk.

    (S_nu)_jk      = e^{2 pi i lambda'_k} alpha_k c_jk   for j prec k,
    (S_{nu+mu}^-1)_jk = -e^{2 pi i (lambda'_k - lambda'_j)} alpha_k c_jk
                                                         for j succ k,
    identity diagonal, zeros elsewhere (in-group entries are structural
    zeros).  S_{nu+mu} is returned as the inverse of the assembled matrix.
    """
    P = np.asarray(products, dtype=complex)
    lp = np.asarray(lambda_prime, dtype=complex)
    n = P.shape[0]
    S = np.eye(n, dtype=complex)
    Sinv = np.eye(n, dtype=complex)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            rel = ordering.relation(j, k)
            if rel is None:
                continue
            if rel < 0:
                S[j, k] = cmath.exp(2j * math.pi * lp[k]) * P[j, k]
            else:
                Sinv[j, k] = -cmath.exp(2j * math.pi * (lp[k] - lp[j])) * P[j, k]
    return StokesPair(S_nu=S, S_nu_plus_mu=_unit_triangular_inverse(Sinv, ordering), nu=nu,
                      ordering=ordering, method="formula")


def _unit_triangular_inverse(Sinv, ordering: Ordering):
    """Inverse of the assembled S_{nu+mu}^-1 by unit-triangular substitution.

    In dominance order (stable sort by Re(e^{i tau} u_c)) the matrix is
    unit lower triangular with identity blocks on the coalescence groups,
    so the substitution reproduces the in-group structural zeros exactly.
    """
    order = np.argsort((cmath.exp(1j * ordering.tau) * ordering.u_c).real, kind="stable")
    L = Sinv[np.ix_(order, order)]
    X = np.eye(L.shape[0], dtype=complex)
    for i in range(1, L.shape[0]):
        X[i, :i] = -L[i, :i] @ X[:i, :i]
    out = np.empty_like(X)
    out[np.ix_(order, order)] = X
    return out


def stokes_pipeline(system, geometry: DeformationGeometry, tol=1e-10, N=40, nu=0):
    """Connection coefficients (gamma-shifted when needed) -> formula Stokes pair."""
    cut = CutPlane(eta=geometry.eta)
    P, conn = connection_products(system, cut, tol=tol, N=N, geometry=geometry, nu=nu)
    ordering = Ordering(u_c=geometry.u_c, tau=geometry.tau)
    pair = stokes_from_connection(P, ordering, system.lambda_prime, nu=nu)
    pair.diagnostics["connection"] = conn
    return pair


# ---------------------------------------------------------------------------
# sectorial-matching oracle
# ---------------------------------------------------------------------------


def _matching_ray(geometry, h, margin=0.0):
    """Bisector of the overlap of the shrunk sectors with labels h mu, (h+1) mu."""
    mu = geometry.mu
    lo_a, hi_a = sector_bounds(h * mu, geometry, shrink=True)
    lo_b, hi_b = sector_bounds((h + 1) * mu, geometry, shrink=True)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if not lo + margin < hi - margin:
        raise OverlapEmpty(
            f"no common ray between sectors {h * mu} and {(h + 1) * mu}: "
            f"({lo:.4f}, {hi:.4f})"
        )
    return 0.5 * (lo + hi)


def default_ladder(system, geometry, theta, suppressions=(4.0, 6.5, 9.0)):
    """Moduli |z| whose worst cross-group suppression hits the given targets.

    The matching relation is exact at any z in the sector overlap, but the
    solve amplifies quadrature error by e^{+suppression} on the suppressed
    entries, so the ladder is scaled from the pole separations (and kept
    shallow) instead of being fixed.
    """
    u = np.asarray(system.u, dtype=complex)
    e = cmath.exp(1j * theta)
    rates = []
    for j in range(u.size):
        for k in range(u.size):
            if j != k and not geometry.same_group(j, k):
                rates.append(abs((e * (u[j] - u[k])).real))
    if not rates:
        return [10.0, 20.0, 40.0]
    worst = max(rates)
    return [s / worst for s in suppressions]


def _oracle_basis(system, geometry, N):
    """Fuchsian system and selected-solution series shared by every matching."""
    fs = build_fuchsian(system)
    cut = CutPlane(eta=geometry.eta)
    return fs, [selected_solution(fs, k, cut, N) for k in range(fs.n)]


def _match(system, geometry, fs, sols, h, tol, ladder, consistency_tol=CONSISTENCY_TOL):
    """Match the Laplace solutions of labels h mu and (h+1) mu: ``(S, diagnostics)``.

    The 2n columns of both labels are carried in one batch
    (:func:`laplace_columns`).
    """
    n = fs.n
    theta = _matching_ray(geometry, h)
    if ladder is None:
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
    if spread > consistency_tol * scale:
        raise MatchingInconsistent(
            f"fitted Stokes matrix varies by {spread:.2e} (relative "
            f"{spread / scale:.2e}) across |z| ladder {ladder}"
        )
    S = np.mean(fits, axis=0)
    return S, {"ladder": list(ladder), "theta": theta, "z_spread": spread,
               "z_spread_relative": spread / scale}


def stokes_direct(system, geometry: DeformationGeometry, h=0, tol=1e-12, N=40,
                  ladder=None, consistency_tol=CONSISTENCY_TOL):
    """Oracle for the single matrix S_{nu+h mu} by sectorial matching.

    Evaluates the Laplace fundamental solutions of labels h mu and
    (h+1) mu on the bisector ray of their sector overlap at several |z|,
    solves Y_{h} S = Y_{h+1} for S at each, and checks z-independence.
    Returns ``(S, diagnostics)``.
    """
    fs, sols = _oracle_basis(system, geometry, N)
    return _match(system, geometry, fs, sols, h, tol, ladder, consistency_tol)


def stokes_pair_direct(system, geometry, tol=1e-12, N=40, ladder=None):
    """Oracle Stokes pair (S_nu, S_{nu+mu}) from matchings at h = 0 and h = 1.

    Both matchings share one Fuchsian system and one set of local series;
    each carries its 2n Laplace columns in one batch, so S_{nu+mu} is the
    matrix :func:`stokes_direct` gives at h = 1, bit for bit.
    """
    fs, sols = _oracle_basis(system, geometry, N)
    S0, d0 = _match(system, geometry, fs, sols, 0, tol, ladder)
    S1, d1 = _match(system, geometry, fs, sols, 1, tol, ladder)
    ordering = Ordering(u_c=geometry.u_c, tau=geometry.tau)
    return StokesPair(S_nu=S0, S_nu_plus_mu=S1, nu=0, ordering=ordering,
                      method="oracle", diagnostics={"h0": d0, "h1": d1})


def stokes_generate(S_nu, S_nu_plus_mu, lambda_prime, h_values):
    """All S_{nu+h mu} from the pair via S_{m+2 mu} = e^{-2 pi i B} S_m e^{2 pi i B}."""
    lp = np.asarray(lambda_prime, dtype=complex)
    phase = np.exp(2j * math.pi * lp)
    out = {}
    for h in h_values:
        base = np.asarray(S_nu if h % 2 == 0 else S_nu_plus_mu, dtype=complex)
        q = h // 2 if h % 2 == 0 else (h - 1) // 2
        M = base.copy()
        # conjugation by e^{2 pi i B} is entrywise scaling
        scale = np.outer(phase ** (-q), phase ** q)
        out[h] = M * scale
    return out
