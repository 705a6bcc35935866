"""Analytic continuation of Fuchsian solutions in the cut lambda-plane.

The system is linear, so the whole selected-solution basis
[Psi_0 ... Psi_{n-1}] is continued as one matrix (:func:`continue_basis`):
each column once from its series zone down to a common deep point below
every pole and cut, then the matrix once up the anti-cut ray of each pole
to its base point.  A small positive loop of that matrix at u_j gives the
monodromy M_j (:func:`monodromy_matrix`) and, projected onto Psi_j, the
whole row j of connection coefficients (:func:`connection_coefficients`)
through gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.

All transport of both Stokes routes runs on one batched integrator
(:func:`carry`).  Each :class:`Piece` is a path lam = pole + a + b s +
c e^{i omega s}, s in [0, 1], carrying an (n, w) block and, for the
oracle's Laplace legs (:mod:`.laplace`), the integrals of e^{z x} times
that block for each of its samples z.  Every piece of a batch goes
through one DOP853 solve with the rank-one residues applied to all of
them at once.  The formula route therefore makes five solves at any n:
the first and the second descent legs, the deep -> low_j and the
low_j -> base_j ascent legs, and every pole loop.
:func:`continue_solution` and :func:`loop_at_pole` are thin wrappers:
one solve per segment, one per loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ode import solve_ivp
from .model import BasisSingular, COALESCE_TOL, CutPlane, IllConditioned, StepFailure
from .frobenius import (
    FuchsianSystem,
    build_fuchsian,
    needs_gamma_shift,
    pick_gamma,
    gamma_shift,
    selected_solution,
)

DEFAULT_TOL = 1e-10


class Piece(NamedTuple):
    """A path lam = pole + x(s), x(s) = a + b s + c e^{i omega s}, s from 0 to 1.

    ``y0`` is the value at s = 0: an (n,) vector or an (n, w) block of
    columns.  A straight leg has c = 0, a circle a = b = 0.  For each
    sample in ``z`` :func:`carry` also returns the Laplace integral of
    e^{z x} Y dx along the piece (the oracle's legs in :mod:`.laplace`).
    """

    pole: complex
    a: complex
    b: complex
    c: complex
    omega: float
    y0: np.ndarray
    z: np.ndarray = np.zeros(0, dtype=complex)


def carry_tolerances(tol, smallest, total):
    """rtol and atol of one batched solve of ``total`` components.

    The error norm of :func:`.ode.solve_ivp` is an RMS over all
    components, so both tolerances are scaled by sqrt(smallest / total),
    ``smallest`` the component count of the smallest piece: each piece
    then keeps the accuracy its own solve at rtol = max(tol, 1e-13),
    atol = 1e-3 tol had.  rtol stops at the integrator's floor of 100
    machine epsilons.
    """
    scale = math.sqrt(smallest / total)
    rtol = max(max(tol, 1e-13) * scale, 100 * np.finfo(float).eps)
    return rtol, 1e-3 * tol * scale


def carry(fs: FuchsianSystem, pieces, tol=DEFAULT_TOL):
    """Continue every piece's block, with its Laplace integrals, all in one DOP853 solve.

    The pieces' ``y0`` share one shape (n, w).  The state is (P, 1 + m, n, w):
    the block Y_p of every piece and one integral J_p,i per sample z_p,i,
    padded to m = max_p size(z_p) with integrals of weight 0.  The
    right-hand side applies the rank-one residues to every block at once,
    dY_p/ds = -((A+I) Y_p) (dx_p/ds) / (lam_p - u), row m divided by
    lam_p - u_m, and dJ_p,i/ds = e^{z_p,i x_p} Y_p dx_p/ds, so the integrals
    share the step control of their block.  Tolerances follow
    :func:`carry_tolerances`, with size(Y_p)(1 + m_p) components per piece.
    Returns the end block Y_p(1) of a piece without samples and
    ``(Y_p(1), J_p)`` of one with samples, J_p[i] the integral for z_p,i.
    """
    if not pieces:
        return []
    n, P = fs.n, len(pieces)
    shape = np.shape(pieces[0].y0)
    m = max(p.z.size for p in pieces)
    Y0 = np.stack([np.asarray(p.y0, dtype=complex) for p in pieces]).reshape(P, n, -1)
    y0 = np.zeros((P, 1 + m) + Y0.shape[1:], dtype=complex)
    y0[:, 0] = Y0
    z = np.zeros((P, 1 + m), dtype=complex)
    weight = np.zeros((P, 1 + m))
    for i, p in enumerate(pieces):
        z[i, 1:1 + p.z.size] = p.z
        weight[i, 1:1 + p.z.size] = 1.0
    pole, a, b, c, omega = np.array([p[:5] for p in pieces], dtype=complex).T
    iw = 1j * omega
    # lam_p - u_m = (pole_p - u_m) + x_p: exactly x_p on a loop at u_m
    offset = pole[:, None] - fs.u
    M = -fs.A_plus_I
    curved = bool(np.any(c != 0))

    def rhs(s, y):
        if curved:
            e = c * np.exp(iw * s)
            x, dx = a + b * s + e, b + iw * e
        else:
            x, dx = a + b * s, b
        x, dx = x[:, None], dx[:, None]
        scale = (dx / (offset + x))[:, :, None]
        if not m:
            return ((M @ y.reshape(Y0.shape)) * scale).ravel()
        y = y.reshape(y0.shape)
        dy = (np.exp(z * x) * (weight * dx))[:, :, None, None] * y[:, :1]
        dy[:, 0] = (M @ y[:, 0]) * scale
        return dy.ravel()

    rtol, atol = carry_tolerances(
        tol, min(np.size(p.y0) * (1 + p.z.size) for p in pieces), y0.size)
    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise StepFailure(f"continuation of {P} piece(s) failed: {sol.message}")
    ends = sol.y[:, -1].reshape((P, 1 + m) + shape)
    return [(end[0], end[1:1 + p.z.size]) if p.z.size else end[0]
            for p, end in zip(pieces, ends)]


def _segment(start, end, value):
    """Straight piece from ``start`` to ``end``."""
    return Piece(start, 0.0, end - start, 0.0, 0.0, value)


def _loop(fs, j, base_point, value):
    """Positive circle piece around u_j through the base point."""
    return Piece(fs.u[j], 0.0, 0.0, base_point - fs.u[j], 2 * math.pi, value)


def continue_solution(fs: FuchsianSystem, value, start, waypoints, tol=DEFAULT_TOL):
    """Transport a vector (or matrix) solution along a polyline, one solve per segment.

    ``waypoints`` starts at ``start``; repeated consecutive waypoints are
    skipped.  Returns the value at the endpoint.
    """
    if abs(waypoints[0] - start) > 1e-12:
        raise ValueError("path does not start at the given point")
    y = np.asarray(value, dtype=complex)
    for p, q in zip(waypoints[:-1], waypoints[1:]):
        if q != p:
            [y] = carry(fs, [_segment(p, q, y)], tol)
    return y


def loop_at_pole(fs, j, base_value, base_point, tol=DEFAULT_TOL):
    """Continue a solution once around u_j on a circle through the base point.

    Returns the value back at the base point after a positive
    (counterclockwise) loop.
    """
    [y] = carry(fs, [_loop(fs, j, base_point, base_value)], tol)
    return y


# ---------------------------------------------------------------------------
# monodromy and connection coefficients
# ---------------------------------------------------------------------------


def _anti_cut_point(fs, j, cut: CutPlane):
    """Base point below u_j on the ray opposite to its cut, clear of other cuts."""
    return fs.u[j] - 0.5 * _loop_radius(fs, j, cut) * cut.direction()


def _loop_radius(fs, j, cut: CutPlane):
    """Loop radius at u_j: clear of other poles and of their cuts."""
    e = cut.direction()
    best = math.inf
    for m in range(fs.n):
        if m == j:
            continue
        best = min(best, abs(fs.u[j] - fs.u[m]))
        # distance from u_j to the cut ray of pole m
        z = (fs.u[j] - fs.u[m]) / e
        d_ray = abs(z.imag) if z.real > 0 else abs(z)
        best = min(best, d_ray)
    return 0.3 * best


def _depth_frame(fs, cut: CutPlane):
    """Depth needed so a lateral move stays below every pole and cut."""
    e = cut.direction()
    depths = [((p) * np.conj(e)).real for p in fs.u]
    spread = max(abs(p - q) for p in fs.u for q in fs.u) if fs.n > 1 else 1.0
    return max(depths) - min(depths) + 2.0 * spread + 1.0


def continue_basis(fs: FuchsianSystem, cut: CutPlane, sols, poles, tol=DEFAULT_TOL):
    """Carry the selected-solution basis to the anti-cut base point of poles.

    Each Psi_k (series data ``sols[k]``) is continued once from its series
    value at its own base point down the anti-cut ray of u_k and across to
    the deep point u_0 - D e^{i eta}, unless k is the only requested pole.
    From there the matrix of descended columns rises along the anti-cut
    ray of each u_j in ``poles`` to its base point, where column j is set
    to its series value rather than sent through the deep point and back.
    Each of the four legs is one :func:`carry` over every column or pole
    that takes it (a pole whose low point is the deep point skips the
    lateral ones).

    The rays opposite to the cuts cross no cut and stay a loop radius away
    from the other poles, and the lateral moves run in the half-plane
    below every pole and cut, so all routes are homotopic in the cut plane.
    Returns ``[(j, base_j, Psi)]`` in the order of ``poles``.
    """
    poles = tuple(poles)
    if not poles:
        return []
    n = fs.n
    e = cut.direction()
    depth = _depth_frame(fs, cut)
    low = [fs.u[m] - depth * e for m in range(n)]
    deep = low[0]
    bases = [_anti_cut_point(fs, m, cut) for m in range(n)]
    seeds = [sols[m].selected_value(bases[m], cut) for m in range(n)]
    descended = [m for m in range(n) if any(j != m for j in poles)]
    down = dict(zip(descended, carry(
        fs, [_segment(bases[m], low[m], seeds[m]) for m in descended], tol)))
    side = [m for m in descended if low[m] != deep]
    down.update(zip(side, carry(fs, [_segment(low[m], deep, down[m]) for m in side], tol)))
    Psi_deep = np.column_stack([down[m] for m in descended])
    up = dict.fromkeys(poles, Psi_deep)
    side = [j for j in poles if low[j] != deep]
    up.update(zip(side, carry(fs, [_segment(deep, low[j], Psi_deep) for j in side], tol)))
    tops = carry(fs, [_segment(low[j], bases[j], up[j]) for j in poles], tol)
    out = []
    for j, top in zip(poles, tops):
        Psi = np.empty((n, n), dtype=complex)
        Psi[:, descended] = top
        Psi[:, j] = seeds[j]
        out.append((j, bases[j], Psi))
    return out


def monodromy_matrix(fs: FuchsianSystem, k: int, cut=None, tol=DEFAULT_TOL, N=40):
    """Monodromy M_k of the selected-solution basis around a small loop at u_k.

    Expresses gamma_k Psi = Psi M_k: identity except row k, whose diagonal
    entry is e^{-2 pi i lambda'_k} and off-diagonal entries are
    alpha_k c_kj.  Raises :class:`BasisSingular` when the selected
    solutions fail to form a fundamental system at the base point.
    """
    if cut is None:
        cut = CutPlane(eta=_default_eta(fs))
    sols = [selected_solution(fs, m, cut, N) for m in range(fs.n)]
    [(_, base, Psi)] = continue_basis(fs, cut, sols, (k,), tol=tol)
    cond = np.linalg.cond(Psi)
    if not np.isfinite(cond) or cond > 1e12:
        raise BasisSingular(
            f"selected solutions are not a fundamental system near u_{k} "
            f"(condition {cond:.2e}); gamma-shift the system first"
        )
    [looped] = carry(fs, [_loop(fs, k, base, Psi)], tol)
    return np.linalg.solve(Psi, looped)


def _default_eta(fs):
    """Any admissible eta for the given pole configuration (deterministic)."""
    args = sorted(
        cmath.phase(fs.u[j] - fs.u[m]) % math.pi
        for j in range(fs.n) for m in range(fs.n)
        if j != m and abs(fs.u[j] - fs.u[m]) > COALESCE_TOL
    )
    if not args:
        return 0.5 * math.pi
    gaps = [(args + [args[0] + math.pi])[i + 1] - args[i] for i in range(len(args))]
    i = int(np.argmax(gaps))
    return (args[i] + gaps[i] / 2.0) % math.pi


def alpha_factor(lambda_prime_k, klass):
    """alpha_k = e^{-2 pi i lambda'_k} - 1, or 2 pi i for integer exponents."""
    if klass == "noninteger":
        return cmath.exp(-2j * math.pi * complex(lambda_prime_k)) - 1.0
    return 2j * math.pi


@dataclass
class ConnectionData:
    """Connection coefficients c_jk with per-entry provenance tags."""

    C: np.ndarray
    alpha: np.ndarray
    nu: int
    eta: float
    provenance: np.ndarray
    residuals: np.ndarray
    gamma: float = 0.0

    @property
    def alpha_c(self):
        """Products alpha_j c_jk (the invariants entering the Stokes formula)."""
        return self.C * self.alpha[:, None]


def connection_coefficients(fs: FuchsianSystem, cut: CutPlane, tol=DEFAULT_TOL,
                            N=40, nu=0, geometry=None):
    """Extract the full matrix of connection coefficients at fixed u.

    The selected-solution basis is carried to a base point near each u_j
    (:func:`continue_basis`) and around one small positive loop there, all
    loops in one :func:`carry`; each column of the loop difference is
    projected onto Psi_j: gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.  Diagonal entries follow
    from the arithmetic class.  Entries across a coalescing pair of
    ``geometry`` (if given) are structural zeros.  Raises
    :class:`IllConditioned` if a projection residual exceeds tolerance
    relative to the continued solution.
    """
    from .frobenius import singular_solution  # local import to avoid cycle noise

    n = fs.n
    classes = [fs.integer_class(m) for m in range(n)]
    alpha = np.array([alpha_factor(fs.lambda_prime[m], classes[m]) for m in range(n)])
    C = np.diag([1.0 if c == "noninteger" else 0.0 for c in classes]).astype(complex)
    prov = np.full((n, n), "monodromy-projection", dtype=object)
    np.fill_diagonal(prov, "diagonal-by-class")
    resid = np.zeros((n, n))
    sols = [selected_solution(fs, m, cut, N) for m in range(n)]
    for j in range(n):
        degenerate_row = (
            classes[j] == "negative_integer" and singular_solution(fs, j, cut, N).zero
        )
        for k in range(n):
            if j == k:
                continue
            if geometry is not None and geometry.same_group(j, k):
                prov[j, k] = "zero-by-coalescence"
            elif degenerate_row or sols[k].zero:
                prov[j, k] = "zero-by-degenerate-singular"
    projected = prov == "monodromy-projection"
    rows = [j for j in range(n) if projected[j].any()]
    bases = continue_basis(fs, cut, sols, rows, tol=tol)
    looped = carry(fs, [_loop(fs, j, base, Psi) for j, base, Psi in bases], tol)
    for (j, _, Psi), end in zip(bases, looped):
        diff = end - Psi
        psi_j = Psi[:, j]
        c = (psi_j.conj() @ diff) / (psi_j.conj() @ psi_j).real / alpha[j]
        r = np.linalg.norm(diff - alpha[j] * np.outer(psi_j, c), axis=0)
        scale = np.maximum(np.linalg.norm(Psi, axis=0), 1.0)
        resid[j] = np.where(projected[j], r / scale, 0.0)
        k = int(np.argmax(resid[j]))
        if resid[j, k] > max(100 * tol, 1e-7):
            raise IllConditioned(
                f"projection residual {resid[j, k]:.2e} for c[{j},{k}] "
                f"(condition of target {np.linalg.norm(psi_j):.2e})"
            )
        C[j, projected[j]] = c[projected[j]]
    return ConnectionData(C=C, alpha=alpha, nu=nu, eta=cut.eta,
                          provenance=prov, residuals=resid)


def connection_products(system, cut: CutPlane, tol=DEFAULT_TOL, N=40,
                        geometry=None, nu=0, gamma=None):
    """Products alpha_k c_jk of the original system, via gamma-shift if needed.

    For systems with integer diagonal entries or integer eigenvalues the
    selected solutions are not fundamental, so the coefficients are taken
    from a shifted system and mapped back with
    alpha_k c_jk = e^{-2 pi i gamma} alpha_k[gamma] c_jk[gamma]  (k succ j),
    alpha_k c_jk = alpha_k[gamma] c_jk[gamma]                    (k prec j),
    where the ordering is taken at the working point u.  ``gamma``
    overrides the automatic choice of the shift.

    Returns ``(P, conn)`` with P[j, k] = alpha_k c_jk.
    """
    fs = build_fuchsian(system)
    tau = 1.5 * math.pi - cut.eta
    if not needs_gamma_shift(system):
        conn = connection_coefficients(fs, cut, tol=tol, N=N, geometry=geometry, nu=nu)
        return conn.C * conn.alpha[None, :], conn
    g = pick_gamma(system) if gamma is None else float(gamma)
    shifted = gamma_shift(system, g)
    fs_g = build_fuchsian(shifted)
    conn_g = connection_coefficients(fs_g, cut, tol=tol, N=N, geometry=geometry, nu=nu)
    conn_g.gamma = g
    n = fs.n
    P = np.zeros((n, n), dtype=complex)
    phase = cmath.exp(-2j * math.pi * g)
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            pg = conn_g.alpha[k] * conn_g.C[j, k]
            s = (cmath.exp(1j * tau) * (system.u[j] - system.u[k])).real
            if s < 0:  # j prec k, i.e. k succ j
                P[j, k] = phase * pg
            else:
                P[j, k] = pg
    return P, conn_g
