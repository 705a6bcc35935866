"""Analytic continuation of Fuchsian solutions in the cut lambda-plane.

The system is linear, so the whole selected-solution basis
[Psi_0 ... Psi_{n-1}] is continued as one matrix (:func:`continue_basis`):
each column once from its series zone down to a common deep point below
every pole and cut, then the matrix once up the anti-cut ray of each pole
to its base point.  A small positive loop of that matrix at u_j gives the
monodromy M_j (:func:`monodromy_matrix`) and, projected onto Psi_j, the
whole row j of connection coefficients (:func:`connection_coefficients`)
through gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.

All transport of both Stokes routes runs on one batched Taylor carry
(:func:`carry`).  Each :class:`Piece` is a path lam = pole + a + b s +
c e^{i omega s}, s in [0, 1], carrying an (n, w) block and, for the
oracle's Laplace legs (:mod:`.laplace`), the integrals of e^{z x} times
that block for each of its samples z.  Every batch is carried by Taylor
steps along chords of its pieces, applying the rank-one residues to every
piece at once; the integrals are Gauss-Legendre sums over each step's
Taylor polynomial.  The formula route carries no samples, so it makes
five Taylor carries at any n: the first and the second descent legs, the
deep -> low_j and the low_j -> base_j ascent legs, and every pole loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .ode import tally
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
# Taylor carry: step length over the distance to the nearest pole, chords per
# curved piece, negligible term relative to its block, and the order limits
STEP_RATIO = 0.5
CHORDS = 16
TAYLOR_EPS = 1e-16
MAX_ORDER = 400
TAIL_ORDERS = 4
# Laplace integrals: |z h| per step at most Z_SPAN, summed by PANELS
# Gauss-Legendre panels of NODES nodes on the step
Z_SPAN = 16.0
PANELS = 4
NODES = 24


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


def carry(fs: FuchsianSystem, pieces):
    """Continue every piece's block, with its Laplace integrals, by Taylor steps along its chords.

    The pieces' ``y0`` share one shape (n, w).  At lam0 the Taylor terms
    T_m = Y_m h^m of the solution obey
    T_{m+1} = (M - m I) T_m h / ((m + 1)(lam0 - u)), M = -(A+I), row k
    divided by lam0 - u_k: one batched product per order for the whole
    batch.  Every piece steps in lockstep from its current point along the
    current chord of its polyline (:func:`_chords`) by
    h = min(rest of the chord, STEP_RATIO rho, Z_SPAN / max|z|), rho its
    distance to the nearest pole and z its samples (no z cap without
    samples), so its terms fall at least as fast as STEP_RATIO^m times a
    power of m.  Orders below log(TAYLOR_EPS) / log(max |h| / rho) are
    summed untested; from there the step ends once the last two terms of
    every piece are below TAYLOR_EPS max|Y_p|.

    The Laplace integral J_p,i of e^{z_p,i x} Y_p dx gains, per step, the
    integral over the step's polynomial Y_p(x0 + s h) = sum_m T_m s^m,
    s in [0, 1], by one composite Gauss-Legendre rule of PANELS panels of
    NODES nodes: e^{z x0} h sum_j w_j e^{z h s_j} Y_p(s_j), at most
    Z_SPAN / PANELS in |z h| per panel (:func:`_step_integrals`, which
    :mod:`.laplace` also uses for a local series summed as one step).  A
    curved piece is integrated along its chords; no pole lies between them
    and the arc, so by Cauchy's theorem that is the integral along the arc.

    Reports one solve, one step per lockstep step and one nfev per order
    to :func:`.ode.counting`.  Raises :class:`StepFailure` for a piece
    that meets a pole, a block that is not finite, or a step not converged
    by MAX_ORDER.  Returns the end block Y_p(1) of a piece without samples
    and ``(Y_p(1), J_p)`` of one with samples, J_p[i] the integral for
    z_p,i.
    """
    if not pieces:
        return []
    n, P = fs.n, len(pieces)
    shape = np.shape(pieces[0].y0)
    Y = np.stack([np.asarray(p.y0, dtype=complex) for p in pieces]).reshape(P, n, -1)
    # lam - u_k = (pole - u_k) + x: exactly x on a loop at u_k
    offset = np.array([p.pole for p in pieces], dtype=complex)[:, None] - fs.u
    paths = [_chords(p) for p in pieces]
    x = np.array([path[0] for path in paths], dtype=complex)
    ahead = [1] * P  # index of the vertex each piece heads for
    # samples padded to nz per piece, the padding with quadrature weight 0
    sizes = np.array([p.z.size for p in pieces])
    nz = int(sizes.max())
    z = np.zeros((P, nz), dtype=complex)
    for i, p in enumerate(pieces):
        z[i, :p.z.size] = p.z
    real = np.arange(nz) < sizes[:, None]
    J = np.zeros((P, nz) + Y.shape[1:], dtype=complex)
    reach_z = [Z_SPAN / np.abs(p.z).max() if p.z.size else math.inf for p in pieces]
    orders = np.arange(1, MAX_ORDER + 1)
    # (M - m I) / (m + 1) for every order m
    shifted = (-fs.A_plus_I - (orders - 1)[:, None, None] * np.eye(n)) / orders[:, None, None]
    T = np.empty((MAX_ORDER + 1,) + Y.shape, dtype=complex)
    steps = nfev = 0
    while True:
        dist = offset + x[:, None]
        rho = np.abs(dist).min(1)
        h = np.zeros(P, dtype=complex)
        x_next = x.copy()
        for i, path in enumerate(paths):
            if ahead[i] == len(path):
                continue
            if not rho[i] > 0:
                raise StepFailure(f"continuation meets a pole at {offset[i, 0] + x[i]}")
            d = path[ahead[i]] - x[i]
            reach = min(STEP_RATIO * rho[i], reach_z[i])
            if abs(d) <= reach:
                h[i], x_next[i] = d, path[ahead[i]]
                ahead[i] += 1
            else:
                h[i] = d * (reach / abs(d))
                x_next[i] = x[i] + h[i]
        if not h.any():
            break
        floor = TAYLOR_EPS * np.abs(Y).max((1, 2))
        if not np.isfinite(floor).all():
            raise StepFailure(f"continuation of {P} piece(s) is not finite")
        scale = (h[:, None] / dist)[..., None]
        ratio = float(np.max(np.abs(h) / rho))
        lo, hi = 0, min(MAX_ORDER, max(2, math.ceil(math.log(TAYLOR_EPS) / math.log(ratio))))
        T[0] = Y
        while True:
            # (M - m I) h / ((m + 1)(lam0 - u)), row k of piece p over lam0_p - u_k
            g = scale * shifted[lo:hi, None]
            for k in range(lo, hi):
                np.matmul(g[k - lo], T[k], out=T[k + 1])
            if np.all(np.abs(T[hi - 1:hi + 1]).max((2, 3)) <= floor):
                break
            if hi == MAX_ORDER:
                raise StepFailure(f"Taylor step of {P} piece(s) did not converge "
                                  f"in {MAX_ORDER} orders")
            lo, hi = hi, min(MAX_ORDER, hi + TAIL_ORDERS)
        if nz:
            J += _step_integrals(T[:hi + 1], x, h, z, real)
        Y = T[:hi + 1].sum(0)
        x = x_next
        steps += 1
        nfev += hi
    tally(steps, nfev)
    Y = Y.reshape((P,) + shape)
    J = J.reshape((P, nz) + shape)
    return [(y, j[:p.z.size]) if p.z.size else y for p, y, j in zip(pieces, Y, J)]


def _step_integrals(T, x, h, z, real):
    """Laplace integrals over one Taylor step of every piece, by the rule ``_QUADRATURE``.

    ``T`` holds the terms T_m of each piece's step polynomial
    Y_p(x_p + s h_p) = sum_m T_m s^m, shape (orders, P, n, w), from x_p by
    h_p; ``z`` the samples (P, nz), and ``real`` False on padding.
    Returns e^{z x} h sum_j w_j e^{z h s_j} Y_p(s_j), shape (P, nz, n, w).
    """
    nodes, weights, powers = _QUADRATURE
    # Y_p at every node s_j of the step: real powers times the terms as real pairs
    at_nodes = np.tensordot(powers[:, :len(T)], T.view(float), 1).view(complex)
    hs = h[:, None, None]
    w = real[..., None] * weights * hs * np.exp(z[:, :, None] * (x[:, None, None] + hs * nodes))
    return np.einsum("pij,jpkl->pikl", w, at_nodes)


def _composite_gauss(panels, nodes):
    """Nodes s_j, weights and powers s_j^m, m <= MAX_ORDER, of a composite Gauss rule on [0, 1]."""
    t, w = leggauss(nodes)
    left = np.arange(panels)[:, None] / panels
    s = (left + 0.5 * (t + 1) / panels).ravel()
    with np.errstate(under="ignore"):  # high powers of the first nodes are 0
        powers = s[:, None] ** np.arange(MAX_ORDER + 1)
    return s, np.tile(0.5 * w / panels, panels), powers


_QUADRATURE = _composite_gauss(PANELS, NODES)


def _chords(piece):
    """The polyline a piece is carried along, as offsets x from its pole.

    A straight piece is its two ends; a curved one is CHORDS chords whose
    vertices x(j / CHORDS) lie on the path.
    """
    if piece.c == 0:
        return [piece.a, piece.a + piece.b]
    s = np.linspace(0.0, 1.0, CHORDS + 1)
    return list(piece.a + piece.b * s + piece.c * np.exp(1j * piece.omega * s))


def _segment(start, end, value):
    """Straight piece from ``start`` to ``end``."""
    return Piece(start, 0.0, end - start, 0.0, 0.0, value)


def _loop(fs, j, base_point, value):
    """Positive circle piece around u_j through the base point."""
    return Piece(fs.u[j], 0.0, 0.0, base_point - fs.u[j], 2 * math.pi, value)


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


def continue_basis(fs: FuchsianSystem, cut: CutPlane, sols, poles):
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
        fs, [_segment(bases[m], low[m], seeds[m]) for m in descended])))
    side = [m for m in descended if low[m] != deep]
    down.update(zip(side, carry(fs, [_segment(low[m], deep, down[m]) for m in side])))
    Psi_deep = np.column_stack([down[m] for m in descended])
    up = dict.fromkeys(poles, Psi_deep)
    side = [j for j in poles if low[j] != deep]
    up.update(zip(side, carry(fs, [_segment(deep, low[j], Psi_deep) for j in side])))
    tops = carry(fs, [_segment(low[j], bases[j], up[j]) for j in poles])
    out = []
    for j, top in zip(poles, tops):
        Psi = np.empty((n, n), dtype=complex)
        Psi[:, descended] = top
        Psi[:, j] = seeds[j]
        out.append((j, bases[j], Psi))
    return out


def monodromy_matrix(fs: FuchsianSystem, k: int, cut=None, N=40):
    """Monodromy M_k of the selected-solution basis around a small loop at u_k.

    Expresses gamma_k Psi = Psi M_k: identity except row k, whose diagonal
    entry is e^{-2 pi i lambda'_k} and off-diagonal entries are
    alpha_k c_kj.  Raises :class:`BasisSingular` when the selected
    solutions fail to form a fundamental system at the base point.
    """
    if cut is None:
        cut = CutPlane(eta=_default_eta(fs))
    sols = [selected_solution(fs, m, cut, N) for m in range(fs.n)]
    [(_, base, Psi)] = continue_basis(fs, cut, sols, (k,))
    cond = np.linalg.cond(Psi)
    if not np.isfinite(cond) or cond > 1e12:
        raise BasisSingular(
            f"selected solutions are not a fundamental system near u_{k} "
            f"(condition {cond:.2e}); gamma-shift the system first"
        )
    [looped] = carry(fs, [_loop(fs, k, base, Psi)])
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
    bases = continue_basis(fs, cut, sols, rows)
    looped = carry(fs, [_loop(fs, j, base, Psi) for j, base, Psi in bases])
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
