"""Analytic continuation of Fuchsian solutions in the cut lambda-plane.

The system is linear, so the whole selected-solution basis
[Psi_0 ... Psi_{n-1}] is continued as one matrix (:func:`continue_basis`):
each column once from its series zone down to a common deep point below
every pole and cut, then the matrix once up the anti-cut ray of each pole
to its base point.  A small positive loop of that matrix at u_j gives the
monodromy M_j (:func:`monodromy_matrix`) and, projected onto Psi_j, the
whole row j of connection coefficients (:func:`connection_coefficients`)
through gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.  Transport runs on an
adaptive high-order Runge-Kutta integrator.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import COALESCE_TOL, CutPlane
from .frobenius import (
    FuchsianSystem,
    build_fuchsian,
    needs_gamma_shift,
    pick_gamma,
    gamma_shift,
    selected_solution,
)

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
# detour nesting of plan_path beyond which a segment is kept without detours
MAX_DETOUR_DEPTH = 8
# detour arc radius of plan_path, in units of the path clearance
DETOUR_FACTOR = 1.5


class StepFailure(RuntimeError):
    """Adaptive integrator failed (step underflow or solver error)."""


class BasisSingular(np.linalg.LinAlgError):
    """Selected solutions do not form a fundamental system at this point."""


class IllConditioned(RuntimeError):
    """A least-squares projection left a residual above tolerance."""


@dataclass
class Path:
    """Polyline in the lambda-plane avoiding poles by a clearance margin."""

    waypoints: list
    clearance: float

    def segments(self):
        w = self.waypoints
        return [(w[i], w[i + 1]) for i in range(len(w) - 1)]

    def min_pole_distance(self, poles):
        best = math.inf
        for a, b in self.segments():
            for p in poles:
                best = min(best, _point_segment_distance(p, a, b))
        return best

    def cuts_crossed(self, poles, cut: CutPlane):
        """Which cuts L_m the polyline crosses, with crossing side.

        Side +1 means crossing with the pole's cut oriented left-to-right
        (counterclockwise contribution around the pole), -1 the opposite.
        """
        e = cut.direction()
        crossings = []
        for a, b in self.segments():
            for m, p in enumerate(poles):
                hit = _segment_ray_intersect(a, b, p, e)
                if hit is not None:
                    crossings.append((m, hit))
        return crossings


def _point_segment_distance(p, a, b):
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _segment_ray_intersect(a, b, base, e):
    """Crossing side of segment [a,b] over the ray {base + t e, t>0}, or None."""
    # coordinates in the frame where the ray is the positive real axis
    za = (a - base) / e
    zb = (b - base) / e
    if (za.imag > 0) == (zb.imag > 0):
        return None
    if abs(za.imag - zb.imag) < 1e-300:
        return None
    t = za.imag / (za.imag - zb.imag)
    x = za.real + t * (zb.real - za.real)
    if x <= 0:
        return None
    return 1 if za.imag < 0 else -1


def plan_path(start, end, poles, clearance=None):
    """Straight segment from start to end with detour arcs around poles.

    Poles closer to the segment than the clearance are bypassed along an
    arc of radius clearance * DETOUR_FACTOR on the side of the pole away
    from the segment.  A piece still blocked after MAX_DETOUR_DEPTH nested
    detours is kept straight and logged as a WARNING.
    """
    poles = np.asarray(poles, dtype=complex)
    if clearance is None:
        gaps = [abs(p - q) for i, p in enumerate(poles) for q in poles[i + 1:]]
        clearance = 0.1 * min(gaps) if gaps else 0.1
    waypoints = [complex(start)]

    def extend(a, b, depth=0):
        blockers = []
        for p in poles:
            d = _point_segment_distance(p, a, b)
            if d < clearance and abs(p - a) > 1e-14 and abs(p - b) > 1e-14:
                t = ((p - a) * (b - a).conjugate()).real / abs(b - a) ** 2
                blockers.append((t, p))
        if blockers and depth > MAX_DETOUR_DEPTH:
            logger.warning("plan_path: detour depth %d exceeded on %s -> %s; kept the "
                           "segment within %.2e of %d pole(s)", MAX_DETOUR_DEPTH, a, b,
                           clearance, len(blockers))
            blockers = []
        if not blockers:
            waypoints.append(b)
            return
        blockers.sort()
        _, p = blockers[0]
        r = clearance * DETOUR_FACTOR
        # entry and exit points on the circle around p, arcs on the far side
        da = a - p
        db = b - p
        pa = p + r * da / abs(da)
        pb = p + r * db / abs(db)
        extend(a, pa, depth + 1)
        a0 = cmath.phase(da)
        a1 = cmath.phase(db)
        sweep = (a1 - a0) % (2 * math.pi)
        if sweep > math.pi:
            sweep -= 2 * math.pi
        steps = max(2, int(abs(sweep) / (math.pi / 8)) + 1)
        for i in range(1, steps):
            waypoints.append(p + r * cmath.exp(1j * (a0 + sweep * i / steps)))
        extend(pb, b, depth + 1)

    extend(complex(start), complex(end))
    # drop duplicate consecutive points
    out = [waypoints[0]]
    for wpt in waypoints[1:]:
        if abs(wpt - out[-1]) > 1e-14:
            out.append(wpt)
    return Path(waypoints=out, clearance=clearance)


def continue_solution(fs: FuchsianSystem, value, start, path, tol=DEFAULT_TOL):
    """Transport a vector (or matrix) solution along a path.

    ``path`` may be a :class:`Path` or a plain waypoint list starting at
    ``start``; repeated consecutive waypoints are skipped.  Returns the
    value at the endpoint.
    """
    waypoints = path.waypoints if isinstance(path, Path) else list(path)
    if abs(waypoints[0] - start) > 1e-12:
        raise ValueError("path does not start at the given point")
    y = np.asarray(value, dtype=complex)
    shape = y.shape
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = b - a
        if seg == 0:
            continue

        def rhs(t, yy):
            lam = a + t * seg
            M = fs.rhs(lam)
            return (M @ yy.reshape(shape) * seg).ravel()

        sol = solve_ivp(
            rhs, (0.0, 1.0), y.ravel(), method="DOP853",
            rtol=max(tol, 1e-13), atol=1e-3 * tol,
        )
        if not sol.success:
            raise StepFailure(f"integrator failed on segment {a} -> {b}: {sol.message}")
        y = sol.y[:, -1].reshape(shape)
    return y


def loop_at_pole(fs, j, base_value, base_point, tol=DEFAULT_TOL):
    """Continue a solution once around u_j on a circle through the base point.

    The base point must lie on the circle; returns the value back at the
    base point after a positive (counterclockwise) loop.
    """
    c = fs.u[j]
    z0 = base_point - c
    r = abs(z0)
    y = np.asarray(base_value, dtype=complex)
    shape = y.shape
    th0 = cmath.phase(z0)

    def rhs(t, yy):
        lam = c + r * cmath.exp(1j * t)
        dlam = 1j * r * cmath.exp(1j * t)
        return (fs.rhs(lam) @ yy.reshape(shape) * dlam).ravel()

    sol = solve_ivp(rhs, (th0, th0 + 2 * math.pi), y.ravel(), method="DOP853",
                    rtol=max(tol, 1e-13), atol=1e-3 * tol)
    if not sol.success:
        raise StepFailure(f"loop integration failed at pole {j}: {sol.message}")
    return sol.y[:, -1].reshape(shape)


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

    The rays opposite to the cuts cross no cut and stay a loop radius away
    from the other poles, and the lateral moves run in the half-plane
    below every pole and cut, so all routes are homotopic in the cut plane.
    Yields ``(j, base_j, Psi)`` lazily: the descent runs on the first
    request and each ascent only when its pole is reached.
    """
    n = fs.n
    e = cut.direction()
    depth = _depth_frame(fs, cut)
    low = [fs.u[m] - depth * e for m in range(n)]
    deep = low[0]
    bases = [_anti_cut_point(fs, m, cut) for m in range(n)]
    seeds = [sols[m].selected_value(bases[m], cut) for m in range(n)]
    poles = tuple(poles)
    descended = [m for m in range(n) if any(j != m for j in poles)]
    Psi_deep = np.column_stack([
        continue_solution(fs, seeds[m], bases[m], [bases[m], low[m], deep], tol=tol)
        for m in descended
    ])
    for j in poles:
        Psi = np.empty((n, n), dtype=complex)
        Psi[:, descended] = continue_solution(fs, Psi_deep, deep, [deep, low[j], bases[j]],
                                              tol=tol)
        Psi[:, j] = seeds[j]
        yield j, bases[j], Psi


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
    looped = loop_at_pole(fs, k, Psi, base, tol=tol)
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
    (:func:`continue_basis`) and around one small positive loop there; each
    column of the loop difference is projected onto Psi_j:
    gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.  Diagonal entries follow
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
    for j, base, Psi in continue_basis(fs, cut, sols, rows, tol=tol):
        diff = loop_at_pole(fs, j, Psi, base, tol=tol) - Psi
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


def verify_connection_constancy(system, geometry, u_samples, tol=DEFAULT_TOL, N=40,
                                transport_tol=None):
    """Recompute c_jk along a deformation path; report per-entry variation.

    ``u_samples`` is a sequence of deformation points; the matrix A is
    Schlesinger-transported from sample to sample and the connection matrix
    is re-extracted at each.  Returns a dict with the stacked coefficient
    matrices and the max entrywise variation.
    """
    from .deformation import transport, DeformationState

    if transport_tol is None:
        transport_tol = tol
    cut = CutPlane(eta=geometry.eta)
    state = DeformationState(u=np.asarray(u_samples[0], dtype=complex),
                             A=system.A.copy())
    mats = []
    cells = []
    from .model import is_in_cell
    for i, u_next in enumerate(u_samples):
        if i > 0:
            state = transport(state, u_next, tol=transport_tol)
        from .model import SystemPair
        sp = SystemPair(state.A, state.u)
        P, conn = connection_products(sp, cut, tol=tol, N=N, geometry=geometry)
        mats.append(conn.C)
        cells.append(is_in_cell(state.u, geometry)[0])
        last_conn = conn
    stack = np.stack(mats)
    variation = np.max(np.abs(stack - stack[0]), axis=0)
    return {
        "samples": stack,
        "max_variation": float(np.max(variation)),
        "per_entry_variation": variation,
        "in_cell": cells,
        "final": last_conn,
    }
