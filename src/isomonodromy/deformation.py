"""Isomonodromic transport and its consistency checks.

The reduced deformation flow dA = sum_j [omega_j(u), A] du_j is integrated
along straight segments in deformation space, every segment from one start
in one stacked solve (a lone segment is a stack of one; the integrability
residual's 2n stencil points are one stack).  Diagonal and spectrum of A
are conserved quantities and double as error monitors.  The non-normalized
Schlesinger right-hand sides, the integrability residual, the vanishing
checks near the coalescence locus and the per-pole Jordan reductions live
here as well.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ode import solve_ivp
from .model import COALESCE_TOL, DriftExceeded, SingularF1, StepFailure, SystemPair
from .frobenius import FuchsianSystem, build_fuchsian, _jordan_reduce_single
from .continuation import DEFAULT_TOL, carry_tolerances, connection_products
from .laplace import f1

NEAR_DELTA_GUARD = 1e-4

logger = logging.getLogger(__name__)


class NotReducible(np.linalg.LinAlgError):
    """Requested explicit reduction branch does not apply."""


def _omegas(F):
    """Every omega_k = [F, E_k], stacked along the first axis: row and column k of F."""
    k = np.arange(F.shape[0])
    W = np.zeros((k.size,) + F.shape, dtype=F.dtype)
    W[k, :, k] = F.T
    W[k, k, :] -= F
    return W


def omega(system, k):
    """Deformation coefficient omega_k = [F_1, E_k] with F_1 from :func:`f1`.

    Entry (i, j) is A_ij (delta_ik - delta_jk)/(u_i - u_j); only row k and
    column k are populated.  Coalesced pairs require vanishing A_ij and
    contribute 0 (:class:`SingularF1` otherwise).
    """
    return _omegas(f1(system))[k]


def _residue(fs: FuchsianSystem, k):
    """The residue B_k = -E_k(A+I) as a dense matrix: row k of -(A+I), zeros elsewhere."""
    B = np.zeros((fs.n, fs.n), dtype=complex)
    B[k] = -fs.A_plus_I[k]
    return B


def schlesinger_rhs(fs: FuchsianSystem, u=None):
    """Non-normalized Schlesinger right-hand sides d B_k / d u_i.

    Returns ``(derivs, consistency)`` where ``derivs[(i, k)]`` is the
    matrix-valued derivative and ``consistency`` is the max norm of
    sum_k derivs[(i, k)] - [omega_i, sum_k B_k] over i (an identity of the
    system; should be at machine precision).  A pair closer than
    COALESCE_TOL lies on the coalescence locus and its term
    [B_i, B_k] / (u_i - u_k) is taken as 0, as in the reduced flow.
    """
    if u is None:
        u = fs.u
    system = SystemPair(fs.A, u)
    n = fs.n
    om = _omegas(f1(system))
    B = [_residue(fs, k) for k in range(n)]

    def pole_term(i, k):
        """[B_i, B_k] / (u_i - u_k), 0 for a pair on the coalescence locus."""
        if abs(u[i] - u[k]) < COALESCE_TOL:
            return 0.0
        return (B[i] @ B[k] - B[k] @ B[i]) / (u[i] - u[k])

    derivs = {}
    for i in range(n):
        for k in range(n):
            if i != k:
                derivs[(i, k)] = pole_term(i, k) + om[i] @ B[k] - B[k] @ om[i]
        acc = np.zeros((n, n), dtype=complex)
        for k in range(n):
            if k != i:
                acc -= pole_term(i, k)
        derivs[(i, i)] = acc + om[i] @ B[i] - B[i] @ om[i]
    Bsum = sum(B)
    worst = 0.0
    for i in range(n):
        total = sum(derivs[(i, k)] for k in range(n))
        target = om[i] @ Bsum - Bsum @ om[i]
        worst = max(worst, float(np.max(np.abs(total - target))))
    return derivs, worst


@dataclass
class DeformationState:
    """Current deformation point and matrix, with transport statistics."""

    u: np.ndarray
    A: np.ndarray
    diag_drift: float = 0.0
    spectrum_drift: float = 0.0

    def system(self):
        return SystemPair(self.A, self.u)


def _spectrum_distance(ev0, ev1):
    """Max matched distance between two eigenvalue sets, each ev0 paired with its nearest ev1.

    Let r be the largest nearest-neighbour distance and delta the smallest
    separation of ev0.  If r < delta / 2, the nearest-neighbour pairing is
    the unique optimal assignment, both for the sum of the distances (the
    assignment ``linear_sum_assignment`` finds) and for their maximum:
    - it is one-to-one, since an ev1 nearest to a_i and to a_k would put
      |a_i - a_k| <= 2 r < delta;
    - any other one-to-one pairing sends some a_i to the partner b_k of an
      a_k != a_i, at distance >= |a_i - a_k| - |a_k - b_k| >= delta - r >
      delta / 2 > r >= |a_i - b_i|.  So each of its distances is at least
      the nearest-neighbour one, and at least one is larger.
    Outside that regime r is only a lower bound on the largest matched
    distance of every pairing, and a WARNING is logged.
    """
    r = float(np.max(np.min(np.abs(ev0[:, None] - ev1[None, :]), axis=1)))
    sep = np.abs(ev0[:, None] - ev0[None, :])
    np.fill_diagonal(sep, np.inf)
    delta = float(np.min(sep))
    if not r < 0.5 * delta:
        logger.warning("spectrum drift %.3e is not below half the eigenvalue separation "
                       "%.3e: nearest-neighbour pairing gives only a lower bound", r, delta)
    return r


def _min_ingroup_gap_on_segment(u0, u1):
    """Min of the pairwise |u_i - u_j| over 33 equispaced points of the segment."""
    u = u0 + np.linspace(0.0, 1.0, 33)[:, None] * (u1 - u0)
    i, j = np.triu_indices(u0.size, 1)
    return float(np.min(np.abs(u[:, i] - u[:, j]))) if i.size else math.inf


def _segment_mask(gap0, dgap):
    """The mask |gap0 + t dgap| < COALESCE_TOL if no entry changes it for t in [0, 1], else None.

    On [0, 1] the modulus is smallest at the clipped foot of the
    perpendicular from 0 and largest at an end.  An entry counts as fixed
    when its largest value stays below COALESCE_TOL / 2 (always masked, as
    the diagonal) or its smallest value above 2 COALESCE_TOL (never masked).
    """
    dd = np.abs(dgap) ** 2
    t = np.clip(-(gap0 * np.conj(dgap)).real / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    lo = np.abs(gap0 + t * dgap)
    hi = np.maximum(np.abs(gap0), np.abs(gap0 + dgap))
    masked = hi < 0.5 * COALESCE_TOL
    return masked if np.all(masked | (lo >= 2 * COALESCE_TOL)) else None


def _transport_stack(u0, A0, targets, tol, guard=0.0):
    """Carry A0 from u0 along the straight segment to every row of ``targets``, in one solve.

    Integrates dA_p/dt = sum_j [omega_j, A_p] u_j'(t) = [Omega_p, A_p], with
    (Omega_p)_ij = (A_p)_ij (du_j - du_i)/(u_j - u_i), for all P targets by
    DOP853 at :func:`.continuation.carry_tolerances`.  Raises
    :class:`StepFailure` when a segment comes within ``guard`` (if > 0) of
    the coalescence locus or the solve fails, :class:`SingularF1` for a start
    on the locus with a nonvanishing in-group A_ij, :class:`DriftExceeded`
    when the diagonal or spectrum of a trajectory drifts past 100 * tol.
    Returns the (P, n, n) end matrices and the diagonal and spectrum drifts.
    """
    P, n = targets.shape
    for u1 in targets if guard > 0 else ():
        gap = _min_ingroup_gap_on_segment(u0, u1)
        if gap < guard:
            raise StepFailure(
                f"segment approaches the coalescence locus (min gap {gap:.2e} < {guard}); "
                "stop at a guarded endpoint and extrapolate"
            )
    lead0 = np.linalg.eigvals(A0)
    diag0 = np.diag(A0).copy()
    # gaps u_j - u_i along segment p are gap0 + t dgap_p; Omega_ij = A_ij dgap_ij/gap_ij
    du = targets - u0
    gap0 = u0[None, :] - u0[:, None]
    dgap = du[:, None, :] - du[:, :, None]
    scale = max(1.0, float(np.max(np.abs(A0))))
    for i, j in np.argwhere(np.abs(gap0) < COALESCE_TOL):
        if i != j and abs(A0[i, j]) > 1e-10 * scale:
            raise SingularF1(f"segment starts at u_{i} = u_{j} with |A[{i},{j}]| = "
                             f"{abs(A0[i, j]):.2e}")

    # Omega_ij is 0 where |gap_ij| < COALESCE_TOL (the diagonal, the locus); a
    # mask that holds along every segment gives numerator and gap pieces once
    fixed = _segment_mask(gap0, dgap)
    if fixed is not None:
        num = np.where(fixed, 0, dgap)
        base = np.where(fixed, 1, gap0)

    def rhs(t, y):
        """Reduced flow dA_p/dt = [Omega_p(t), A_p]: one commutator for the whole stack."""
        A = y.reshape(P, n, n)
        if fixed is None:
            gap = gap0 + t * dgap
            near = np.abs(gap) < COALESCE_TOL
            W = A * (np.where(near, 0, dgap) / np.where(near, 1, gap))
        else:
            W = A * (num / (base + t * num))
        return (W @ A - A @ W).ravel()

    rtol, atol = carry_tolerances(tol, n * n, P * n * n)
    sol = solve_ivp(rhs, (0.0, 1.0), np.tile(A0.ravel(), P), method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise StepFailure(f"transport integrator failed: {sol.message}")
    A1 = sol.y[:, -1].reshape(P, n, n)
    diag_drift = np.max(np.abs(np.diagonal(A1, axis1=1, axis2=2) - diag0), axis=1)
    spec_drift = np.array([_spectrum_distance(lead0, ev) for ev in np.linalg.eigvals(A1)])
    if max(diag_drift.max(), spec_drift.max()) > 100 * tol:
        raise DriftExceeded(f"invariant drift too large: diag {diag_drift.max():.2e}, "
                            f"spectrum {spec_drift.max():.2e}")
    return A1, diag_drift, spec_drift


def transport(state: DeformationState, target_u, tol=1e-10,
              enforce_guard=True) -> DeformationState:
    """Transport A along the straight segment to ``target_u``: a stack of one.

    Flow, checks and errors are those of :func:`_transport_stack`; with
    ``enforce_guard``, segments nearing the locus below NEAR_DELTA_GUARD are
    rejected (sample endpoint limits and extrapolate instead).  Only a target
    equal to the start is skipped.
    """
    u0 = np.asarray(state.u, dtype=complex)
    u1 = np.asarray(target_u, dtype=complex)
    if np.array_equal(u0, u1):
        return state
    (A1,), (diag_drift,), (spec_drift,) = _transport_stack(
        u0, np.asarray(state.A, dtype=complex), u1[None], tol,
        NEAR_DELTA_GUARD if enforce_guard else 0.0)
    return DeformationState(u=u1, A=A1, diag_drift=max(state.diag_drift, float(diag_drift)),
                            spectrum_drift=max(state.spectrum_drift, float(spec_drift)))


def connection_samples(system, u_samples, cut, tol=DEFAULT_TOL, N=40, geometry=None,
                       gamma=None):
    """Connection data along a deformation path, one sample at a time.

    A is Schlesinger-transported from sample to sample of ``u_samples`` and
    the products are re-extracted at each by
    :func:`.continuation.connection_products` with ``geometry`` and
    ``gamma``, both at ``tol``.  Yields ``(state, P, conn)`` per sample.
    """
    state = DeformationState(u=np.asarray(u_samples[0], dtype=complex), A=system.A.copy())
    for i, u in enumerate(u_samples):
        if i > 0:
            state = transport(state, u, tol=tol)
        P, conn = connection_products(state.system(), cut, tol=tol, N=N, geometry=geometry,
                                      gamma=gamma)
        yield state, P, conn


def radial_family(system, u_c, t_values, tol=1e-11):
    """Isomonodromic family along u(t) = u^c + t (u - u^c), seeded at u^c.

    The matrix of ``system`` prescribes A(u^c): its in-group entries (for
    pairs coalescing at u^c) must vanish.  The family is grown outward from
    t = 1e-8 (in-group quotients are O(t) there, so the relative seeding
    error is O(1e-8)) and then transported to the requested t values.

    Returns the list of :class:`DeformationState` at ``t_values`` (sorted
    ascending internally, returned in the requested order).
    """
    u_c = np.asarray(u_c, dtype=complex)
    u1 = np.asarray(system.u, dtype=complex)
    v = u1 - u_c
    A0 = np.asarray(system.A, dtype=complex).copy()
    for i in range(u_c.size):
        for j in range(u_c.size):
            if i != j and abs(u_c[i] - u_c[j]) < COALESCE_TOL:
                if abs(A0[i, j]) > 1e-10:
                    raise ValueError(
                        f"A[{i},{j}] must vanish at u^c for the coalescing pair"
                    )
                A0[i, j] = 0.0
    order = np.argsort(np.asarray(t_values))
    ts = np.asarray(t_values)[order]
    state = DeformationState(u=u_c + 1e-8 * v, A=A0)
    out = []
    for t in ts:
        state = transport(state, u_c + t * v, tol=tol, enforce_guard=False)
        out.append(state)
    result = [None] * len(out)
    for pos, idx in enumerate(order):
        result[idx] = out[pos]
    return result


def vanishing_check(system, groups=None):
    """Vanishing-condition report for the in-group pairs at the current u.

    For each pair that coalesces (per ``groups`` or per proximity), report
    |A_ij|, the ratio |A_ij|/|u_i-u_j| and ||[B_i, B_j]||, with a verdict
    per the equivalence |A_ij| -> 0  <=>  [B_i, B_j] -> 0.  At gap 0 both
    ratios are None.  With w_i = row i of A+I, B_i = -e_i w_i^T gives
    [B_i, B_j] = w_i[j] e_i w_j^T - w_j[i] e_j w_i^T.
    """
    w = build_fuchsian(system).A_plus_I
    u = system.u
    n = system.n
    if groups is None:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [
            (i, j)
            for g in groups
            for i in g
            for j in g
            if i < j
        ]
    scale = max(1.0, float(np.max(np.abs(system.A))))
    ratio_bound = 1e3 * scale
    rows = []
    for i, j in pairs:
        gap = abs(u[i] - u[j])
        comm = np.zeros((n, n), dtype=complex)
        comm[i] = w[i, j] * w[j]
        comm[j] = -w[j, i] * w[i]
        comm_norm = float(np.max(np.abs(comm)))
        aij = max(abs(system.A[i, j]), abs(system.A[j, i]))
        ratio = aij / gap if gap > 0 else None
        comm_ratio = comm_norm / gap if gap > 0 else None
        near = gap < 1e-3
        # A_ij = O(u_i - u_j) and [B_i, B_j] = O(u_i - u_j) are equivalent;
        # judged only near the locus, with a generous O-constant
        ok_a = aij <= ratio_bound * gap + 1e-12
        ok_c = comm_norm <= 10.0 * ratio_bound * scale * gap + 1e-12
        rows.append({
            "pair": (i, j),
            "gap": gap,
            "abs_A": aij,
            "ratio": ratio,
            "commutator_norm": comm_norm,
            "commutator_ratio": comm_ratio,
            "pass": bool((ok_a and ok_c) if near else True),
            "near_locus": bool(near),
        })
    return rows


def integrability_residual(system, step=1e-3, tol=1e-12):
    """Residual of d_i omega_k - d_k omega_i = [omega_i, omega_k] by stencils.

    Central finite differences in u_i, u_k with the matrix A transported
    isomonodromically to each of the 2n stencil points u +- step e_i, all in
    one stacked solve; F_1 is built once per stencil point.  Returns the max
    over pairs.  Raises :class:`StepFailure` before any solve when two u_i
    are closer than COALESCE_TOL: there, on the coalescence locus, the
    reduced flow is singular and no stencil can be centred.
    """
    n = system.n
    u0 = np.asarray(system.u, dtype=complex)
    gaps = np.abs(u0[:, None] - u0[None, :]) + np.diag(np.full(n, np.inf))
    i, k = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, k] < COALESCE_TOL:
        raise StepFailure(f"u_{i} and u_{k} lie on the coalescence locus (gap "
                          f"{gaps[i, k]:.2e}): the integrability residual needs distinct u")
    targets = u0 + step * np.concatenate([np.eye(n), -np.eye(n)])
    A1, _, _ = _transport_stack(u0, np.asarray(system.A, dtype=complex), targets, tol)
    om = np.stack([_omegas(f1(SystemPair(A, u))) for A, u in zip(A1, targets)])
    d_om = (om[:n] - om[n:]) / (2 * step)  # d_om[i, k] = d_i omega_k
    om0 = _omegas(f1(system))
    comm = om0[:, None] @ om0[None, :] - om0[None, :] @ om0[:, None]
    i, k = np.triu_indices(n, 1)
    return float(np.max(np.abs(d_om[i, k] - d_om[k, i] - comm[i, k]), initial=0.0))


def jordan_reduce_Bj(fs: FuchsianSystem, j, strict=False):
    """Holomorphic reduction of B_j to constant Jordan form.

    Returns ``(G, T, branch)``: for lambda'_j != -1 the explicit
    diagonalizing columns, for lambda'_j = -1 the rank-1 nilpotent Jordan
    branch; ``branch == "zero"`` marks B_j = 0 (row of zeros), where no
    nontrivial reduction exists (raised as :class:`NotReducible` when
    ``strict``).
    """
    G, T, branch = _jordan_reduce_single(fs, j)
    if branch == "zero" and strict:
        raise NotReducible(f"B_{j} vanishes identically: nothing to reduce")
    B = _residue(fs, j)
    resid = float(np.max(np.abs(np.linalg.solve(G, B @ G) - T)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(B)))):
        raise NotReducible(f"reduction residual {resid:.2e} for B_{j}")
    return G, T, branch
