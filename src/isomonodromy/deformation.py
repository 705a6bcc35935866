"""Isomonodromic transport and its consistency checks.

The reduced deformation flow dA = sum_j [omega_j(u), A] du_j is integrated
along straight segments in deformation space, every segment from one start
in one stacked solve (a lone segment is a stack of one; the integrability
residual's 2n stencil points are one stack).  Along a segment the flow is
one commutator, quadratic in A and rational in t, so it is integrated by
Taylor steps whose terms follow by Cauchy products, as the linear carry of
:mod:`.continuation` does.  The flow conserves the diagonal of A and its
characteristic polynomial, and both double as error monitors.  The
polynomial is watched through the power sums tr(A^k), k = 1..n, which fix
it by Newton's identities: they are polynomial in A, so unlike the
eigenvalues they need no eigensolver and stay well conditioned when A is
far from normal.  The non-normalized Schlesinger right-hand sides, the
integrability residual and the vanishing checks near the coalescence locus
live here as well; the last two build [B_i, B_k] from the rank-one residues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import tally
from .model import COALESCE_TOL, DriftExceeded, StepFailure, SystemPair
from .frobenius import FuchsianSystem, build_fuchsian
from .continuation import (DEFAULT_TOL, MAX_ORDER, STEP_RATIO, TAIL_ORDERS, TAYLOR_EPS,
                           connection_products)
from .laplace import f1

NEAR_DELTA_GUARD = 1e-4


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


def _residue_commutators(w):
    """Every [B_i, B_k], stacked (n, n, n, n), of the rank-one residues B_m = -e_m w_m^T.

    With w_m = row m of A+I, [B_i, B_k] = w_i[k] e_i w_k^T - w_k[i] e_k w_i^T.
    """
    n = w.shape[0]
    i, k = np.ogrid[:n, :n]
    C = np.zeros((n, n, n, n), dtype=complex)
    C[i, k, i] = w[:, :, None] * w[None, :, :]
    C[i, k, k] -= w.T[:, :, None] * w[:, None, :]
    return C


def schlesinger_rhs(fs: FuchsianSystem):
    """Non-normalized Schlesinger right-hand sides d B_k / d u_i.

    Returns ``(derivs, consistency)`` where ``derivs[(i, k)]`` is the
    matrix-valued derivative and ``consistency`` is the max norm of
    sum_k derivs[(i, k)] - [omega_i, sum_k B_k] over i (an identity of the
    system; should be at machine precision).  A pair closer than
    COALESCE_TOL lies on the coalescence locus and its term
    [B_i, B_k] / (u_i - u_k) is taken as 0, as in the reduced flow.
    """
    n = fs.n
    m = np.arange(n)
    om = _omegas(f1(SystemPair(fs.A, fs.u)))
    gap = fs.u[:, None] - fs.u[None, :]
    near = np.abs(gap) < COALESCE_TOL
    pole = _residue_commutators(fs.A_plus_I) / np.where(near, 1, gap)[..., None, None]
    pole[near] = 0.0
    pole[m, m] = -pole.sum(1)
    B = np.zeros((n, n, n), dtype=complex)
    B[m, m] = -fs.A_plus_I
    derivs = pole + om[:, None] @ B[None] - B[None] @ om[:, None]
    Bsum = B.sum(0)
    worst = float(np.max(np.abs(derivs.sum(1) - (om @ Bsum - Bsum @ om))))
    return {(i, k): derivs[i, k] for i in range(n) for k in range(n)}, worst


@dataclass
class DeformationState:
    """Current deformation point and matrix, with transport statistics.

    ``diag_drift`` is the largest change of the diagonal of A seen so far,
    and ``spectrum_drift`` the largest scaled power-sum drift
    max_k |Delta tr(A^k)| / ||A_0||^k, k = 1..n (:func:`_power_sum_drift`):
    the power sums fix the spectrum, and are well conditioned where the
    eigenvalues of a far-from-normal A are not.
    """

    u: np.ndarray
    A: np.ndarray
    diag_drift: float = 0.0
    spectrum_drift: float = 0.0

    def system(self):
        return SystemPair(self.A, self.u)


def _power_sum_drift(A0, A):
    """max_k |tr(A_p^k) - tr(A0^k)| / ||A0||^k, k = 1..n, for each matrix A_p of the stack ``A``.

    By Newton's identities the power sums tr(A^k), k = 1..n, fix the
    characteristic polynomial that the flow conserves.  Both matrices are
    divided by the Frobenius norm ||A0|| (1 for a zero A0) before the
    powers are taken, so no power overflows.
    """
    scale = np.linalg.norm(A0) or 1.0
    X0, X = A0 / scale, A / scale
    Y0, Y = X0, X
    drift = np.zeros(A.shape[0])
    for _ in range(A0.shape[0]):
        drift = np.maximum(drift, np.abs(np.trace(Y, axis1=1, axis2=2) - np.trace(Y0)))
        Y0, Y = Y0 @ X0, Y @ X
    return drift


def _min_ingroup_gap_on_segment(u0, u1):
    """Exact min over t in [0, 1] of the pairwise |u_i - u_j| along the segment.

    Each gap g0 + t dg is linear in t, so its modulus is least at
    t = -Re(g0 / dg) clipped to [0, 1]; a pair with dg = 0 keeps g0.
    """
    i, j = np.triu_indices(u0.size, 1)
    du = u1 - u0
    g0, dg = u0[j] - u0[i], du[j] - du[i]
    t = np.clip(-np.divide(g0, dg, out=np.zeros_like(g0), where=dg != 0).real, 0.0, 1.0)
    return float(np.min(np.abs(g0 + t * dg), initial=math.inf))


def _transport_stack(u0, A0, targets, tol, guard=0.0):
    """Carry A0 from u0 along the straight segment to every row of ``targets``, by Taylor steps.

    Integrates dA_p/dt = sum_j [omega_j, A_p] u_j'(t) = [Omega_p, A_p], with
    (Omega_p)_ij = (A_p)_ij dgap_ij / (gap0_ij + t dgap_ij), dgap = du_j - du_i,
    for all P targets in lockstep, Omega_ij = 0 where the gap is below
    COALESCE_TOL (the diagonal, the locus).  A step from t0 by h with
    g = gap0 + t0 dgap and q = h dgap / g has Taylor terms T_m (of A) and
    W_m (of h Omega) in s = (t - t0) / h:
    W_0 = q A_0, T_{m+1} = sum_{k<=m} [W_k, T_{m-k}] / (m + 1),
    W_{m+1} = q (T_{m+1} - W_m), entrywise products with q.  The step
    starts at h = min(rest of the segment, STEP_RATIO min |g / dgap|), or
    2 COALESCE_TOL / |dgap| for a moving pair inside the band, which that
    step leaves.  Orders are summed in chunks until the last two terms of
    every segment fall below TAYLOR_EPS max|A_p|; a segment whose terms
    decay slower than STEP_RATIO^m (the flow is quadratic, so its radius
    can be shorter than the gaps') shortens its step in place to
    STEP_RATIO times the radius they show, T_k by c^k and W_k by c^(k+1)
    (Jorba and Zou, Exp. Math. 14, 2005).

    ``tol`` sets only the drift limit.  Reports one solve to
    :func:`.ode.counting`, one step per lockstep step and one nfev per
    order.  Raises :class:`StepFailure` when a segment comes within
    ``guard`` (if > 0) of the coalescence locus, a block is not finite or a
    step has not converged by MAX_ORDER, :class:`SingularF1` for a start on
    the locus with a nonvanishing in-group A_ij, :class:`DriftExceeded`
    when the diagonal or the scaled power sums (:func:`_power_sum_drift`,
    the spectrum's invariants) of a trajectory drift past 100 * tol.
    Returns the (P, n, n) end matrices and the diagonal and power-sum drifts.
    """
    P, n = targets.shape
    for u1 in targets if guard > 0 else ():
        gap = _min_ingroup_gap_on_segment(u0, u1)
        if gap < guard:
            raise StepFailure(
                f"segment approaches the coalescence locus (min gap {gap:.2e} < {guard}); "
                "stop at a guarded endpoint and extrapolate"
            )
    f1(SystemPair(A0, u0))  # SingularF1 for a start that violates the vanishing conditions
    diag0 = np.diag(A0).copy()
    du = targets - u0
    gap0 = u0[None, :] - u0[:, None]
    dgap = du[:, None, :] - du[:, :, None]
    A = np.tile(A0, (P, 1, 1))
    T = np.empty((MAX_ORDER + 1, P, n, n), dtype=complex)
    W = np.empty_like(T)
    t = np.zeros(P)
    steps = nfev = 0
    while np.any(t < 1):
        g = gap0 + t[:, None, None] * dgap
        near = np.abs(g) < COALESCE_TOL
        with np.errstate(divide="ignore"):
            reach = np.where(near, 2 * COALESCE_TOL, STEP_RATIO * np.abs(g)) / np.abs(dgap)
        h = np.minimum(1 - t, reach.min((1, 2)))
        q = np.where(near, 0, h[:, None, None] * dgap / np.where(near, 1, g))
        A, c, order = _taylor_step(A, q, T, W)
        if not np.isfinite(A).all():
            raise StepFailure(f"Schlesinger transport of {P} segment(s) is not finite")
        t = np.where(c * h == 1 - t, 1.0, t + c * h)
        steps += 1
        nfev += order
    tally(steps, nfev)
    diag_drift = np.max(np.abs(np.diagonal(A, axis1=1, axis2=2) - diag0), axis=1)
    spec_drift = _power_sum_drift(A0, A)
    if max(diag_drift.max(), spec_drift.max()) > 100 * tol:
        raise DriftExceeded(f"invariant drift too large: diag {diag_drift.max():.2e}, "
                            f"power sums {spec_drift.max():.2e}")
    return A, diag_drift, spec_drift


@np.errstate(divide="ignore", under="ignore")  # the terms of a converged segment may underflow
def _taylor_step(A, q, T, W):
    """One Taylor step of the reduced flow for every segment, by the recurrence of :func:`_transport_stack`.

    ``T`` and ``W`` are (MAX_ORDER + 1, P, n, n) term buffers.  Returns the
    end matrices, the factor c <= 1 each step was shortened by and the
    number of orders summed.
    """
    P = A.shape[0]
    size = np.abs(A).max((1, 2))
    ratio = float(np.abs(q).max())
    hi = min(MAX_ORDER, max(2, math.ceil(math.log(TAYLOR_EPS) / math.log(ratio)))
             if ratio > 0 else 2)
    lo, c = 0, np.ones(P)
    T[0] = A
    W[0] = q * A
    while True:
        for m in range(lo, hi):
            C = np.matmul(W[:m + 1], T[m::-1]).sum(0)
            C -= np.matmul(T[m::-1], W[:m + 1]).sum(0)
            T[m + 1] = C / (m + 1)
            W[m + 1] = q * (T[m + 1] - W[m])
        last = np.abs(T[hi - 1:hi + 1]).max((2, 3))
        slow = np.any(last > TAYLOR_EPS * size, 0)
        if not slow.any():
            return T[hi::-1].sum(0), c, hi  # smallest terms first
        if hi == MAX_ORDER:
            raise StepFailure(f"Schlesinger step of {P} segment(s) did not converge "
                              f"in {MAX_ORDER} orders")
        # the radius (max|A| / |T_m|)^(1/m) of the last two terms, in units of the step
        m = np.arange(hi + 1)[:, None]
        radius = np.min((size / last) ** (1 / m[hi - 1:]), 0)
        shorten = np.where(slow, np.minimum(1.0, STEP_RATIO * radius), 1.0)
        if np.any(shorten < 1):
            power = shorten ** m
            T[:hi + 1] *= power[..., None, None]
            W[:hi + 1] *= (power * shorten)[..., None, None]
            q = q * shorten[:, None, None]
            c *= shorten
        lo, hi = hi, min(MAX_ORDER, hi + TAIL_ORDERS)


def transport(state: DeformationState, target_u, tol=1e-10,
              enforce_guard=True) -> DeformationState:
    """Transport A along the straight segment to ``target_u``: a stack of one.

    Flow, checks and errors are those of :func:`_transport_stack`; ``tol``
    sets only the drift limit, 100 tol, on the diagonal and on the scaled
    power sums that stand for the spectrum.  With ``enforce_guard``, a
    segment whose exact least gap is below NEAR_DELTA_GUARD is rejected
    (sample endpoint limits and extrapolate instead).  Only a target equal
    to the start is skipped.
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


def connection_samples(system, u_samples, cut, tol=DEFAULT_TOL, N=40, gamma=None):
    """Connection data along a deformation path, one sample at a time.

    A is Schlesinger-transported from sample to sample of ``u_samples`` and
    the products are re-extracted at each by
    :func:`.continuation.connection_products` with ``gamma``, both at
    ``tol``.  Yields ``(state, P, conn)`` per sample.
    """
    state = DeformationState(u=np.asarray(u_samples[0], dtype=complex), A=system.A.copy())
    for i, u in enumerate(u_samples):
        if i > 0:
            state = transport(state, u, tol=tol)
        P, conn = connection_products(state.system(), cut, tol=tol, N=N, gamma=gamma)
        yield state, P, conn


def radial_family(system, u_c, t_values, tol=1e-11):
    """Isomonodromic family along u(t) = u^c + t (u - u^c), seeded at u^c.

    The matrix of ``system`` prescribes A(u^c): its in-group entries (for
    pairs coalescing at u^c) must vanish as :func:`f1` requires
    (:class:`SingularF1` otherwise) and are set to 0.  The family is grown outward from
    t = 1e-8 (in-group quotients are O(t) there, so the relative seeding
    error is O(1e-8)) and then transported to the requested t values.

    Returns the list of :class:`DeformationState` at ``t_values`` (sorted
    ascending internally, returned in the requested order).
    """
    u_c = np.asarray(u_c, dtype=complex)
    u1 = np.asarray(system.u, dtype=complex)
    v = u1 - u_c
    f1(SystemPair(system.A, u_c))  # SingularF1 unless the in-group entries vanish
    near = np.abs(u_c[:, None] - u_c[None, :]) < COALESCE_TOL
    A0 = np.where(near & ~np.eye(u_c.size, dtype=bool), 0, np.asarray(system.A, dtype=complex))
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


def vanishing_check(system, groups):
    """Vanishing-condition report for the in-group pairs of ``groups`` at the current u.

    For each pair report |A_ij|, the ratio |A_ij|/|u_i-u_j| and
    ||[B_i, B_j]||, with a verdict per the equivalence
    |A_ij| -> 0  <=>  [B_i, B_j] -> 0.  At gap 0 both ratios are None.
    """
    comm = _residue_commutators(build_fuchsian(system).A_plus_I)
    u = system.u
    scale = max(1.0, float(np.max(np.abs(system.A))))
    ratio_bound = 1e3 * scale
    rows = []
    for i, j in [(i, j) for g in groups for i in g for j in g if i < j]:
        gap = abs(u[i] - u[j])
        comm_norm = float(np.max(np.abs(comm[i, j])))
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
    one stacked solve, whose drift limit is 100 ``tol``; F_1 is built once
    per stencil point.  Returns the max over pairs.  Raises :class:`StepFailure` before any solve when two u_i
    are closer than COALESCE_TOL: there, on the coalescence locus, the
    reduced flow is singular and no stencil can be centred.  So does a
    stencil segment that comes within NEAR_DELTA_GUARD of the locus, as in
    :func:`transport`; unguarded, the solve crawls towards the singularity
    in ever shorter steps.
    """
    n = system.n
    u0 = np.asarray(system.u, dtype=complex)
    gaps = np.abs(u0[:, None] - u0[None, :]) + np.diag(np.full(n, np.inf))
    i, k = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, k] < COALESCE_TOL:
        raise StepFailure(f"u_{i} and u_{k} lie on the coalescence locus (gap "
                          f"{gaps[i, k]:.2e}): the integrability residual needs distinct u")
    targets = u0 + step * np.concatenate([np.eye(n), -np.eye(n)])
    A1, _, _ = _transport_stack(u0, np.asarray(system.A, dtype=complex), targets, tol,
                                NEAR_DELTA_GUARD)
    om = np.stack([_omegas(f1(SystemPair(A, u))) for A, u in zip(A1, targets)])
    d_om = (om[:n] - om[n:]) / (2 * step)  # d_om[i, k] = d_i omega_k
    om0 = _omegas(f1(system))
    comm = om0[:, None] @ om0[None, :] - om0[None, :] @ om0[:, None]
    i, k = np.triu_indices(n, 1)
    return float(np.max(np.abs(d_om[i, k] - d_om[k, i] - comm[i, k]), initial=0.0))

