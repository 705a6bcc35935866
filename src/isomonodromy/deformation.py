"""Isomonodromic transport and its consistency checks.

The reduced deformation flow dA = sum_j [omega_j(u), A] du_j is integrated
along straight segments in deformation space, every segment from one start
in one stacked solve (a lone segment is a stack of one; the integrability
residual's 2n stencil points are one stack).  Along a segment the flow is
one commutator, quadratic in A and rational in t, so it is integrated by
Taylor steps whose terms follow by Cauchy products, as the linear carry of
:mod:`.continuation` does, under the same step policy (:mod:`.ode`).  The
flow conserves the diagonal of A and its characteristic polynomial, and
both double as error monitors.  The polynomial is watched through the
power sums tr(A^k), k = 1..n, which fix it by Newton's identities: they
are polynomial in A, so unlike the eigenvalues they need no eigensolver
and stay well conditioned when A is far from normal.  The integrability
residual and the vanishing checks near the coalescence locus live here as
well; the latter reads each commutator [B_i, B_j] off the rows of A+I, as
the residues B_k = -E_k(A+I) have rank one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import (MAX_ORDER, MAX_STEPS, STEP_RATIO, TAIL_ORDERS, TAYLOR_EPS, tally,
                  untested_orders)
from .model import (COALESCE_TOL, DriftExceeded, IllConditioned, StepFailure, SystemPair,
                    check_vanishing)

NEAR_DELTA_GUARD = 1e-4


def _omegas(F):
    """Every omega_k = [F, E_k] of each F of a (..., n, n) stack, along a new axis before
    the last two: column k of F, less row k."""
    k = np.arange(F.shape[-1])
    W = np.zeros(F.shape[:-2] + (k.size,) + F.shape[-2:], dtype=F.dtype)
    W[..., k, :, k] = np.moveaxis(F, -1, 0)
    W[..., k, k, :] -= F
    return W


def _distinct_omegas(A, u):
    """Every omega_k at each point (A_p, u_p) of a stack whose u_p have no coalesced pair.

    There F_1 is A_ij / (u_j - u_i) off the diagonal, with no vanishing
    check to make, and omega_k = [F_1, E_k] does not read the diagonal of F_1.
    """
    gap = u[:, None, :] - u[:, :, None]
    k = np.arange(u.shape[1])
    gap[:, k, k] = 1.0
    return _omegas(A / gap)


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
    divided by the Frobenius norm ||A0|| (1 for a zero A0; IllConditioned
    where it leaves the float range) before the powers are taken, so no
    power overflows.  A0 rides in one stack with the A_p: one product per
    power, each written into one (n, P + 1, n, n) stack of powers whose
    traces are taken at once.
    """
    n = A0.shape[0]
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(A0) or 1.0
        if scale == math.inf:  # the sum of squares overflows first
            scale = math.hypot(*np.abs(A0).ravel())
    if scale == math.inf:
        raise IllConditioned("||A|| leaves the float range: the power sums cannot be scaled")
    powers = np.empty((n, 1 + A.shape[0], n, n), dtype=complex)
    X = powers[0]
    np.divide(A0, scale, out=X[0])
    np.divide(A, scale, out=X[1:])
    for k in range(1, n):
        np.matmul(powers[k - 1], X, out=powers[k])
    traces = powers.trace(0, 2, 3)
    return np.abs(traces[:, 1:] - traces[:, :1]).max(0)


def _min_ingroup_gap_on_segment(gap0, dgap):
    """Exact min over t in [0, 1] of the pairwise gaps |gap0 + t dgap| along each segment.

    ``gap0`` (n, n) holds the start's gaps u_j - u_i and ``dgap`` their
    change du_j - du_i along each segment, (P, n, n) for P segments or
    (n, n) for one, as :func:`_transport_stack` builds them.  Each gap is
    linear in t, so its modulus is least at t = -Re(gap0 / dgap) clipped to
    [0, 1]; a pair with dgap = 0 keeps gap0 whatever t it is given.
    Returns the P least gaps (one for an (n, n) ``dgap``); the diagonal is
    no pair.
    """
    n = gap0.shape[-1]
    t = np.minimum(np.maximum(-(gap0 / np.where(dgap == 0, 1, dgap)).real, 0.0), 1.0)
    gap = np.abs(gap0 + t * dgap)
    gap.reshape(-1, n * n)[:, ::n + 1] = math.inf
    return gap.min((-2, -1))


def _transport_stack(u0, A0, targets, tol, guard=0.0):
    """Carry A0 from u0 along the straight segment to every row of ``targets``, by Taylor steps.

    Integrates dA_p/dt = sum_j [omega_j, A_p] u_j'(t) = [Omega_p, A_p], with
    (Omega_p)_ij = (A_p)_ij dgap_ij / (gap0_ij + t dgap_ij), dgap = du_j - du_i,
    for all P targets in lockstep, Omega_ij = 0 where the gap is below
    COALESCE_TOL (the diagonal, the locus).  A step from t0 by h with
    g = gap0 + t0 dgap and q = h dgap / g has Taylor terms T_m (of A) and
    W_m (of h Omega) in s = (t - t0) / h:
    W_0 = q A_0, T_{m+1} = sum_{k<=m} (W_k T_{m-k} - T_k W_{m-k}) / (m + 1),
    W_{m+1} = q (T_{m+1} - W_m), entrywise products with q; both Cauchy
    sums of an order are one product (:func:`_taylor_step`).  The step
    starts at h = min(rest of the segment, STEP_RATIO min |g / dgap|), or
    2 COALESCE_TOL / |dgap| for a moving pair inside the band, which that
    step leaves.  Orders are summed in chunks until the last two terms of
    every segment fall below TAYLOR_EPS max|A_p|; a segment whose terms
    decay slower than STEP_RATIO^m (the flow is quadratic, so its radius
    can be shorter than the gaps') shortens its step in place to
    STEP_RATIO times the radius they show, T_k by c^k and W_k by c^(k+1)
    (Jorba and Zou, Exp. Math. 14, 2005).  A segment that reaches its target
    leaves the lockstep, so a slow segment does not keep the finished ones
    in every later step.

    The per-call checks read the stack at once, and the fixed work of a
    solve is done once: the gap arrays gap0 and dgap serve both the exact
    least gap of every segment (:func:`_min_ingroup_gap_on_segment`) and the
    step plan, one errstate covers every step, the vanishing conditions are
    checked only where a pair of u0 is coalesced, and the power sums of A0
    and of every end matrix come from one stack (:func:`_power_sum_drift`).

    ``tol`` sets only the drift limit.  Reports one solve to
    :func:`.ode.counting`, one step per lockstep step, one nfev per order
    and, per step, the segments it advanced as piece_steps.  Raises
    :class:`ValueError` before any arithmetic for a ``targets`` row whose
    length is not n, a ``tol`` that is not finite and positive, or a u0 or
    target that is not finite; :class:`StepFailure` when a segment comes
    within ``guard`` (if > 0) of the coalescence locus, a block is not
    finite, a step has not converged by MAX_ORDER or a solve has taken
    MAX_STEPS steps (naming t and the step), :class:`SingularF1`
    for a start on the locus with a nonvanishing in-group A_ij,
    :class:`DriftExceeded` when the diagonal or the scaled power sums
    (:func:`_power_sum_drift`, the spectrum's invariants) of a trajectory
    drift past 100 * tol.  Returns the (P, n, n) end matrices and the
    diagonal and power-sum drifts.
    """
    P, n = targets.shape
    if n != u0.size:
        raise ValueError(f"target has length {n}, not the length {u0.size} of u")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, not {tol}")
    # one errstate for the whole solve: a pair that does not move has an infinite
    # reach, q is divided by the gaps below COALESCE_TOL before those entries are
    # zeroed, the terms of a converged segment may underflow, and terms past the
    # float range leave end matrices that are rejected as not finite
    with np.errstate(divide="ignore", under="ignore", over="ignore", invalid="ignore"):
        du = targets - u0
        if not np.isfinite(du).all():
            bad = ("u" if not np.isfinite(u0).all() else
                   "target" if not np.isfinite(targets).all() else "target - u")
            raise ValueError(f"{bad} is not finite")
        gap0 = u0 - u0[:, None]
        dgap = du[:, None, :] - du[:, :, None]
        if guard > 0:
            gap = float(_min_ingroup_gap_on_segment(gap0, dgap).min())
            if gap < guard:
                raise StepFailure(
                    f"segment approaches the coalescence locus (min gap {gap:.2e} < {guard}); "
                    "stop at a guarded endpoint and extrapolate"
                )
        if np.count_nonzero(np.abs(gap0) < COALESCE_TOL) > n:  # a coalesced pair besides the diagonal
            check_vanishing(A0, u0)  # SingularF1 for a start that violates the vanishing conditions
        end = A = A0[None].repeat(P, 0)
        live, t = np.arange(P), np.zeros(P)
        steps = nfev = piece_steps = 0
        speed = np.abs(dgap)
        while True:
            g = gap0 + t[:, None, None] * dgap
            dist = np.abs(g)
            near = dist < COALESCE_TOL
            rest = 1 - t
            h = np.minimum(rest, (np.where(near, 2 * COALESCE_TOL, STEP_RATIO * dist)
                                  / speed).min((1, 2)))
            q = h[:, None, None] * dgap / g
            np.copyto(q, 0, where=near)
            A, c, order = _taylor_step(A, q)
            if not np.isfinite(A).all():
                raise StepFailure(f"Schlesinger transport of {P} segment(s) is not finite")
            ch = c * h
            t = np.where(ch == rest, 1.0, t + ch)
            steps += 1
            nfev += order
            piece_steps += int(np.count_nonzero(h))
            if t.min() >= 1:
                break
            if steps == MAX_STEPS:
                raise StepFailure(f"Schlesinger transport short of its target after {MAX_STEPS} "
                                  f"steps: t = {t.min():.3e}, by steps of {ch[t.argmin()]:.1e}")
            if t.max() >= 1:  # a segment at its target leaves the lockstep
                done = t >= 1
                end[live[done]] = A[done]
                live, A, t, dgap, speed = (x[~done] for x in (live, A, t, dgap, speed))
    if live.size < P:
        end[live] = A
        A = end
    tally(steps, nfev, piece_steps)
    diag_drift = np.abs(A.diagonal(0, 1, 2) - A0.diagonal()).max(1)
    spec_drift = _power_sum_drift(A0, A)
    if max(diag_drift.max(), spec_drift.max()) > 100 * tol:
        raise DriftExceeded(f"invariant drift too large: diag {diag_drift.max():.2e}, "
                            f"power sums {spec_drift.max():.2e}")
    return A, diag_drift, spec_drift


def _term_buffers(P, n, K):
    """The two empty term layouts of :func:`_taylor_step` for P segments of size n, orders 0..K."""
    return (np.empty((P, 2, n, K + 1, n), dtype=complex),
            np.empty((P, 2, K + 1, n, n), dtype=complex))


def _taylor_step(A, q):
    """One Taylor step of the reduced flow for every segment, by the recurrence of :func:`_transport_stack`.

    Each segment keeps its terms in two layouts of the pair (W, T): side by
    side, W_k and T_k at column block k of ``side``, and stacked in reverse,
    at row block K - k of ``stack``, K the last order the buffers hold.
    Order m's two Cauchy sums, sum_k W_k T_{m-k} and sum_k T_k W_{m-k}, are
    one stacked product: blocks 0..m of W and of T side by side against the
    last m + 1 blocks of T and of W stacked.  The buffers hold the orders
    the step is expected to reach and one tail round past them, and double
    toward MAX_ORDER only when a later tail passes them.  The step runs
    inside the errstate of its solve, where terms may underflow.  Returns
    the end matrices, the factor c <= 1 each step was shortened by and the
    number of orders summed.
    """
    P, n = A.shape[:2]
    size = np.abs(A).max((1, 2))
    bound = TAYLOR_EPS * size[:, None]
    hi = untested_orders(float(np.abs(q).max()))
    lo, c = 0, np.ones(P)
    K = min(MAX_ORDER, hi + TAIL_ORDERS)
    side, stack = _term_buffers(P, n, K)
    np.multiply(q, A, out=stack[:, 0, K])  # W_0
    stack[:, 1, K] = A  # T_0
    side[:, :, :, 0] = stack[:, :, K]
    while True:
        # W side by side against T stacked, and T against W: one (P, 2) stack of products
        S, R = side.reshape(P, 2, n, -1), stack[:, ::-1].reshape(P, 2, -1, n)
        W = stack[:, 0, K - lo]
        for m in range(lo, hi):
            pair = stack[:, :, K - m - 1]
            T1, W1 = pair[:, 1], pair[:, 0]
            sums = np.matmul(S[..., :(m + 1) * n], R[:, :, (K - m) * n:])
            np.subtract(sums[:, 0], sums[:, 1], out=T1)
            T1 /= m + 1
            np.subtract(T1, W, out=W1)
            W1 *= q
            side[:, :, :, m + 1] = pair
            W = W1
        last = np.abs(stack[:, 1, K - hi:K - hi + 2]).max((2, 3))  # |T_hi|, |T_{hi-1}|
        over = last > bound
        if not over.any():
            return stack[:, 1, K - hi:].sum(1), c, hi  # T_hi down to T_0: smallest terms first
        slow = over.any(1)
        if hi == MAX_ORDER:
            raise StepFailure(f"Schlesinger step of {P} segment(s) did not converge "
                              f"in {MAX_ORDER} orders")
        # the radius (max|A| / |T_m|)^(1/m) of the last two terms, in units of the step
        radius = ((size[:, None] / last) ** np.array([1 / hi, 1 / (hi - 1)])).min(1)
        shorten = np.where(slow, np.minimum(1.0, STEP_RATIO * radius), 1.0)
        if (shorten < 1).any():
            power = shorten[:, None] ** np.arange(hi + 1)
            power = np.stack([power * shorten[:, None], power], 1)  # W_k by c^(k+1), T_k by c^k
            side[:, :, :, :hi + 1] *= power[:, :, None, :, None]
            stack[:, :, K - hi:] *= power[:, :, ::-1, None, None]
            q = q * shorten[:, None, None]
            c *= shorten
        lo, hi = hi, min(MAX_ORDER, hi + TAIL_ORDERS)
        if hi > K:
            grown = min(MAX_ORDER, max(hi, 2 * K))
            new_side, new_stack = _term_buffers(P, n, grown)
            new_side[:, :, :, :K + 1] = side
            new_stack[:, :, grown - K:] = stack
            side, stack, K = new_side, new_stack, grown


def transport(state: DeformationState, target_u, tol=1e-10,
              enforce_guard=True) -> DeformationState:
    """Transport A along the straight segment to ``target_u``: a stack of one.

    Flow, checks and errors are those of :func:`_transport_stack`; ``tol``
    sets only the drift limit, 100 tol, on the diagonal and on the scaled
    power sums that stand for the spectrum.  With ``enforce_guard``, a
    segment whose exact least gap is below NEAR_DELTA_GUARD is rejected
    (sample endpoint limits and extrapolate instead).  Only a target equal
    to the start is skipped; one whose shape is not that of u, and a u that
    is not finite, are a :class:`ValueError`.
    """
    u0 = np.asarray(state.u, dtype=complex)
    u1 = np.asarray(target_u, dtype=complex)
    if u1.shape != u0.shape:
        raise ValueError(f"target has shape {u1.shape}, not the shape {u0.shape} of u")
    if (u0 == u1).all():
        if not np.isfinite(u0).all():  # inf == inf: the solve below would refuse this u
            raise ValueError("u is not finite")
        return state
    (A1,), (diag_drift,), (spec_drift,) = _transport_stack(
        u0, np.asarray(state.A, dtype=complex), u1[None], tol,
        NEAR_DELTA_GUARD if enforce_guard else 0.0)
    return DeformationState(u=u1, A=A1, diag_drift=max(state.diag_drift, float(diag_drift)),
                            spectrum_drift=max(state.spectrum_drift, float(spec_drift)))


def radial_family(system, u_c, t_values, tol=1e-11):
    """Isomonodromic family along u(t) = u^c + t (u - u^c), seeded at u^c.

    The matrix of ``system`` prescribes A(u^c): its in-group entries (for
    pairs coalescing at u^c) must vanish (:func:`.model.check_vanishing`,
    :class:`SingularF1` otherwise) and are set to 0.  The family is grown outward from
    t = 1e-8 (in-group quotients are O(t) there, so the relative seeding
    error is O(1e-8)) and then transported to the requested t values.

    Returns the list of :class:`DeformationState` at ``t_values`` (sorted
    ascending internally, returned in the requested order).
    """
    u_c = np.asarray(u_c, dtype=complex)
    u1 = np.asarray(system.u, dtype=complex)
    v = u1 - u_c
    near = check_vanishing(system.A, u_c)  # SingularF1 unless the in-group entries vanish
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


@np.errstate(over="ignore", invalid="ignore")  # a reported value past the float range is refused
def vanishing_check(system, groups):
    """Vanishing-condition report for the in-group pairs of ``groups`` at the current u.

    For each pair report |A_ij|, the ratio |A_ij|/|u_i-u_j| and
    ||[B_i, B_j]||, with a verdict per the equivalence
    |A_ij| -> 0  <=>  [B_i, B_j] -> 0.  At gap 0 both ratios are None.
    With w_m row m of A+I, [B_i, B_j] = w_i[j] e_i w_j^T - w_j[i] e_j w_i^T has
    the two rows w_i[j] w_j and -w_j[i] w_i, so its max-norm is the larger of
    theirs; a reported commutator past the float range raises
    :class:`IllConditioned` naming the pair, as does any other reported value.
    """
    w = system.A_plus_I
    u = system.u
    scale = max(1.0, float(np.max(np.abs(system.A))))
    ratio_bound = 1e3 * scale
    rows = []
    for i, j in [(i, j) for g in groups for i in g for j in g if i < j]:
        gap = abs(u[i] - u[j])
        comm_norm = float(max(np.abs(w[i, j] * w[j]).max(), np.abs(w[j, i] * w[i]).max()))
        if not math.isfinite(comm_norm):
            raise IllConditioned(f"the residue commutator [B_{i}, B_{j}] leaves the float range")
        aij = max(abs(system.A[i, j]), abs(system.A[j, i]))
        ratio = aij / gap if gap > 0 else None
        comm_ratio = comm_norm / gap if gap > 0 else None
        if not math.isfinite(max(gap, aij, ratio or 0, comm_ratio or 0)):
            raise IllConditioned(f"|A_ij|, |u_i - u_j| or a ratio of the vanishing report of "
                                 f"pair ({i}, {j}) leaves the float range")
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


@np.errstate(over="ignore", invalid="ignore")  # a residual past the float range is refused
def integrability_residual(system, step=1e-3, tol=1e-12):
    """Residual of d_i omega_k - d_k omega_i = [omega_i, omega_k] by stencils.

    Central finite differences in u_i, u_k with the matrix A transported
    isomonodromically to each of the 2n stencil points u +- step e_i, all in
    one stacked solve, whose drift limit is 100 ``tol``; F_1 and every
    omega_k of the 2n stencil points and the centre are one stack
    (:func:`_distinct_omegas`).  Returns the max over pairs.  Raises
    :class:`ValueError` for a ``step`` that is 0 or not finite (SystemPair
    refuses a u that is not finite), and :class:`StepFailure` before any
    solve when two u_i are closer than COALESCE_TOL: there, on the
    coalescence locus, the reduced flow is singular and no stencil can be
    centred.  So does a stencil segment that comes within NEAR_DELTA_GUARD
    of the locus, as in :func:`transport`; unguarded, the solve crawls
    towards the singularity in ever shorter steps.  A residual past the
    float range raises :class:`IllConditioned`.
    """
    if not 0 < abs(step) < math.inf:
        raise ValueError(f"step must be finite and nonzero, not {step}")
    n = system.n
    u0 = np.asarray(system.u, dtype=complex)
    gaps = np.abs(u0[:, None] - u0[None, :]) + np.diag(np.full(n, np.inf))
    i, k = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[i, k] < COALESCE_TOL:
        raise StepFailure(f"u_{i} and u_{k} lie on the coalescence locus (gap "
                          f"{gaps[i, k]:.2e}): the integrability residual needs distinct u")
    targets = u0 + step * np.concatenate([np.eye(n), -np.eye(n)])
    A0 = np.asarray(system.A, dtype=complex)
    A1, _, _ = _transport_stack(u0, A0, targets, tol, NEAR_DELTA_GUARD)
    # no pair is coalesced: the guard put every stencil gap above NEAR_DELTA_GUARD,
    # and the centre's gaps are above COALESCE_TOL
    om = _distinct_omegas(np.concatenate([A1, A0[None]]), np.concatenate([targets, u0[None]]))
    d_om = (om[:n] - om[n:2 * n]) / (2 * step)  # d_om[i, k] = d_i omega_k
    om0 = om[2 * n]
    i, k = np.triu_indices(n, 1)
    comm = om0[i] @ om0[k] - om0[k] @ om0[i]  # [omega_i, omega_k]
    residual = float(np.max(np.abs(d_om[i, k] - d_om[k, i] - comm), initial=0.0))
    if not math.isfinite(residual):
        raise IllConditioned("the integrability residual leaves the float range")
    return residual
