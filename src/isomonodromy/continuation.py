"""Analytic continuation of Fuchsian solutions in the cut lambda-plane.

The system is linear, so the whole selected-solution basis
[Psi_0 ... Psi_{n-1}] is continued as one matrix (:func:`continue_basis`):
each column once from its series zone down to a common deep point below
every pole and cut, while the identity goes up the anti-cut ray of each
pole to its base point; that transition matrix applied to the descended
columns is the basis at the base point.  A small positive loop at u_j,
also carried from the identity, applied to that matrix gives the
monodromy M_j (:func:`monodromy_matrix`) and, projected onto Psi_j, the
whole row j of connection coefficients (:func:`connection_coefficients`)
through gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.

All transport of both Stokes routes runs on one batched Taylor carry
(:func:`carry`).  Each :class:`Piece` is a polyline about its pole, a
loop the CHORDS-gon inscribed in its circle, carrying an (n, w) block;
for the oracle's Laplace legs (:mod:`.laplace`) the carry returns the
integrals of e^{z x} times that block for each of its samples z instead.
Every piece's Taylor steps are planned first and cut into runs, every
run after the first carrying the identity: runs of one planned step in a
batch without samples, of at most CUT_STEPS in one with samples.  The
runs step in lockstep, a run leaving the batch once its steps are done,
and the piece's end is the product of their transition matrices, the
system being linear, taken by run index across the batch
(:func:`_compose`).  With samples a first pass carries only the runs
that a later run starts from, and a second every run from its own start
for its integrals: Gauss-Legendre sums over each step's Taylor
polynomial, taken by moments of the rule.  So the formula route makes
one carry of one lockstep step at any n, and the oracle one of at most
2 CUT_STEPS per Stokes pair.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .ode import MAX_ORDER, STEP_RATIO, TAIL_ORDERS, TAYLOR_EPS, tally, untested_orders
from .model import (BasisSingular, CutPlane, IllConditioned, NonAdmissibleError, SingularF1,
                    StepFailure, SystemPair, is_in_cell)
from .frobenius import _has_singular_solution, selected_solutions, selected_values, shift_exponents

DEFAULT_TOL = 1e-10
# largest in-group |alpha_k c_jk| / max(1, max|P|) connection_products accepts: it
# reads up to 1.7e-9 on the isomonodromic family and 2.5 delta at A_01 + delta
IN_GROUP_LIMIT = 1e-7
# largest |Im lambda'_k| whose e^(2 pi |Im lambda'_k|) stays in the float range: 112.97
IM_EXPONENT_LIMIT = math.log(sys.float_info.max) / (2 * math.pi)
# Taylor carry, past the step policy of ode: chords per loop, and the orders
# whose terms are kept before they are summed and integrated
CHORDS = 16
ORDER_BLOCK = 16
# lockstep steps of a pass with samples: a piece of more planned steps is cut
# into runs of CUT_STEPS, every run after the first carrying the identity.  A
# batch without samples takes runs of one step.  Runs of one step with samples
# too move the oracle's S_nu on the scale-0.9 sweep systems from 2.3e-12 to
# 3.9e-12 of max|S| from the formula's
CUT_STEPS = 4
# Laplace integrals: |z h| per step at most Z_SPAN, summed by PANELS
# Gauss-Legendre panels of NODES nodes on the step.  That is at most 8
# radians of e^{z h s} per panel; 12 nodes already integrate it to rounding
Z_SPAN = 32.0
PANELS = 4
NODES = 24


class Piece(NamedTuple):
    """A polyline lam = pole + x from x = a through the offsets ``via`` to a + b.

    ``y0`` is the value at x = a: an (n,) vector or an (n, w) block of
    columns.  For each sample in ``z`` :func:`carry` returns the Laplace
    integral of e^{z x} Y dx along the piece (the oracle's legs in
    :mod:`.laplace`).
    """

    pole: complex
    a: complex
    b: complex
    y0: np.ndarray
    z: np.ndarray = np.zeros(0, dtype=complex)
    via: tuple = ()


@np.errstate(over="ignore", invalid="ignore")  # a block, term or integral not finite is refused
def carry(fs: SystemPair, pieces):
    """Continue every piece's block by Taylor steps along its chords, or integrate it.

    First every piece's steps are planned (:func:`_plan`): from its current
    point along the current chord of its polyline by
    h = min(rest of the chord, STEP_RATIO rho, Z_SPAN / max|z|), rho its
    distance to the nearest pole and z its samples, so its terms fall at
    least as fast as STEP_RATIO^m times a power of m.  A piece is then cut
    into runs: one per planned step in a batch without samples, so that all
    of them take one lockstep step together, and runs of at most CUT_STEPS
    planned steps in a batch with samples.  The first run carries ``y0``,
    every later one the identity, and the piece's end is the ordered
    product Phi_K ... Phi_2 Y_1 of its runs' ends, the system being linear:
    one stacked product per run index over the whole batch
    (:func:`_compose`).  With samples the first pass carries only the runs
    that a later run starts from, and a second every run from its start
    Phi_{r-1} ... Y_1, in the one width of a batch with samples, for its
    integrals, which sum to the piece's.  So a batch without samples takes
    one lockstep step, and one with samples at most 2 CUT_STEPS.

    The runs of a pass are one (n, sum w) matrix, run r in w_r columns of
    it.  At lam0 the Taylor terms T_m = Y_m h^m of the solution obey
    T_{m+1} = (M - m I) T_m h / ((m + 1)(lam0 - u)), M = -(A+I), row k
    divided by lam0 - u_k: per order, one product of the shared
    (M - m I) / (m + 1) with the whole batch, then row k of run r scaled
    by h_r / (lam0_r - u_k).  Every run takes its next planned step in
    lockstep; a run whose steps are done leaves the step: the orders, the
    integrals and the sum of the terms run on the columns of the runs that
    move only, so a run takes the same steps as it would alone.  Orders
    below log(TAYLOR_EPS) / log(max |h| / rho) are summed untested; from
    there the step ends once the last two terms of every moving run are
    below TAYLOR_EPS max|Y_r|.

    The Laplace integral J_p,i of e^{z_p,i x} Y_p dx gains, per step, the
    integral over the step's polynomial Y_p(x0 + s h) = sum_m T_m s^m,
    s in [0, 1], by a composite Gauss-Legendre rule of PANELS panels of
    NODES nodes, at most Z_SPAN / PANELS = 8 in |z h| per panel: node
    weights once per step (:func:`_node_weights`), then the terms by their
    moments (:func:`_fold`) every ORDER_BLOCK orders, as they are summed.

    Reports one solve, one step per lockstep step, one nfev per order and
    the runs each step moved, as piece_steps, to :func:`.ode.counting`.
    Raises :class:`ValueError` before any step for a batch of another shape
    (:func:`_batch_shape`); :class:`StepFailure`, from the plan, for a
    piece that meets a pole or that a step leaves where it was (x + h == x,
    as on a path through a pole), and for a block, Taylor term or integral
    that is not finite or a step not converged by MAX_ORDER.  Returns the end block Y_p(1) of
    every piece of a batch without samples, and the integrals of a batch with
    samples as one (P, nz) + block array J, J[p, i] the one for z_p,i.
    """
    n, P = fs.n, len(pieces)
    blocks = [np.asarray(p.y0, dtype=complex) for p in pieces]
    widths = np.array([b.size // n for b in blocks])
    nz, w = _batch_shape([p.z.size for p in pieces], widths.tolist())
    z = np.array([p.z for p in pieces], dtype=complex).reshape(P, nz)
    # lam - u_k = (pole - u_k) + x: exactly x on a loop at u_k
    offset = np.array([p.pole for p in pieces], dtype=complex)[:, None] - fs.u
    reach_z = (Z_SPAN / np.abs(z).max(1)).tolist() if nz else [math.inf] * P
    X, H, dists, rhos, planned = _plan(pieces, offset, reach_z)
    # run r, the index[r]-th of piece owner[r], takes its planned steps
    # start[r]:start[r] + length[r]: CUT_STEPS of them with samples, one without
    cut = CUT_STEPS if nz else 1
    count = np.maximum(-(-planned // cut), 1)
    owner = np.repeat(np.arange(P), count)
    index = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    start = index * cut
    length = np.minimum(planned[owner] - start, cut)
    # later[r]: run r + 1 goes on from the end of run r
    later = np.append(owner[1:] == owner[:-1], False)
    # the integrals of each run, from the second pass
    J = np.zeros((owner.size, nz, n, w), dtype=complex)
    # (M - m I) / (m + 1) for the orders m reached so far, in a list: taking an
    # item of a list costs less than indexing an array, and the order loop does
    # it each order; it grows by ORDER_BLOCK orders past the ones a step asks for
    shifted = []
    # the Taylor terms of a step, folded into their sum (and their integrals)
    # every ORDER_BLOCK orders
    rows = ORDER_BLOCK + 2
    steps = nfev = piece_steps = 0
    every = np.ones_like(later)
    for carried, second in [(later, False), (every, True)] if nz else [(every, False)]:
        sel = np.flatnonzero(carried)
        if not sel.size:
            continue
        run_owner, run_start, run_length = owner[sel], start[sel], length[sel]
        run_index = index[sel]
        head = run_index == 0
        if second:
            # every run from its start: its piece's block, or the first pass's end
            # of the run before it
            Y = np.empty((sel.size, n, w), dtype=complex)
            Y[head] = [blocks[p].reshape(n, -1) for p in run_owner[head]]
            if not head.all():
                Y[~head] = ends[run_index[~head] - 1, run_owner[~head]]
            run_widths = np.full(sel.size, w)
            Y = Y.transpose(1, 0, 2).reshape(n, -1)
        else:
            # a first run from its piece's block, every later run from the identity
            run_widths = np.where(head, widths[run_owner], n)
            one = np.eye(n, dtype=complex)
            Y = np.concatenate([blocks[p].reshape(n, -1) if own else one
                                for p, own in zip(run_owner.tolist(), head.tolist())], axis=1)
        # run sel[i] is columns first[i]:first[i] + run_widths[i] of the batch
        first = np.cumsum(run_widths) - run_widths
        buf = np.empty(rows * Y.size, dtype=complex)
        terms, width = [], 0
        for k in range(int(run_length.max())):
            at = np.minimum(run_start + k, len(H) - 1)
            h = np.where(k < run_length, H[at, run_owner], 0)
            move = np.flatnonzero(h)
            size = np.abs(Y).max(0)
            if not np.isfinite(size).all():
                raise StepFailure(f"continuation of {P} piece(s) is not finite")
            # the step runs on the columns of the runs that move
            step = at[move], run_owner[move]
            hm, wm, dist = h[move], run_widths[move], dists[step]
            cols = np.repeat(h != 0, run_widths)
            floor = np.repeat(TAYLOR_EPS * np.maximum.reduceat(size, first)[move], wm)
            # h / (lam0 - u), row k of run r over lam0_r - u_k, on each of its columns
            scale = np.repeat((hm[:, None] / dist).T, wm, axis=1)
            hi = untested_orders(float(np.max(np.abs(hm) / rhos[step])))
            # term m in row m - done of the step's view of the buffer, rows
            # below done summed into total
            T = buf[:rows * scale.size].reshape(rows, n, -1)
            if scale.size != width:
                # the rows of T as views, made again only when the batch narrows
                terms, width = list(T), scale.size
            T[0] = Y[:, cols]
            if second:
                weights = _node_weights(X[step], hm, z[step[1]])
                by_run = T.reshape(rows, n, move.size, -1)
            total, integral, done, lo = 0, 0, 0, 0
            while True:
                if hi > len(shifted):
                    orders = np.arange(len(shifted), min(MAX_ORDER, hi + ORDER_BLOCK))[:, None, None]
                    shifted += list((-fs.A_plus_I - orders * np.eye(n)) / (orders + 1))
                for m in range(lo, hi):
                    if m + 1 - done == rows:
                        total = total + T[:rows - 2].sum(0)
                        if second:
                            integral = integral + _fold(by_run[:rows - 2], weights, done)
                        T[:2] = T[rows - 2:]
                        done += rows - 2
                    nxt = terms[m + 1 - done]
                    np.matmul(shifted[m], terms[m - done], out=nxt)
                    np.multiply(nxt, scale, out=nxt)
                if np.all(np.abs(T[hi - 1 - done:hi + 1 - done]).max(1) <= floor):
                    break
                if not np.isfinite(T[hi - done]).all():
                    raise StepFailure(f"continuation of {P} piece(s) is not finite")
                if hi == MAX_ORDER:
                    raise StepFailure(f"Taylor step of {move.size} piece(s) did not converge "
                                      f"in {MAX_ORDER} orders")
                lo, hi = hi, min(MAX_ORDER, hi + TAIL_ORDERS)
            T = T[:hi + 1 - done]
            if second:
                J[sel[move]] += integral + _fold(by_run[:hi + 1 - done], weights, done)
            Y[:, cols] = total + T.sum(0)
            steps += 1
            nfev += hi
            piece_steps += move.size
        if not (np.isfinite(Y).all() and np.isfinite(J).all()):
            raise StepFailure(f"continuation of {P} piece(s) ends not finite")
        if not second:
            ends = _compose(Y, run_widths, run_owner, run_index, P)
    tally(steps, nfev, piece_steps)
    if not nz:
        return [ends[-1, p, :, :w].reshape(b.shape) for p, (b, w) in enumerate(zip(blocks, widths))]
    return np.add.reduceat(J, np.flatnonzero(start == 0)).reshape((P, nz) + blocks[0].shape)


def _batch_shape(counts, widths):
    """``(samples, width)`` of the first piece of a batch whose pieces hold ``counts`` samples
    in blocks of ``widths`` columns: a ValueError for no piece, or where a piece has samples
    and another has another count or width."""
    if not counts or (max(counts) and len(set(zip(counts, widths))) > 1):
        raise ValueError(f"a batch needs a piece, and a batch with samples one sample count "
                         f"and one block width in every piece; got samples {counts} and "
                         f"widths {widths}")
    return counts[0], widths[0]


def _compose(Y, widths, owner, index, P):
    """Every run's end Phi_i ... Phi_2 Y_1 in its piece, one stacked product per run index.

    The runs of a pass lie side by side in ``Y``, run r in the next
    ``widths[r]`` columns: the index[r]-th run of piece owner[r], its end
    Y_1 carried from the piece's block when index[r] is 0, its transition
    matrix Phi carried from the identity otherwise.  Returns E (K, P, n, w),
    E[i, p] the end of run i of piece p, in the width w of the widest first
    run, a narrower block padded with zero columns.  A piece of fewer runs
    is padded with the identity, so E[-1] holds every piece's end.
    """
    n = Y.shape[0]
    head = index == 0
    blank = np.repeat(~head, widths)
    K = int(index.max()) + 1
    # column c of Y is column within[c] of its run
    within = np.arange(Y.shape[1]) - np.repeat(np.cumsum(widths) - widths, widths)
    E = np.zeros((K, P, n, int(widths[head].max())), dtype=complex)
    E[0, np.repeat(owner[head], widths[head]), :, within[~blank]] = Y[:, ~blank].T
    Phi = np.empty((K - 1, P, n, n), dtype=complex)
    Phi[:] = np.eye(n)
    Phi[index[~head] - 1, owner[~head]] = Y[:, blank].reshape(n, -1, n).transpose(1, 0, 2)
    for i, phi in enumerate(Phi):
        np.matmul(phi, E[i], out=E[i + 1])
    return E


def _plan(pieces, offset, reach_z):
    """Every piece's Taylor steps, planned in lockstep before any order is summed.

    A piece steps from its current point x along the current chord of its
    polyline a, via..., a + b by the rule of :func:`carry`, skipping a
    vertex it is on already; ``offset`` holds pole - u_k per piece and
    ``reach_z`` its z cap.  Returns the points x (S + 1, P), the steps h (S, P), 0 once a
    piece is at the end of its path, and at the start of each step
    lam - u (S, P, n) and rho (S, P), with the number of planned steps of
    each piece.  Raises :class:`StepFailure` for a piece that meets a pole
    or that a step leaves where it was.
    """
    P = len(pieces)
    # Python scalars: their arithmetic is numpy's scalar arithmetic, at less cost
    paths = [[complex(v) for v in (p.a, *p.via, p.a + p.b)] for p in pieces]
    x = [path[0] for path in paths]
    ahead = [1] * P  # index of the vertex each piece heads for
    xs, hs, dists, rhos = [x], [], [], []
    while True:
        dist = offset + np.array(x)[:, None]
        rho = np.abs(dist).min(1)
        h, x_next = [0j] * P, list(x)
        for i, (path, r) in enumerate(zip(paths, rho.tolist())):
            # a vertex the piece is on already takes no step: no chord is empty
            while ahead[i] < len(path) and path[ahead[i]] == x[i]:
                ahead[i] += 1
            if ahead[i] == len(path):
                continue
            if not r > 0:
                raise StepFailure(f"continuation meets a pole at {pieces[i].pole + x[i]}")
            d = path[ahead[i]] - x[i]
            reach = min(STEP_RATIO * r, reach_z[i])
            if abs(d) <= reach:
                h[i], x_next[i] = d, path[ahead[i]]
                ahead[i] += 1
            else:
                h[i] = d * (reach / abs(d))
                x_next[i] = x[i] + h[i]
                if x_next[i] == x[i]:
                    raise StepFailure(f"continuation stalls at {pieces[i].pole + x[i]}: a "
                                      f"step of {reach:.1e} does not move it")
        if not any(h):  # every piece is at the end of its path
            break
        hs.append(h)
        dists.append(dist)
        rhos.append(rho)
        x = x_next
        xs.append(x)
    H = np.array(hs, dtype=complex).reshape(-1, P)
    return (np.array(xs, dtype=complex), H, np.array(dists).reshape((-1,) + offset.shape),
            np.array(rhos).reshape(-1, P), (H != 0).sum(0))


def _node_weights(x, h, z):
    """h w_j e^{z (x + h s_j)} at the nodes s_j of ``_QUADRATURE``, as real pairs (nodes, 2 P nz).

    Piece p steps from x_p by h_p; ``z`` holds its samples (P, nz).  Node
    s_j = left_q + t_j of panel q splits its exponential as
    e^{z (x + h left_q)} e^{z h t_j}: PANELS + NODES of them.
    """
    left, local, weights, _ = _QUADRATURE
    zh = z * h[:, None]
    panel = h[:, None] * np.exp(z * x[:, None] + zh * left[:, None, None])
    w = panel[:, None] * (weights[:, None, None] * np.exp(zh * local[:, None, None]))
    return w.reshape(left.size * local.size, -1).view(float)


def _fold(T, weights, m0):
    """Integrals of the terms T_m, m >= m0, of Y_p(x_p + s h_p) = sum_m T_m s^m, (P, nz, n, w).

    ``T`` has shape (orders, n, P, w), ``weights`` is the step's
    :func:`_node_weights`.  The rule runs by moments, so no polynomial is
    evaluated at the nodes: mu_m = h sum_j w_j e^{z (x + h s_j)} s_j^m is one
    real product with the power table, and the integral sum_m mu_m T_m one
    product per piece.
    """
    M, n, P, w = T.shape
    mu = (_QUADRATURE[3][m0:m0 + M] @ weights).view(complex)
    mu = np.ascontiguousarray(mu.reshape(M, P, -1).transpose(1, 2, 0))
    terms = np.ascontiguousarray(T.transpose(2, 0, 1, 3)).reshape(P, M, -1)
    return (mu @ terms).reshape(P, -1, n, w)


def _composite_gauss(panels, nodes):
    """A composite Gauss rule on [0, 1]: panel ends, local nodes, weights and the power table.

    Node s_j = left_q + t_j lies in panel q; the rule's weight of every node
    is ``weights[j]``, and ``powers[m, j]`` is s_j^m, m <= MAX_ORDER, nodes
    in panel-major order.
    """
    t, w = leggauss(nodes)
    left = np.arange(panels) / panels
    local = 0.5 * (t + 1) / panels
    s = (left[:, None] + local).ravel()
    with np.errstate(under="ignore"):  # high powers of the first nodes are 0
        powers = s ** np.arange(MAX_ORDER + 1)[:, None]
    return left, local, 0.5 * w / panels, powers


_QUADRATURE = _composite_gauss(PANELS, NODES)


def _segment(start, end, value, via=()):
    """Straight piece from ``start`` through the points ``via`` to ``end``."""
    return Piece(start, 0.0, end - start, value, via=tuple(p - start for p in via))


def _loop(fs, j, base_point, value):
    """Positive loop round u_j: the CHORDS-gon inscribed in the circle, from and to the base point."""
    x = base_point - fs.u[j]
    turn = np.exp(2j * math.pi * np.arange(1, CHORDS) / CHORDS)
    return Piece(fs.u[j], x, 0.0, value, via=tuple(x * turn))


# ---------------------------------------------------------------------------
# monodromy and connection coefficients
# ---------------------------------------------------------------------------


def _base_points(fs, cut: CutPlane):
    """Each pole's base point: below u_j on the ray opposite to its cut, half a loop radius out."""
    return fs.u - 0.5 * _loop_radii(fs, cut) * cut.direction()


def _loop_radii(fs, cut: CutPlane):
    """Every pole's loop radius: clear of the other poles and of their cuts."""
    # u_j - u_m turned so that the cut ray of pole m runs along the positive axis
    d = (fs.u[:, None] - fs.u) / cut.direction()
    # distance from u_j to the cut ray of pole m, which starts at u_m
    clear = np.where(d.real > 0, np.abs(d.imag), np.abs(d))
    np.fill_diagonal(clear, np.inf)
    return 0.3 * clear.min(1)


def _depth_frame(fs, cut: CutPlane):
    """Depth needed so a lateral move stays below every pole and cut, half a pole spread clear.

    A deeper point lengthens the route, and at large A a longer route
    amplifies the error of the connection products: on the scale-0.9 sweep
    systems the worst formula-oracle difference is 8.7e-9 of max|S| at half
    a spread and 2.9e-7 at two spreads plus one.
    """
    depths = (fs.u * np.conj(cut.direction())).real
    spread = np.abs(fs.u[:, None] - fs.u).max() if fs.n > 1 else 1.0
    return depths.max() - depths.min() + 0.5 * spread


@np.errstate(over="ignore", invalid="ignore")  # refused by check_radius, or the caller's checks
def continue_basis(fs: SystemPair, cut: CutPlane, sols, poles):
    """Carry the selected-solution basis to the anti-cut base point of poles, and loop there.

    One :func:`carry` holds three kinds of piece.  Each Psi_k (series data
    ``sols[k]``) is continued once from its series value at its own base
    point (the n values are one :func:`.frobenius.selected_values` call, at
    radius |base_k - u_k| and argument ``cut.arg_from(base_k, u_k)``) down
    the anti-cut ray of u_k and across to the deep point u_0 - D e^{i eta},
    unless k is the only requested pole: a polyline per column.  Beside them
    the identity goes from the deep point across and up the anti-cut ray of
    each u_j in ``poles`` to its base point, and once round the positive
    loop at each u_j from its base point.  The ascents' transition matrices
    applied to the descended columns, one stacked product, give the basis at
    each base point, where column j is set to its series value rather than
    sent through the deep point and back.  With the deep point half a pole
    spread below the poles (:func:`_depth_frame`) composing the ascent moves
    S_nu by no more than rounding; from two spreads plus one it lost up to
    90x there.

    The rays opposite to the cuts cross no cut and stay a loop radius away
    from the other poles, and the lateral moves run in the half-plane
    below every pole and cut, so all routes are homotopic in the cut plane.
    Returns the base points (J,), the bases Psi (J, n, n) and the loops'
    transition matrices Phi (J, n, n) of the J poles, in the order of
    ``poles``: Phi[i] @ Psi[i] is Psi[i] carried round the loop at poles[i].
    """
    poles = np.asarray(poles, dtype=int)
    n = fs.n
    bases = _base_points(fs, cut)
    if not poles.size:
        return bases[:0], np.zeros((0, n, n), dtype=complex), np.zeros((0, n, n), dtype=complex)
    seeds = selected_values(sols, np.abs(bases - fs.u), list(map(cut.arg_from, bases, fs.u)))
    low = fs.u - _depth_frame(fs, cut) * cut.direction()
    descended = [m for m in range(n) if np.any(poles != m)]
    one = np.eye(n, dtype=complex)
    ends = carry(fs, [_segment(bases[m], low[0], seeds[m], via=(low[m],)) for m in descended]
                 + [_segment(low[0], bases[j], one, via=(low[j],)) for j in poles]
                 + [_loop(fs, j, bases[j], one) for j in poles])
    d, J = len(descended), poles.size
    Psi = np.empty((J, n, n), dtype=complex)
    Psi[:, :, descended] = np.array(ends[d:d + J]) @ np.column_stack(ends[:d])
    Psi[np.arange(J), :, poles] = seeds[poles]
    return bases[poles], Psi, np.array(ends[d + J:])


def monodromy_matrix(fs: SystemPair, k: int, cut: CutPlane, N=40):
    """Monodromy M_k of the selected-solution basis around a small loop at u_k.

    Expresses gamma_k Psi = Psi M_k: identity except row k, whose diagonal
    entry is e^{-2 pi i lambda'_k} and off-diagonal entries are
    alpha_k c_kj.  Raises :class:`BasisSingular` when the selected
    solutions fail to form a fundamental system at the base point.
    """
    sols = selected_solutions(fs, N)
    _, [Psi], [Phi] = continue_basis(fs, cut, sols, (k,))
    cond = np.linalg.cond(Psi)
    if not np.isfinite(cond) or cond > 1e12:
        raise BasisSingular(
            f"selected solutions are not a fundamental system near u_{k} "
            f"(condition {cond:.2e}); gamma-shift the system first"
        )
    return np.linalg.solve(Psi, Phi @ Psi)


def alpha_factor(lambda_prime_k, klass):
    """alpha_k = e^{-2 pi i lambda'_k} - 1, or 2 pi i for integer exponents."""
    if klass == "noninteger":
        return cmath.exp(-2j * math.pi * complex(lambda_prime_k)) - 1.0
    return 2j * math.pi


@dataclass
class ConnectionData:
    """Connection coefficients c_jk with per-entry provenance tags.

    ``C``, ``alpha`` and ``lambda_prime`` belong to one system: the shifted
    one A - gamma I when :func:`connection_products` shifted, ``gamma``
    recording the shift (0 when it did not), ``in_group_product`` its
    in-group check (None without a coalescing geometry).
    """

    C: np.ndarray
    alpha: np.ndarray
    lambda_prime: np.ndarray
    eta: float
    provenance: np.ndarray
    residuals: np.ndarray
    gamma: float = 0.0
    in_group_product: float | None = None


def connection_coefficients(fs: SystemPair, cut: CutPlane, tol=DEFAULT_TOL, N=40):
    """Extract the full matrix of connection coefficients at fixed u.

    The selected-solution basis is carried to a base point near each u_j
    and around one small positive loop there (:func:`continue_basis`); each
    column of the loop difference is projected onto Psi_j, every row j in
    one stacked product: gamma_j Psi_k - Psi_k = alpha_j c_jk Psi_j.  Diagonal entries follow
    from the arithmetic class; every other entry is projected, in-group ones
    too (:func:`connection_products` applies the in-group rule), unless its
    pole or solution is degenerate.  ``tol`` sets only the projection limit:
    :class:`IllConditioned`, naming the pole, is raised if a projection
    residual, relative to the continued solution, exceeds max(100 tol, 1e-7)
    or is not finite: the worst (j, k) of the first row with one, a nan
    first.  The Taylor carry does not read it.  Before any
    carry, a pole with 2 pi |Im lambda'_k| past log of the largest float,
    or 2 pi |Re lambda'_k| past the largest float, raises
    :class:`IllConditioned` naming it: e^{-2 pi i lambda'_k} of alpha_k, or
    the e^{2 pi i lambda'_k} of the Stokes formula, leaves the float range
    there.
    """
    n = fs.n
    im = np.abs(fs.lambda_prime.imag)
    if im.max() > IM_EXPONENT_LIMIT:
        m = int(np.argmax(im))
        raise IllConditioned(f"Im lambda'_k = {fs.lambda_prime[m].imag:.6g} at pole {m}: "
                             f"e^(2 pi |Im lambda'_k|) leaves the float range above "
                             f"|Im lambda'_k| = {IM_EXPONENT_LIMIT:.2f}")
    re = np.abs(fs.lambda_prime.real)
    if re.max() > sys.float_info.max / (2 * math.pi):
        m = int(np.argmax(re))
        raise IllConditioned(f"Re lambda'_k = {fs.lambda_prime[m].real:.6g} at pole {m}: "
                             f"2 pi lambda'_k leaves the float range")
    classes = [fs.integer_class(m) for m in range(n)]
    alpha = np.array([alpha_factor(fs.lambda_prime[m], classes[m]) for m in range(n)])
    C = np.diag([1.0 if c == "noninteger" else 0.0 for c in classes]).astype(complex)
    prov = np.full((n, n), "monodromy-projection", dtype=object)
    np.fill_diagonal(prov, "diagonal-by-class")
    resid = np.zeros((n, n))
    sols = selected_solutions(fs, N)
    for j in range(n):
        degenerate = classes[j] == "negative_integer" and not _has_singular_solution(fs, sols[j])
        prov[j, [k != j and (degenerate or sols[k].zero) for k in range(n)]] = \
            "zero-by-degenerate-singular"
    projected = prov == "monodromy-projection"
    rows = np.flatnonzero(projected.any(1))
    _, Psi, Phi = continue_basis(fs, cut, sols, rows)
    # column j of the basis at the base point of u_j, for each row j
    psi = Psi[np.arange(rows.size), :, rows]
    # numpy's warnings off and one check after: a residual that is not finite fails it
    with np.errstate(all="ignore"):
        diff = Phi @ Psi - Psi
        c = ((psi.conj()[:, None] @ diff)[:, 0] / (psi.conj() * psi).sum(1).real[:, None]
             / alpha[rows, None])
        r = np.linalg.norm(diff - alpha[rows, None, None] * psi[:, :, None] * c[:, None], axis=1)
        scale = np.maximum(np.linalg.norm(Psi, axis=1), 1.0)
        resid[rows] = np.where(projected[rows], r / scale, 0.0)
        target = np.linalg.norm(psi, axis=1)
    # the worst residual of each row, a nan if there is one: the first row it fails names it
    worst = np.argmax(resid[rows], axis=1)
    failed = np.flatnonzero(~(resid[rows, worst] <= max(100 * tol, 1e-7)))
    if failed.size:
        i = failed[0]
        j, k = rows[i], worst[i]
        raise IllConditioned(f"projection residual {resid[j, k]:.2e} for c[{j},{k}] at pole "
                             f"{j} (condition of target {target[i]:.2e})")
    C[rows] = np.where(projected[rows], c, C[rows])
    return ConnectionData(C=C, alpha=alpha, lambda_prime=fs.lambda_prime, eta=cut.eta,
                          provenance=prov, residuals=resid)


def connection_products(system, cut: CutPlane, tol=DEFAULT_TOL, N=40, geometry=None):
    """Products alpha_k c_jk of the system shifted by gamma, with its connection data.

    The shift is the one :func:`.frobenius.shift_exponents` picks for both
    routes: 0 unless a diagonal entry of A lies within SHIFT_MARGIN of an
    integer, where the products lose accuracy, or an eigenvalue is an
    integer.  Y -> z^{-gamma} Y maps the system of A onto that of
    A - gamma I and leaves the Stokes matrices as they are, so the pair is
    assembled from these products with the shifted exponents
    ``conn.lambda_prime``.  A caller who wants another shift passes
    :func:`.frobenius.gamma_shift` of the system.

    The in-group rule lives here alone: on the isomonodromic family the c_jk
    of a pair coalescing at the u^c of ``geometry`` vanish (the paper's
    Theorem 30agosto2020-5), so C's in-group entries are set to 0, tagged
    ``"zero-by-coalescence"``, once checked: :class:`SingularF1`, naming
    (j, k), when the largest in-group product over max(1, max|P|), kept as
    ``conn.in_group_product``, exceeds IN_GROUP_LIMIT.  P keeps the measured
    products.  With any ``geometry`` the pair is assembled with the signs
    at u^c, so a u outside their tau-cell raises NonAdmissibleError naming
    the pair: a tie at u or a crossed cross-group sign
    (:func:`.model.is_in_cell`; coalescence at u is the locus and allowed).

    Returns ``(P, conn)`` with P[j, k] = alpha_k c_jk off the diagonal, 0 on it.
    """
    g, shifted = shift_exponents(system)
    conn = connection_coefficients(shifted, cut, tol=tol, N=N)
    conn.gamma = g
    P = conn.C * conn.alpha
    np.fill_diagonal(P, 0)
    if geometry is None:
        return P, conn
    for j, k, reason in is_in_cell(system.u, geometry)[1]:
        if reason != "coalescence":
            raise NonAdmissibleError(f"u leaves the tau-cell of u^c at pair ({j}, {k}): {reason}")
    in_group = geometry.in_group
    if in_group.any():
        scale = max(1.0, float(np.max(np.abs(P))))
        j, k = np.argwhere(in_group)[np.argmax(np.abs(P[in_group]))]
        conn.in_group_product = float(abs(P[j, k])) / scale
        if not conn.in_group_product <= IN_GROUP_LIMIT:
            raise SingularF1(f"vanishing conditions violated: in-group product alpha_k c_jk at "
                             f"(j, k) = ({j}, {k}) is {abs(P[j, k]):.2e}, above the bound "
                             f"IN_GROUP_LIMIT max(1, max|P|) = {IN_GROUP_LIMIT * scale:.2e}")
        conn.C[in_group] = 0.0
        conn.provenance[in_group] = "zero-by-coalescence"
    return P, conn
