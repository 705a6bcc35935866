"""Laplace transform of local solutions along hairpin and half-line contours.

Columns of the sectorial fundamental solutions of dY/dz = (Lambda + A/z) Y
are produced as contour integrals of the selected/singular solutions of the
dual Fuchsian system:

* lambda'_k not integer:  (1/2 pi i) * hairpin around u_k of e^{z lam} Psi_k;
* lambda'_k natural:      residue of the pole part plus a half-line integral
  of the analytic selected series (the log part reduces to a half-line);
* lambda'_k negative int: half-line integral of the analytic Psi_k.

Every column is a local-series start near u_k plus one leg u_k + t e^{id},
t from the start out to t_max, for all samples z_1 ... z_m of a ray at
once.  The start lies where the series tail is below ``tol``
(:func:`_start`).  The leg is a :class:`.continuation.Piece` with the
samples, and the Taylor carry :func:`.continuation.carry` returns
J_i = int e^{z_i x} Psi_k dx, x = t e^{id}, summed over the Taylor
polynomial of every step: the same rank-one transport the formula route
uses, with no dense output.  A hairpin's small circle is a second piece,
started from the series on the branch of arg d - 2 pi.  Where Psi_k is
analytic at u_k (the integer classes) the series out to the start is
itself one Taylor step, integrated by the carry's rule.

Columns are computed in batches (:func:`laplace_columns`): validation
and the series start run per column, and the pieces of every column in
the batch go through one :func:`.continuation.carry`.

All returned column values are *reduced*: the exponential prefactor
e^{z u_k} is factored out so that quadrature never overflows; callers that
need the raw column multiply it back.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    ANGLE_TOL,
    COALESCE_TOL,
    QuadratureDivergence,
    SingularF1,
    VANISH_TOL,
    angular_distance_mod_pi,
    check_vanishing,
    nearest_integer,
)
from .frobenius import (
    FuchsianSystem,
    cgamma,
    horner,
)
from .continuation import Piece, Z_SPAN, _step_integrals, carry

logger = logging.getLogger(__name__)

# stated relative error of every carried J, added to a column's error
# estimate (the Taylor carry itself runs to continuation.TAYLOR_EPS)
CARRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# formal solution recursion
# ---------------------------------------------------------------------------


def f1(system):
    """Leading formal coefficient: (F_1)_ij = A_ij/(u_j-u_i), diagonal closed up.

    Off the coalescence locus this is the k = 1 step of :func:`formal_recursion`.
    Coalesced pairs (gap below COALESCE_TOL) require |A_ij| below VANISH_TOL
    max(1, max|A|) (:func:`.model.check_vanishing`) and get the quotient 0: the quotient
    matrix of the deformation equations, not the formal F_1, whose in-group
    entries at u^c are not 0.  Raises :class:`SingularF1` otherwise.
    """
    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    near = check_vanishing(A, u)
    off = A - np.diag(np.diag(A))
    F = np.where(near, 0, off) / np.where(near, 1, u[None, :] - u[:, None])
    np.fill_diagonal(F, -np.einsum("ij,ji->i", off, F))
    return F


@dataclass
class FormalSolution:
    """Truncated coefficients F_l of the formal solution at z = infinity."""

    F: list
    free_positions: list = field(default_factory=list)
    obstructed_positions: list = field(default_factory=list)


def formal_recursion(system, L):
    """Coefficients F_1..F_L of the formal solution at z = infinity.

    One loop from F_0 = I, at and off the coalescence locus.  Order k of
    dY/dz = (Lambda + A/z) Y for Y = (I + sum F_k z^-k) z^Lambda' e^{z Lambda} reads

        (u_j - u_i) (F_k)_ij = (lambda'_i - lambda'_j + k - 1) (F_{k-1})_ij + (off F_{k-1})_ij,

    off = offdiag(A).  Pairs with |u_i - u_j| >= COALESCE_TOL divide by the gap.  In-group
    pairs, the diagonal included (off the locus, the diagonal alone), take the next order's
    equation, (F_k)_ij = -(off F_k)_ij / (lambda'_i - lambda'_j + k), in-group A_ij counting
    as 0 once :func:`f1` has checked that they vanish.  An in-group pair i != j with
    lambda'_j - lambda'_i = k is a free parameter of the formal-solution family: it is set
    to 0 and reported in ``free_positions`` as (k, i, j), and also in
    ``obstructed_positions`` (a log obstruction) where its right-hand side exceeds
    VANISH_TOL max(1, max|off| max|F_k|), F_k's cross entries setting the scale.
    """
    f1(system)
    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    lp = np.diag(A)
    gap = u[None, :] - u[:, None]
    same = np.abs(gap) < COALESCE_TOL
    gap[same] = 1.0
    off = np.where(same, 0, A)
    shift = lp[:, None] - lp[None, :]
    free = sorted((r, i, j) for i, j in np.argwhere(same).tolist()
                  if 1 <= (r := nearest_integer(lp[j] - lp[i]) or 0) <= L)
    den = np.where(same, shift, np.inf)  # in-group divisors less k; inf across groups
    F = np.eye(u.size, dtype=complex)
    Fs, obstructed = [], []
    for k in range(1, L + 1):
        F = np.where(same, 0, ((shift + (k - 1)) * F + off @ F) / gap)
        rhs = -(off @ F)
        div = den + k
        for r, i, j in free:
            if r == k:
                div[i, j] = np.inf  # the free entry stays 0
                if abs(rhs[i, j]) > VANISH_TOL * max(1.0, np.max(np.abs(off)) * np.max(np.abs(F))):
                    obstructed.append((k, i, j))
        F = np.where(same, rhs / div, F)
        Fs.append(F)
    return FormalSolution(F=Fs, free_positions=free, obstructed_positions=obstructed)


# ---------------------------------------------------------------------------
# Laplace columns
# ---------------------------------------------------------------------------


def _direction_for(labels, h, theta, u):
    """The contour direction d for computing Y at label h*mu and arg z = theta.

    d must lie in the label's eta-window (eta_{m+1}, eta_m), inside the
    convergence half-plane (pi/2 - theta, 3 pi/2 - theta), and away from
    inter-pole directions mod pi.  If 128 nudges through the window find no
    clear direction, the last one is used and logged as a WARNING.
    """
    m = h * labels.mu
    eta_hi = 1.5 * math.pi - labels.tau_nu(m)      # eta_m
    eta_lo = 1.5 * math.pi - labels.tau_nu(m + 1)  # eta_{m+1}
    lo = max(eta_lo, 0.5 * math.pi - theta)
    hi = min(eta_hi, 1.5 * math.pi - theta)
    if not lo < hi:
        raise QuadratureDivergence(
            f"arg z = {theta:.4f} outside the sector of label {m}"
        )
    pad = 0.05 * (hi - lo)
    lo2, hi2 = lo + pad, hi - pad
    d = min(max(math.pi - theta, lo2), hi2)
    # nudge off inter-pole directions so the cuts miss the poles
    bad = [cmath.phase(a - b) for i, a in enumerate(u) for b in u[i + 1:]
           if abs(a - b) > COALESCE_TOL]
    step = (hi2 - lo2) / 64.0

    def blocked(x):
        return any(angular_distance_mod_pi(x, bb) < 16 * ANGLE_TOL for bb in bad)

    tries = 0
    while blocked(d) and tries < 128:
        d = lo2 + ((d - lo2 + step) % (hi2 - lo2))
        tries += 1
    if blocked(d):
        logger.warning("_direction_for: no direction in (%.10f, %.10f) clear of the "
                       "inter-pole directions after 128 nudges; using %.10f", lo2, hi2, d)
    return d


def _t_max(rate, power_growth):
    """Leg length R at which e^{-rate R} R^power_growth is about e^-42."""
    R = 42.0 / rate
    for _ in range(3):
        R = (42.0 + power_growth * math.log(max(R, 1.0))) / rate
    return R


def _start(coeffs, cap, tol):
    """Where the carry takes over from a local series: ``(t, tail)``.

    t is the largest radius up to ``cap`` at which each of the last two
    terms |c_N| t^N and |c_{N-1}| t^{N-1} of the series is at most
    tol / 2 times its size max|c_0| (the largest |c_l| if c_0 = 0);
    ``tail`` is their sum there over that size, the truncation error of
    the start value relative to Psi_k.
    """
    size = np.abs(coeffs).max(1)
    scale = size[0] or size.max()
    N = len(size) - 1
    t = cap
    for m in (N - 1, N):
        if m and size[m]:
            t = min(t, (0.5 * tol * scale / size[m]) ** (1.0 / m))
    return t, (size[N - 1] * t ** (N - 1) + size[N] * t ** N) / scale


@dataclass
class LaplaceColumn:
    """Sampled reduced column of a sectorial solution.

    ``reduced[i]`` equals Y_k(z_i) e^{-z_i u_k}; multiply by e^{z u_k} for
    the raw column.  ``error`` is relative to the reduced scale: each
    integral J of the column counts as off by the series tail at its start
    (:func:`_start`) plus the stated carry bound CARRY_TOL, relative to
    max|J|.  CARRY_TOL is not an error estimate: the Taylor carry reads
    1e-11 or better against an independent solve.
    """

    k: int
    label: int
    z: np.ndarray
    reduced: np.ndarray
    pole: complex
    eta_used: float
    error: float


@dataclass(frozen=True)
class ColumnSpec:
    """Column k of Y_{nu+h mu} at the samples ``z`` of one ray.

    ``arg`` places the ray on the universal cover (labels with |h| >= 2
    need more than the principal argument).
    """

    k: int
    h: int
    z: np.ndarray
    arg: float


def laplace_columns(fs: FuchsianSystem, geometry, specs, sols, tol=1e-12):
    """The columns of every :class:`ColumnSpec` in ``specs``, carried together.

    ``sols[k]`` is the selected-solution series of pole k.  Validation, the
    contour and the series start run per column (:func:`_plan`); the
    pieces of every column go through one :func:`.continuation.carry`, and
    each column is its plan's ``base`` plus its ``weights`` times the
    integrals J its pieces return.
    """
    plans = [_plan(fs, spec, geometry, sols[spec.k], tol) for spec in specs]
    ends = iter(carry(fs, [p for plan in plans for p in plan.pieces]))
    columns = []
    for spec, plan in zip(specs, plans):
        Js = [next(ends)[1] for _ in plan.pieces]
        reduced = plan.base + sum(w * J for w, J in zip(plan.weights, Js))
        size = plan.size + sum(float(np.max(np.abs(J))) for J in Js)
        error = (plan.tail + CARRY_TOL) * size / max(float(np.max(np.abs(reduced))), 1e-300)
        columns.append(LaplaceColumn(k=spec.k, label=spec.h * geometry.labels.mu,
                                     z=np.asarray(spec.z, dtype=complex), reduced=reduced,
                                     pole=fs.u[spec.k], eta_used=plan.eta, error=error))
    return columns


class _Plan(NamedTuple):
    """A column before its carry: base + sum_i weights[i] J_i over its pieces.

    ``size`` is max|J| of the series step's integral (0 without one) and
    ``tail`` the series truncation at the start, relative (:func:`_start`).
    """

    pieces: list
    weights: tuple
    base: object
    size: float
    tail: float
    eta: float


def _plan(fs, spec, geometry, sol, tol):
    """Validate one column, choose its contour and start it from the local series ``sol``."""
    z_values = np.asarray(spec.z, dtype=complex)
    k = spec.k
    theta = float(spec.arg)
    if np.max(np.abs(np.exp(1j * np.angle(z_values)) - cmath.exp(1j * theta))) > 1e-9:
        raise ValueError("all z samples must lie on the ray of the given argument")
    d = _direction_for(geometry.labels, spec.h, theta, fs.u)
    lp = fs.lambda_prime[k]
    klass = fs.integer_class(k)
    e_d = cmath.exp(1j * d)
    sigma = z_values * e_d
    if np.max(sigma.real) >= -1e-12 * np.max(np.abs(z_values)):
        raise QuadratureDivergence(
            f"Re(z e^(i d)) = {np.max(sigma.real):.3e} not negative: z outside "
            f"the convergence half-plane of direction {d:.4f}"
        )
    z_max = float(np.max(np.abs(z_values)))
    t_max = _t_max(float(np.min(-sigma.real)), max(0.0, float((-lp - 1).real)))

    def leg(start, psi):
        return Piece(fs.u[k], start * e_d, (max(t_max, 2 * start) - start) * e_d, 0.0, 0.0,
                     psi, z_values)

    if klass == "noninteger":
        # hairpin: the circle |x| = r from arg d - 2 pi to arg d, then the leg
        # on the branch of arg d, weighted by the jump of Psi_k across it
        cap = max(min(0.5 * sol.radius, 2.0 / z_max), 1e-3 * sol.radius)
        r, tail = _start(sol.b, cap, tol)
        psi = horner(sol.b, r * e_d)
        branch = sol.rho * (math.log(r) + 1j * d)
        circle = Piece(fs.u[k], 0.0, 0.0, r * e_d, 2 * math.pi,
                       psi * cmath.exp(branch - 2j * math.pi * sol.rho), z_values)
        jump = 1.0 - cmath.exp(2j * math.pi * sol.lambda_prime_k)
        return _Plan([circle, leg(r, psi * cmath.exp(branch))],
                     (1 / (2j * math.pi), jump / (2j * math.pi)), 0.0, 0.0, tail, d)
    if klass == "natural":
        Nk = int(round(lp.real))
        # residue of e^{z lam} psi_k(lam)/(lam-u_k)^(Nk+1), reduced by e^{-z u_k}
        residue = sum(np.outer(z_values ** (Nk - l) / math.factorial(Nk - l), sol.b[l])
                      for l in range(Nk + 1))
        if sol.zero:
            return _Plan([], (), residue, 0.0, 0.0, d)
        series = coeffs = sol.d
    else:
        # Psi_k = psi_k(x) x^rho with integer rho >= 0
        residue, series = 0.0, sol.b
        coeffs = np.vstack([np.zeros((int(round(sol.rho.real)), fs.n)), sol.b])
    # Psi_k is analytic at u_k: its series on [0, t0] is one Taylor step,
    # T_m = c_m (t0 e^{id})^m, integrated by the carry's own rule
    t0, tail = _start(series, Z_SPAN / z_max, tol)
    T = coeffs * (t0 * e_d) ** np.arange(len(coeffs))[:, None]
    near = _step_integrals(T[:, None, :, None], np.zeros(1), np.array([t0 * e_d]),
                           z_values[None], np.ones((1, z_values.size), dtype=bool))[0, ..., 0]
    return _Plan([leg(t0, T.sum(0))], (1.0,), residue + near, float(np.max(np.abs(near))),
                 tail, d)


# ---------------------------------------------------------------------------
# asymptotic coefficients
# ---------------------------------------------------------------------------


def asymptotic_coeffs(sol, L):
    """Columns f_l^{(k)}, l = 1..L, of the formal expansion from series data.

    Exact arithmetic mapping per class:
    noninteger        f_l = b_l / Gamma(lambda' + 1 - l);
    natural           f_l = b_l / (lambda' - l)! for l <= lambda', then
                      f_l = (-1)^(l-lambda') (l-lambda'-1)! d_{l-lambda'-1};
    negative integer  f_l = (-1)^(l-lambda') (l-lambda'-1)! b_l.
    """
    lp = sol.lambda_prime_k
    n = sol.b.shape[1]
    out = np.zeros((L, n), dtype=complex)
    if sol.klass == "noninteger":
        for l in range(1, L + 1):
            out[l - 1] = sol.b[l] / cgamma(lp + 1 - l)
        return out
    r = int(round(lp.real))
    if sol.klass == "natural":
        for l in range(1, L + 1):
            if l <= r:
                out[l - 1] = sol.b[l] / math.factorial(r - l)
            else:
                if sol.zero:
                    out[l - 1] = 0.0
                else:
                    out[l - 1] = ((-1) ** (l - r)) * math.factorial(l - r - 1) * sol.d[l - r - 1]
        return out
    for l in range(1, L + 1):
        out[l - 1] = ((-1) ** (l - r)) * math.factorial(l - r - 1) * sol.b[l]
    return out


def assemble_formal(sols, L):
    """F_l matrices assembled from per-column asymptotic coefficients."""
    n = len(sols)
    cols = [asymptotic_coeffs(s, L) for s in sols]
    return [np.column_stack([cols[k][l] for k in range(n)]) for l in range(L)]
