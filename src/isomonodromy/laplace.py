"""Laplace transform of local solutions along hairpin and half-line contours.

Columns of the sectorial fundamental solutions of dY/dz = (Lambda + A/z) Y
are produced as contour integrals of the selected/singular solutions of the
dual Fuchsian system:

* lambda'_k not integer:  (1/2 pi i) * hairpin around u_k of e^{z lam} Psi_k;
* lambda'_k natural:      residue of the pole part plus a half-line integral
  of the analytic selected series (the log part reduces to a half-line);
* lambda'_k negative int: half-line integral of the analytic Psi_k.

Every column kind integrates one leg u_k + t e^{id}, t from a to t_max,
for all samples z_1 ... z_m of a ray at once.  On [a, t_switch], inside
the series zone, the local series is integrated by adaptive Gauss-Legendre
quadrature with an integrand of shape (nodes, m, n).  Beyond t_switch the
leg is a :class:`.continuation.Piece` with the samples z_1 ... z_m, and
the Taylor carry :func:`.continuation.carry` returns Psi_k and
J_i = int e^{z_i x} Psi_k dx, x = t e^{id}, at t_max: the same rank-one
transport the formula route uses, each J_i summed over the Taylor
polynomial of every step, with no dense output.  The small circle of a
hairpin is one quadrature of the series for all z; the disc circle of a
group contour is carried with its integrals the same way.

Columns are computed in batches (:func:`laplace_columns`; a single
:func:`laplace_column` is a batch of one).  Validation and quadratures
stay per column, while the carried pieces of every column in the batch
go through one :func:`.continuation.carry`.  Only a group column whose
disc junction lies beyond the series zone needs one earlier carry, for
Psi_k at the junction.

All returned column values are *reduced*: the exponential prefactor
e^{z u_k} is factored out so that quadrature never overflows; callers that
need the raw column multiply it back.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import (
    ANGLE_TOL,
    COALESCE_TOL,
    CutPlane,
    IllConditioned,
    QuadratureDivergence,
    SingularF1,
    VANISH_TOL,
    angular_distance_mod_pi,
)
from .frobenius import FuchsianSystem, build_fuchsian, cgamma, horner, selected_solution
from .continuation import Piece, carry

logger = logging.getLogger(__name__)

# stated relative error of every carried J, added to a column's error
# estimate (the Taylor carry itself runs to continuation.TAYLOR_EPS)
CARRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# formal solution recursion
# ---------------------------------------------------------------------------


def f1(system):
    """Leading formal coefficient: (F_1)_ij = A_ij/(u_j-u_i), diagonal closed up.

    The k = 1 step of :func:`formal_recursion`, from F_0 = I.  Coalesced
    pairs (gap below COALESCE_TOL) require |A_ij| below VANISH_TOL
    max(1, max|A|) (vanishing conditions); the quotient is then set to 0.
    Raises :class:`SingularF1` otherwise.
    """
    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    off = A - np.diag(np.diag(A))
    gap = u[None, :] - u[:, None]
    near = np.abs(gap) < COALESCE_TOL
    bad = np.argwhere(near & (np.abs(off) > VANISH_TOL * max(1.0, float(np.max(np.abs(A))))))
    if bad.size:
        i, j = bad[0]
        raise SingularF1(f"u_{i} = u_{j} but |A[{i},{j}]| = {abs(A[i, j]):.2e}: "
                         "vanishing conditions violated")
    F = np.where(near, 0, off) / np.where(near, 1, gap)
    np.fill_diagonal(F, -np.einsum("ij,ji->i", off, F))
    return F


@dataclass
class FormalSolution:
    """Truncated coefficients F_l of the formal solution at z = infinity."""

    F: list
    free_positions: list = field(default_factory=list)
    obstructed_positions: list = field(default_factory=list)


def formal_recursion(system, L, free_values=None):
    """Coefficients F_1..F_L of the formal solution at z = infinity.

    For pairwise distinct u this is the plain recursion, one matrix step
    per order (offdiag(A) F_{k-1} plus the diagonal shift, divided by the
    gaps).  At a
    coalescence point the in-group entries are 0/0 limits that the
    recursion cannot see; the columns are then produced from the local
    series at the merged poles (Levelt construction for groups, ordinary
    Frobenius for singletons).  Positions with an in-group resonance
    lambda'_j - lambda'_i = l are genuine free parameters of the
    formal-solution family, reported in ``free_positions`` and filled from
    ``free_values`` (default 0); a nonzero log obstruction at a resonant
    position is reported in ``obstructed_positions``.
    """
    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    n = u.size
    lp = np.diag(A)
    if free_values is None:
        free_values = {}
    coalesced = any(
        abs(u[i] - u[j]) < COALESCE_TOL for i in range(n) for j in range(i + 1, n)
    )
    if coalesced:
        return _formal_at_confluence(system, L, free_values)
    # (F_k)_ij = ((lambda'_i - lambda'_j + k - 1) (F_{k-1})_ij + (offdiag(A) F_{k-1})_ij)
    #           / (u_j - u_i),  (F_k)_ii = -(offdiag(A) F_k)_ii / k
    off = A - np.diag(lp)
    shift = lp[:, None] - lp[None, :]
    gap = u[None, :] - u[:, None]
    np.fill_diagonal(gap, 1.0)
    Fs = [f1(system)]
    for k in range(2, L + 1):
        Fk = ((shift + (k - 1)) * Fs[-1] + off @ Fs[-1]) / gap
        np.fill_diagonal(Fk, -np.einsum("ij,ji->i", off, Fk) / k)
        Fs.append(Fk)
    return FormalSolution(F=Fs)


def _formal_at_confluence(system, L, free_values):
    """Columns of F_l at a coalescence point, from merged-pole series.

    Group columns come from the Levelt normal form at the merged pole:
    b_l^{(j)} = Gamma(lambda'_j + 1) (G G_l e_j), divided by
    Gamma(lambda'_j + 1 - l); singleton columns from the ordinary local
    series.  Group exponents must be noninteger (the generic case of the
    formal-solution family).
    """
    from .frobenius import (
        ResonanceAmbiguity,
        build_fuchsian,
        levelt_at_confluence,
        selected_solution,
    )
    from .model import _group_partition

    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    n = u.size
    lp = np.diag(A)
    fs = build_fuchsian(system)
    groups, _ = _group_partition(u)
    cols = np.zeros((L, n, n), dtype=complex)
    free_positions = []
    obstructed = []
    for group in groups:
        if len(group) == 1:
            k = group[0]
            sol = selected_solution(fs, k, N=L + max(int(round(max(0.0, lp[k].real))), 0) + 2)
            fl = asymptotic_coeffs(sol, L)
            for l in range(L):
                cols[l][:, k] = fl[l]
            continue
        for j in group:
            if fs.integer_class(j) != "noninteger":
                raise ResonanceAmbiguity(
                    f"integer exponent lambda'_{j} inside a coalescing group: "
                    "gamma-shift before computing the formal family at u^c"
                )
        data = levelt_at_confluence(fs, group, N=L, free_values=free_values)
        free_positions.extend(data.free_parameters)
        for (l, i, j) in data.free_parameters:
            if l in data.R_parts and abs(data.R_parts[l][i, j]) > 1e-10:
                obstructed.append((l, i, j))
        for j in group:
            gam = cgamma(lp[j] + 1)
            for l in range(1, L + 1):
                b = gam * (data.G @ data.G_series[l][:, j])
                cols[l - 1][:, j] = b / cgamma(lp[j] + 1 - l)
    return FormalSolution(
        F=[cols[l] for l in range(L)],
        free_positions=sorted(set(free_positions)),
        obstructed_positions=sorted(set(obstructed)),
    )


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

_GL_NODES = {}


def _gl(n):
    if n not in _GL_NODES:
        x, w = leggauss(n)
        _GL_NODES[n] = (x, w)
    return _GL_NODES[n]


def _panel(f, a, b, order):
    x, w = _gl(order)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    vals = f(t)
    return 0.5 * (b - a) * np.tensordot(w, vals, axes=(0, 0))


def adaptive_quad(f, a, b, tol, scale=1.0, order=24, depth=0, max_depth=14):
    """Adaptive Gauss-Legendre quadrature of a vectorized integrand.

    ``f`` maps an array of parameters to an array of values (first axis =
    parameter).  Returns (integral, error_estimate).  A subinterval that
    reaches ``max_depth`` with its error still above the bound is kept as
    it is and logged as a WARNING.
    """
    coarse = _panel(f, a, b, order)
    m = 0.5 * (a + b)
    fine = _panel(f, a, m, order) + _panel(f, m, b, order)
    err = float(np.max(np.abs(fine - coarse)))
    bound = tol * max(scale, float(np.max(np.abs(fine))))
    if err <= bound:
        return fine, err
    if depth >= max_depth:
        logger.warning("adaptive_quad stopped at max_depth %d on [%.6g, %.6g]: "
                       "error %.2e above bound %.2e", max_depth, a, b, err, bound)
        return fine, err
    left, el = adaptive_quad(f, a, m, tol, scale, order, depth + 1, max_depth)
    right, er = adaptive_quad(f, m, b, tol, scale, order, depth + 1, max_depth)
    return left + right, el + er


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contour:
    """Integration contour for one Laplace column.

    A leg in ``direction`` out to ``t_max``, with a loop of ``loop_radius``
    around ``anchor``: the pole itself (small loop of a hairpin, or unused
    by a half-line) or the centre of the coalescence disc (group contour).
    """

    anchor: complex
    direction: float
    loop_radius: float
    t_max: float


def _direction_for(labels, h, theta, u):
    """Contour direction d for computing Y at label h*mu and arg z = theta.

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


@dataclass
class LaplaceColumn:
    """Sampled reduced column of a sectorial solution.

    ``reduced[i]`` equals Y_k(z_i) e^{-z_i u_k}; multiply by e^{z u_k} for
    the raw column.  ``error`` is relative to the reduced scale: the
    quadrature error estimate of the series leg and the small circle plus,
    for the carried part of the leg (and the group circle), the stated
    bound CARRY_TOL * max|J|.  That bound is not an error estimate: the
    Taylor carry reads 1e-11 or better against an independent solve.
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
    """Column k of Y_{nu+h mu} at the samples ``z`` of one ray, as for :func:`laplace_column`."""

    k: int
    h: int
    z: np.ndarray
    arg: float | None = None
    contour: str = "hairpin"
    direction: float | None = None


def laplace_column(fs: FuchsianSystem, k, h, geometry, z_values, arg=None,
                   sols=None, tol=1e-12, N=40, contour="hairpin", direction=None):
    """Column k of Y_{nu+h mu} at the given z samples (reduced values).

    ``z_values`` must share one argument: one ray, whose position on the
    universal cover is ``arg`` (defaults to the principal argument; labels
    with |h| >= 2 need it spelled out).  The contour direction is chosen
    inside the label's admissible eta-window, optimal for decay at that
    argument; ``direction`` overrides it (validated against the window).
    Each leg is integrated from the local series inside 0.75 * validity
    radius and carried with the continued solution outside (see the
    module docstring).  A batch of one for :func:`laplace_columns`.
    """
    spec = ColumnSpec(k, h, z_values, arg, contour, direction)
    return laplace_columns(fs, geometry, [spec], sols, tol, N)[0]


def laplace_columns(fs: FuchsianSystem, geometry, specs, sols=None, tol=1e-12, N=40):
    """The columns of every :class:`ColumnSpec` in ``specs``, carried together.

    Validation, the contour choice and the series quadratures run per
    column; the carried parts of all their legs and disc circles go
    through one :func:`.continuation.carry`.  A group column whose disc
    junction lies beyond the series zone first needs Psi_k at the
    junction, which takes one earlier carry shared by every such column.
    """
    columns = [_column(fs, spec, geometry, sols, tol, N) for spec in specs]
    out = [None] * len(columns)
    replies = [None] * len(columns)
    live = range(len(columns))
    while live:
        asks = {}
        for i in live:
            try:
                asks[i] = columns[i].send(replies[i])
            except StopIteration as done:
                out[i] = done.value
        live = list(asks)
        if live:
            ends = iter(carry(fs, [p for i in live for p in asks[i]]))
            for i in live:
                replies[i] = [next(ends) for _ in asks[i]]
    return out


def _column(fs, spec, geometry, sols, tol, N):
    """One column as a generator: yields lists of :class:`Piece` to carry, returns the column.

    Each yield receives what :func:`.continuation.carry` returns for the
    pieces it asked for, in order: ``(Psi(1), J)`` for a piece with
    samples, Psi(1) for one without.
    """
    z_values = np.asarray(spec.z, dtype=complex)
    k, h = spec.k, spec.h
    thetas = np.angle(z_values)
    theta = float(thetas[0]) if spec.arg is None else float(spec.arg)
    if np.max(np.abs(np.exp(1j * thetas) - cmath.exp(1j * theta))) > 1e-9:
        raise ValueError("all z samples must lie on the ray of the given argument")
    labels = geometry.labels
    if spec.direction is None:
        d = _direction_for(labels, h, theta, fs.u)
    else:
        d = float(spec.direction)
        m = h * labels.mu
        if not (1.5 * math.pi - labels.tau_nu(m + 1) < d < 1.5 * math.pi - labels.tau_nu(m)):
            raise ValueError(
                f"direction {d} outside the eta-window of label {m}"
            )
    lp = fs.lambda_prime[k]
    klass = fs.integer_class(k)
    if sols is None:
        sol = selected_solution(fs, k, CutPlane(eta=d), N)
    else:
        sol = sols[k]
    e_d = cmath.exp(1j * d)
    sigma = z_values * e_d
    if np.max(sigma.real) >= -1e-12 * np.max(np.abs(z_values)):
        raise QuadratureDivergence(
            f"Re(z e^(i d)) = {np.max(sigma.real):.3e} not negative: z outside "
            f"the convergence half-plane of direction {d:.4f}"
        )
    validity = sol.radius
    t_switch = 0.75 * validity
    growth = max(0.0, float((-lp - 1).real))
    rate_min = float(np.min(-sigma.real))
    t_hi = max(_t_max(rate_min, growth), 2 * t_switch)

    if spec.contour == "group":
        alpha = geometry.group_of(k)
        center = geometry.group_values[alpha]
        r_loop = 1.2 * geometry.epsilon0
        # keep clear of the other groups
        for beta, val in enumerate(geometry.group_values):
            if beta != alpha:
                r_loop = min(r_loop, 0.5 * (abs(val - center) + geometry.epsilon0))
        contour_obj = Contour(center, d, r_loop, t_hi)
        if klass != "noninteger":
            raise ValueError("group contour is implemented for the branched class only")
        build = _group_column
    else:
        r_loop = min(0.5 * validity, 2.0 / float(np.max(np.abs(z_values))))
        r_loop = max(r_loop, 1e-3 * validity)
        contour_obj = Contour(fs.u[k], d, r_loop, t_hi)
        build = {"noninteger": _hairpin_column, "natural": _natural_column}.get(
            klass, _halfline_column)
    reduced, err = yield from build(fs, k, sol, contour_obj, z_values, tol)
    return LaplaceColumn(k=k, label=h * labels.mu, z=z_values, reduced=reduced,
                         pole=fs.u[k], eta_used=d, error=err)


def _series_on_ray(sol, d, ts, branched):
    """Psi_k at u_k + t e^{id} from its local series, for every t in ``ts``."""
    acc = horner(sol.b if sol.d is None else sol.d, ts * cmath.exp(1j * d))
    if branched:
        acc = acc * np.exp(sol.rho * (np.log(ts) + 1j * d))[:, None]
    return acc


def _leg(fs, k, sol, d, a, t_max, z_values, tol, branched):
    """Laplace integrals of Psi_k along u_k + t e^{id}, t from a to t_max, for every z.

    Below t_switch = 0.75 * series radius the local series is integrated
    by one quadrature for all z; the rest of the leg is returned as a
    :class:`Piece` for the caller to carry.  ``branched`` multiplies the
    series by (t e^{id})^rho.  A generator: when a lies beyond t_switch it
    first yields the piece that carries Psi_k out to a.  Returns
    ``(J, err, piece, psi_a)``: J[i] is the series part of the integral of
    e^{z_i x} Psi_k dx with x = t e^{id} (0 if none), ``err`` its
    quadrature estimate, ``psi_a`` Psi_k at t = a (None for a = 0).
    """
    e_d = cmath.exp(1j * d)
    t_switch = 0.75 * sol.radius
    pole = fs.u[k]

    def ray(t0, t1, psi0, z):
        return Piece(pole, t0 * e_d, (t1 - t0) * e_d, 0.0, 0.0, psi0, z)

    def integrand(ts):
        w = np.exp(np.outer(ts * e_d, z_values)) * e_d
        return _series_on_ray(sol, d, ts, branched)[:, None, :] * w[:, :, None]

    psi_switch = _series_on_ray(sol, d, np.array([t_switch]), branched)[0]
    if a < t_switch:
        J, err = adaptive_quad(integrand, a, t_switch, tol)
        psi_a = _series_on_ray(sol, d, np.array([a]), branched)[0] if a > 0 else None
        return J, err, ray(t_switch, t_max, psi_switch, z_values), psi_a
    [psi_a] = yield [ray(t_switch, a, psi_switch, z_values[:0])]
    return 0.0, 0.0, ray(a, t_max, psi_a, z_values), psi_a


def _relative(err, out, *carried):
    """``err`` plus the stated bound CARRY_TOL max|J| of each carried J, relative to ``out``."""
    for J in carried:
        err = err + CARRY_TOL * float(np.max(np.abs(J), initial=0.0))
    return err / max(float(np.max(np.abs(out))), 1e-300)


def _hairpin_column(fs, k, sol, contour, z_values, tol):
    """Class noninteger: legs with the branch-jump factor plus the small circle."""
    d = contour.direction
    r = contour.loop_radius
    J, e1, piece, _ = yield from _leg(fs, k, sol, d, r, contour.t_max, z_values, tol,
                                      branched=True)

    def circle_integrand(thetas):
        x = r * np.exp(1j * thetas)
        w = np.exp(np.outer(x, z_values)
                   + (sol.rho * (math.log(r) + 1j * thetas))[:, None]) * (1j * x)[:, None]
        return horner(sol.b, x)[:, None, :] * w[:, :, None]

    circ, e2 = adaptive_quad(circle_integrand, d - 2 * math.pi, d, tol)
    [(_, J_leg)] = yield [piece]
    jump = 1.0 - cmath.exp(2j * math.pi * sol.lambda_prime_k)
    out = (jump * (J + J_leg) + circ) / (2j * math.pi)
    return out, _relative(e1 + e2, out, J_leg)


def _group_column(fs, k, sol, contour, z_values, tol):
    """Branched class on the group contour: loop around the whole disc.

    Equivalent to the hairpin at u_k because Psi_k is holomorphic at the
    sibling poles; the disc boundary is carried clockwise from the leg
    junction with its Laplace integrals, in the same batch as the leg.
    """
    d = contour.direction
    e_d = cmath.exp(1j * d)
    r = contour.loop_radius
    # leg junction: |u_k - center + t e^{id}| = r, positive root
    w0 = fs.u[k] - contour.anchor
    bh = (w0 * np.conj(e_d)).real
    t_exit = -bh + math.sqrt(max(bh * bh - (abs(w0) ** 2 - r * r), 0.0))
    th_exit = cmath.phase(w0 + t_exit * e_d)
    J, err, piece, seed = yield from _leg(fs, k, sol, d, t_exit, contour.t_max, z_values,
                                          tol, branched=True)
    # x = r e^{i th} - w0 with th from th_exit down to th_exit - 2 pi
    circle = Piece(fs.u[k], -w0, 0.0, r * cmath.exp(1j * th_exit), -2 * math.pi, seed,
                    z_values)
    [(_, J_leg), (_, J_circ)] = yield [piece, circle]
    jump = 1.0 - cmath.exp(2j * math.pi * sol.lambda_prime_k)
    out = (jump * (J + J_leg) - J_circ) / (2j * math.pi)
    return out, _relative(err, out, J_leg, J_circ)


def _halfline_column(fs, k, sol, contour, z_values, tol):
    """Class negative_integer: straight integral of the analytic Psi_k.

    Psi_k = (sum b_l x^l) x^rho with integer rho >= 0: the power is folded in.
    """
    J, err, piece, _ = yield from _leg(fs, k, sol, contour.direction, 0.0, contour.t_max,
                                       z_values, tol, branched=True)
    [(_, J_leg)] = yield [piece]
    out = J + J_leg
    return out, _relative(err, out, J_leg)


def _natural_column(fs, k, sol, contour, z_values, tol):
    """Class natural: residue of the pole part plus half-line of the log part."""
    Nk = int(round(sol.lambda_prime_k.real))
    # residue of e^{z lam} psi_k(lam)/(lam-u_k)^(Nk+1), reduced by e^{-z u_k}
    out = sum(np.outer(z_values ** (Nk - l) / math.factorial(Nk - l), sol.b[l])
              for l in range(Nk + 1))
    if sol.zero:
        return out, 0.0
    J, err, piece, _ = yield from _leg(fs, k, sol, contour.direction, 0.0, contour.t_max,
                                       z_values, tol, branched=False)
    [(_, J_leg)] = yield [piece]
    out = out + J + J_leg
    return out, _relative(err, out, J_leg)


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


def asymptotic_fit(z_values, reduced_columns, lambda_prime, L, args=None):
    """Least-squares fit of reduced columns against I + sum F_l z^{-l}.

    ``reduced_columns[k]`` holds samples of Y_k e^{-z u_k} at ``z_values``
    on one ray; the fit removes z^{lambda'_k} using the cover argument
    (``args`` defaults to the principal argument of the samples).
    Returns (F_list, condition, residual).
    """
    z_values = np.asarray(z_values, dtype=complex)
    if args is None:
        args = np.angle(z_values)
    n = len(reduced_columns)
    logz = np.log(np.abs(z_values)) + 1j * np.asarray(args)
    V = np.vander(1.0 / z_values, N=L + 1, increasing=True)  # columns z^0 .. z^-L
    cond = np.linalg.cond(V)
    if cond > 4.0e15:
        raise IllConditioned(
            f"fit order L={L} too large for the sample range (condition {cond:.2e})"
        )
    F = np.zeros((L, n, n), dtype=complex)
    resid = 0.0
    for k in range(n):
        W = reduced_columns[k] * np.exp(-lambda_prime[k] * logz)[:, None]
        ek = np.zeros(n)
        ek[k] = 1.0
        target = W - ek[None, :]
        coef, res, rank, sv = np.linalg.lstsq(V[:, 1:], target, rcond=None)
        F[:, :, k] = coef
        pred = V[:, 1:] @ coef
        resid = max(resid, float(np.max(np.abs(pred - target))))
    return [F[l] for l in range(L)], float(cond), resid
