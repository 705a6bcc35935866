"""Laplace transform of local solutions along hairpin contours.

Columns of the sectorial fundamental solutions of dY/dz = (Lambda + A/z) Y
are (1/2 pi i) times the integral of e^{z lam} Psi_k along a hairpin
around u_k, Psi_k the selected solution of the dual Fuchsian system.
That is the one column kind: it needs lambda'_k noninteger, and both
Stokes routes shift a system whose diagonal comes near an integer first
(:func:`.frobenius.shift_exponents`), which leaves the Stokes matrices as
they are.

Every column is a local-series start near u_k plus one leg from it, for
all samples z_1 ... z_m of a ray arg z = theta at once.  The start lies
where the series tail is below ``tol`` (:func:`_start`).  The leg leaves
u_k in the direction d at the centre of the label's eta-window (cut to
the convergence half-plane, :func:`_direction_for`), and bends at
R e^{id} onto the steepest-descent ray arg x = pi - theta (:func:`_leg`),
R above the pole hull max_j |u_j - u_k|: the wedge between the bent leg
and the straight leg along d lies outside the disc of radius R about
u_k, since the angle phi between d and pi - theta has cos phi > 0, so it
holds no pole and the integral does not change.  The leg is a
:class:`.continuation.Piece` with the samples, and the Taylor carry
:func:`.continuation.carry` returns J_i = int e^{z_i x} Psi_k dx along
it, summed over the Taylor polynomial of every step: the same rank-one
transport the formula route uses, with no dense output.  The hairpin's
small circle lies inside the convergence disc of the series, so its
integral is the series integrated term by term (:func:`_circle`).

Columns are computed in batches, one stack of arrays from plan to fit
(:func:`laplace_columns`): the contour direction runs once per label and
ray, validation, the series starts and the hairpin circles in one pass
(:func:`_plan`), the start values in one :func:`.frobenius.selected_values`
call (this module reads series coefficients only to bound or integrate
them), and the legs go through one :func:`.continuation.carry`,
cut into runs of CUT_STEPS steps, which returns their integrals as one
array.  The oracle's batch is the 4n legs of both matchings of a Stokes
pair.

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
    IllConditioned,
    QuadratureDivergence,
    SingularF1,  # re-exported: the moved errors stay importable from here
    SystemPair,
    VANISH_TOL,
    angular_distance_mod_pi,
    check_vanishing,
    nearest_integer,
)
from .frobenius import cgamma, selected_values
from .continuation import Piece, _batch_shape, carry

logger = logging.getLogger(__name__)

# a leg ends where e^{z x} |x|^g, g the power growth of Psi_k, is e^-TAIL
TAIL = 42.0


# ---------------------------------------------------------------------------
# formal solution recursion
# ---------------------------------------------------------------------------


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
    as 0 once :func:`.model.check_vanishing` has checked that they vanish.  An in-group pair
    i != j with lambda'_j - lambda'_i = k is a free parameter of the formal-solution family: it
    is set to 0 and reported in ``free_positions`` as (k, i, j), and also in
    ``obstructed_positions`` (a log obstruction) where its right-hand side exceeds
    VANISH_TOL max(1, max|off| max|F_k|), F_k's cross entries setting the scale.  The orders
    run with numpy's overflow warnings off and are checked once: coefficients past the float
    range raise :class:`IllConditioned` naming the first such order.
    """
    A = np.asarray(system.A, dtype=complex)
    u = np.asarray(system.u, dtype=complex)
    same = check_vanishing(A, u)
    lp = np.diag(A)
    gap = np.where(same, 1.0, u[None, :] - u[:, None])
    off = np.where(same, 0, A)
    shift = lp[:, None] - lp[None, :]
    free = sorted((r, i, j) for i, j in np.argwhere(same).tolist()
                  if i != j and 1 <= (r := nearest_integer(lp[j] - lp[i]) or 0) <= L)
    orders = np.arange(L + 1)[:, None, None]
    shifts = shift + orders  # lambda'_i - lambda'_j + k at row k
    divs = shifts.copy()  # the in-group divisors at row k; a free entry's becomes inf below
    F = np.eye(u.size, dtype=complex)
    Fs, obstructed = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        for k in range(1, L + 1):
            F = np.where(same, 0, (shifts[k - 1] * F + off @ F) / gap)
            rhs = -(off @ F)
            div = divs[k]
            for r, i, j in free:
                if r == k:
                    div[i, j] = np.inf  # the free entry stays 0
                    scale = max(1.0, np.max(np.abs(off)) * np.max(np.abs(F)))
                    if abs(rhs[i, j]) > VANISH_TOL * scale:
                        obstructed.append((k, i, j))
            np.divide(rhs, div, out=F, where=same)  # the in-group entries of this order's F
            Fs.append(F)
    bad = ~np.isfinite(np.reshape(Fs, (L, u.size ** 2))).all(1)
    if bad.any():
        raise IllConditioned(f"the formal recursion leaves the float range at order "
                             f"{int(np.argmax(bad)) + 1}")
    return FormalSolution(F=Fs, free_positions=free, obstructed_positions=obstructed)


# ---------------------------------------------------------------------------
# Laplace columns
# ---------------------------------------------------------------------------


def _direction_for(labels, h, theta, u):
    """The contour direction d for computing Y at label h*mu and arg z = theta.

    d lies in the label's eta-window (eta_{m+1}, eta_m) and inside the
    convergence half-plane (pi/2 - theta, 3 pi/2 - theta): at the centre of
    the interval (lo, hi) they share, as far as it can be from its edges,
    which are inter-pole directions or the half-plane's edge.  A d on an
    inter-pole direction mod pi is nudged along the interval; if 128 nudges
    find no clear direction, the last one is used and logged as a WARNING.
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
    d = 0.5 * (lo + hi)
    # nudge off inter-pole directions so the cuts miss the poles
    bad = [cmath.phase(a - b) for i, a in enumerate(u) for b in u[i + 1:]
           if abs(a - b) > COALESCE_TOL]
    # an odd count of steps: from the centre no nudge lands on an edge
    step = (hi - lo) / 65.0

    def blocked(x):
        return any(angular_distance_mod_pi(x, bb) < 16 * ANGLE_TOL for bb in bad)

    tries = 0
    while blocked(d) and tries < 128:
        d = lo + ((d - lo + step) % (hi - lo))
        tries += 1
    if blocked(d):
        logger.warning("_direction_for: no direction in (%.10f, %.10f) clear of the "
                       "inter-pole directions after 128 nudges; using %.10f", lo, hi, d)
    return d


def _start(sol, cap, tol):
    """Where the carry takes over from the local series ``sol``: a radius t per column.

    t is the largest radius up to ``cap`` at which each of the last two
    terms |c_N| t^N and |c_{N-1}| t^{N-1} of the series is at most
    tol / 2 times its size max|c_0|.  ``cap`` holds one cap per column of
    the pole; a t^N past the float range is IllConditioned (``check_radius``).
    """
    size = np.abs(sol.b).max(1)
    N = len(size) - 1
    bound = 0.5 * tol * size[0]
    t = cap
    for m in (N - 1, N):
        # |c_m| t^m = bound at t = (bound / |c_m|)^(1/m); a |c_m| at most bound / max float
        # (0 or subnormal) sets no radius, as that quotient leaves the float range
        if m and size[m] > bound / np.finfo(float).max:
            t = np.minimum(t, (bound / size[m]) ** (1.0 / m))
    sol.check_radius(float(np.max(t)))
    return t


class LaplaceColumns(NamedTuple):
    """The sampled reduced columns of a batch, a stack per field, column p at index p.

    ``reduced[p, i]`` (P, nz, n) is Y_k(z_i) e^{-z_i u_k}, k and z those of
    spec p: multiply by e^{z u_k} for the raw column.  ``eta`` (P,) is the
    contour direction d.
    """

    reduced: np.ndarray
    eta: np.ndarray


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


def laplace_columns(fs: SystemPair, geometry, specs, sols, tol=1e-12):
    """The :class:`LaplaceColumns` of every :class:`ColumnSpec` in ``specs``, carried together.

    ``sols[k]`` is the selected-solution series of pole k, and every pole
    of ``specs`` must have a noninteger exponent (:func:`_plan`).  The
    contour direction d depends on the label and the ray only, so
    :func:`_direction_for` runs once per (h, arg); every column is then
    validated and its hairpin started in one pass over the batch
    (:func:`_plan`).  One :func:`.continuation.carry` returns the integrals
    J of every leg as one stack, and the columns are base + weight J.
    """
    rays = {(h, arg): _direction_for(geometry.labels, h, arg, fs.u)
            for h, arg in {(spec.h, float(spec.arg)) for spec in specs}}
    eta = [rays[spec.h, float(spec.arg)] for spec in specs]
    legs, weight, base = _plan(fs, specs, eta, sols, tol)
    reduced = base + weight[:, None, None] * carry(fs, legs)
    return LaplaceColumns(reduced=reduced, eta=np.array(eta))


def _circle(b, lp, r, d, z):
    """int e^{z x} psi(x) x^(-lp-1) dx once round |x| = r, from arg d - 2 pi to arg d, per column.

    A stack of P columns: psi(x) = sum_l b[p, l] x^l, b of shape
    (P, N + 1, n), with the column's own lp, r, d (P,) and samples z
    (P, nz).  Term by term, with e^{z x} = sum_j (z x)^j / j!, the power
    x^(s-1), s = l + j - lp, integrates to x0^s (1 - e^{-2 pi i s}) / s,
    x0 = r e^{id}: that is m^s 2i sin(pi s) / s, m = r e^{i(d - pi)} the
    midpoint of the circle.  sin(pi s) is (-1)^(l+j-K) sin(pi (K - lp)) for
    the integer K nearest to lp, so it keeps its relative accuracy near an
    integer lp and its phase at high orders.  The integrals at all samples
    are one (nz, N + 1) matrix, sum_j (z m)^j / j! times the factor of order
    l + j, applied to the coefficients b_l m^l; the series of e^{z x} runs
    until its terms fall below 1e-17, to its own order J_p in each column
    (the terms past it are 0), and the columns are one stacked product.
    Returns shape (P, nz, n).
    """
    N1 = b.shape[1]
    J = []
    for w in (np.abs(z).max(1) * r).tolist():
        j, term = 0, 1.0
        while term > 1e-17 or j < w:
            j += 1
            term *= w / j
        J.append(j)
    top = max(J)
    nearest = np.round(lp.real)
    q = np.arange(N1 + top)
    sign = 1.0 - 2.0 * ((q - nearest[:, None]) % 2)  # (-1)^(q - K)
    sine = np.array([2j * cmath.sin(math.pi * (K - l)) for K, l in zip(nearest, lp)])
    factor = sine[:, None] * sign / (q - lp[:, None])
    mid = -r * np.array([cmath.exp(1j * x) for x in d])
    # (z m)^j / j!, j = 0..J_p
    powers = np.ones(z.shape + (top + 1,), dtype=complex)
    powers[..., 1:] = (z * mid[:, None])[..., None] * (1 / q[1:top + 1])
    powers = np.where(q[:top + 1] <= np.array(J)[:, None, None], np.cumprod(powers, axis=-1), 0)
    hankel = np.lib.stride_tricks.sliding_window_view(factor, N1, axis=-1)
    scaled = b * (mid[:, None] ** np.arange(N1))[..., None]
    prefactor = np.array([cmath.exp(-l * (math.log(x) + 1j * (a - math.pi)))
                          for l, x, a in zip(lp, r, d)])
    return prefactor[:, None, None] * (powers @ hankel @ scaled)


def _plan(fs, specs, directions, sols, tol):
    """Validate every column of a batch and start its hairpin, in one pass over the batch.

    Column p runs in direction ``directions[p]`` from the local series
    ``sols[k]`` of its pole k.  A pole whose exponent lambda'_k is an
    integer raises ValueError naming it: its column would need another
    contour, and both Stokes routes shift such a system first
    (:func:`.frobenius.shift_exponents`).  Its columns have one sample count
    (:func:`.continuation._batch_shape`), so the ray check, sigma = z e^{id}
    and its half-plane check, and the nearest sample |z| of each leg are
    taken as arrays over the batch, the starts and circles in one stacked
    pass (:func:`_hairpins`).  Each leg (:func:`_leg`), on the branch of
    arg d, starts at r with the value Psi_k(r e^{id}), all of them from one
    :func:`.frobenius.selected_values` call, and is weighted by the jump of
    Psi_k across it over 2 pi i.  Returns the legs and the
    stacks of that ``weight`` and of the ``base``, the circle over 2 pi i.
    """
    integer = [spec.k for spec in specs if fs.integer_class(spec.k) != "noninteger"]
    if integer:
        k = integer[0]
        raise ValueError(f"pole {k} has the integer exponent lambda'_{k} = "
                         f"{fs.lambda_prime[k]}: a Laplace column needs a noninteger one")
    _batch_shape([np.size(spec.z) for spec in specs], [1] * len(specs))
    z = np.array([spec.z for spec in specs], dtype=complex)
    arg = [float(spec.arg) for spec in specs]
    off_ray = np.abs(np.exp(1j * np.angle(z)) - np.exp(1j * np.array(arg))[:, None])
    if off_ray.max() > 1e-9:
        raise ValueError("all z samples must lie on the ray of the given argument")
    sigma = z * np.array([cmath.exp(1j * d) for d in directions])[:, None]
    z_abs = np.abs(z)
    z_max = z_abs.max(1)
    worst = sigma.real.max(1)
    bad = np.flatnonzero(worst >= -1e-12 * z_max)
    if bad.size:
        p = bad[0]
        raise QuadratureDivergence(
            f"Re(z e^(i d)) = {worst[p]:.3e} not negative: z outside "
            f"the convergence half-plane of direction {directions[p]:.4f}"
        )
    near = z_abs.min(1)
    hairpins = [sols[spec.k] for spec in specs]
    r, circle = _hairpins(hairpins, np.array(directions, dtype=float), z, z_max, tol)
    psi = selected_values(hairpins, r, directions)
    growth = np.maximum(0.0, (-fs.lambda_prime - 1).real).tolist()
    hull = np.abs(fs.u[:, None] - fs.u).max(1).tolist()
    legs = [_leg(fs.u[spec.k], t, d, theta, psi_p, z_p, near_p, growth[spec.k], hull[spec.k])
            for spec, d, theta, t, psi_p, z_p, near_p in zip(
                specs, directions, arg, r.tolist(), psi, z, near.tolist())]
    weight = np.array([(1.0 - cmath.exp(2j * math.pi * sol.lambda_prime_k)) / (2j * math.pi)
                       for sol in hairpins])
    return legs, weight, circle / (2j * math.pi)


def _hairpins(sols, d, z, z_max, tol):
    """The hairpins' starts r and their circles.

    The circle |x| = r from arg d - 2 pi to arg d is summed in closed form
    from the series (:func:`_circle`, all columns in one stacked product,
    shape (P, nz, n)).  r is the series start (:func:`_start`) below
    min(radius / 2, 2 / max|z|), and at least radius / 1000.
    """
    radius = np.array([sol.radius for sol in sols])
    r = np.maximum(np.minimum(0.5 * radius, 2.0 / z_max), 1e-3 * radius)
    poles = np.array([sol.k for sol in sols])
    for k, sol in {sol.k: sol for sol in sols}.items():
        at = poles == k
        r[at] = _start(sol, r[at], tol)
    b = np.array([sol.b for sol in sols])
    lp = np.array([sol.lambda_prime_k for sol in sols])
    return r, _circle(b, lp, r, d, z)


def _leg(pole, start, d, theta, value, z, near, growth, hull):
    """The leg of a column, from start e^{id}: along d, then down the steepest-descent ray.

    The leg runs along d to the corner R e^{id}, R = max(2 hull, 2 start),
    ``hull`` the largest distance from u_k to a pole, then a length s along
    the steepest-descent ray -e^{-i theta} until the nearest sample,
    |z| = ``near``, meets the tail rule there: every sample's e^{z x} falls
    by |z| per unit of s.  Where the corner is past the tail already, s is
    0.  The wedge between this leg and the straight leg along d lies
    outside the disc of radius R about u_k, since the angle phi between d
    and pi - theta has cos phi > 0 (the convergence half-plane), so it
    holds no pole, and by Cauchy's theorem both legs give the same integral
    on the same branch of Psi_k.
    """
    e_d = cmath.exp(1j * d)
    R = max(2 * hull, 2 * start)
    corner, descent = R * e_d, -cmath.exp(-1j * theta)
    # Re(z x) = -|z| (R cos phi + s) at s along the descent ray
    lead = -R * math.cos(theta + d)
    s = TAIL / near - lead
    for _ in range(3):
        s = (TAIL + growth * math.log(max(abs(corner + s * descent), 1.0))) / near - lead
    s = max(s, 0.0)
    return Piece(pole, start * e_d, corner + s * descent - start * e_d, value, z, (corner,))


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
    out = np.zeros((L, sol.b.shape[1]), dtype=complex)
    if sol.klass == "noninteger":
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
                for l in range(1, L + 1):
                    out[l - 1] = sol.b[l] / cgamma(lp + 1 - l)
            if np.isfinite(out).all():
                return out
        except OverflowError:
            pass
        raise IllConditioned(f"Gamma(lambda'_k + 1 - l) leaves the float range at pole "
                             f"{sol.k} (lambda'_k = {lp})")
    r = int(round(lp.real))
    for l in range(1, L + 1):
        if sol.klass == "negative_integer":
            out[l - 1] = ((-1) ** (l - r)) * math.factorial(l - r - 1) * sol.b[l]
        elif l <= r:
            out[l - 1] = sol.b[l] / math.factorial(r - l)
        elif not sol.zero:  # a zero natural solution has f_l = 0 past lambda'
            out[l - 1] = ((-1) ** (l - r)) * math.factorial(l - r - 1) * sol.d[l - r - 1]
    return out


def assemble_formal(sols, L):
    """F_l matrices assembled from per-column asymptotic coefficients."""
    n = len(sols)
    cols = [asymptotic_coeffs(s, L) for s in sols]
    return [np.column_stack([cols[k][l] for k in range(n)]) for l in range(L)]
