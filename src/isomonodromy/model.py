"""System definitions, deformation-space geometry and Stokes-ray bookkeeping.

Everything downstream consumes the objects defined here: the matrix pair
(A, Lambda=diag(u)), the polydisc around a coalescence point with its group
structure, the cut lambda-plane, and the labelled Stokes rays / sectors in
the z-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# A direction counts as "on a Stokes ray" below this angular distance (rad).
ANGLE_TOL = 1e-9
# |u_i - u_j| below this is treated as an exact coalescence.
COALESCE_TOL = 1e-12
# A coupling A_ij of a coalesced pair counts as vanishing below this.
VANISH_TOL = 1e-10
# |x - round(x)| below this declares x an integer (exponent class dispatch).
INTEGER_TOL = 1e-8

TWO_PI = 2.0 * math.pi


def nearest_integer(x, tol=INTEGER_TOL):
    """The integer within ``tol`` of the complex number x, or None."""
    x = complex(x)
    r = round(x.real)
    return r if abs(x.imag) < tol and abs(x.real - r) < tol else None


def exponent_class(x, tol=INTEGER_TOL):
    """Arithmetic class of an exponent: ``"noninteger"``, ``"natural"``
    (integer >= 0) or ``"negative_integer"`` (integer <= -1)."""
    r = nearest_integer(x, tol)
    if r is None:
        return "noninteger"
    return "natural" if r >= 0 else "negative_integer"


class NonAdmissibleError(ValueError):
    """Raised when a direction coincides with a Stokes ray mod pi."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


# Typed numerical failures, raised by the solving modules and re-exported
# there; defined here so the command line can catch them without loading
# the integrators.


class StepFailure(RuntimeError):
    """Adaptive integrator failed (step underflow or solver error)."""


class BasisSingular(np.linalg.LinAlgError):
    """Selected solutions do not form a fundamental system at this point."""


class IllConditioned(RuntimeError):
    """A least-squares projection left a residual above tolerance."""


class DriftExceeded(RuntimeError):
    """Conserved quantities drifted beyond the allowed multiple of tol."""


class SingularF1(ZeroDivisionError):
    """A quotient A_ij/(u_j-u_i) is singular: vanishing conditions violated."""


class QuadratureDivergence(RuntimeError):
    """The requested z lies outside the convergence half-plane of the contour."""


class OverlapEmpty(RuntimeError):
    """Conservative sector bounds produced no common matching ray."""


class MatchingInconsistent(RuntimeError):
    """The fitted Stokes matrix varies with |z| beyond tolerance."""


def _as_complex_vector(u):
    v = np.asarray(u, dtype=complex).ravel()
    return v


def _as_complex_matrix(A):
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class SystemPair:
    """The matrix A together with the eigenvalue point u of Lambda=diag(u).

    ``lambda_prime`` is the diagonal of A; it is constant along
    isomonodromic deformations and controls every local exponent in the
    Laplace-dual Fuchsian system.
    """

    A: np.ndarray
    u: np.ndarray

    def __init__(self, A, u):
        A = _as_complex_matrix(A)
        u = _as_complex_vector(u)
        if A.shape[0] != u.size:
            raise ValueError(
                f"dimension mismatch: A is {A.shape[0]}x{A.shape[0]}, u has {u.size} entries"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "u", u)

    @property
    def n(self):
        return self.u.size

    @property
    def lambda_prime(self):
        return np.diag(self.A)

    def integer_classes(self, tol=INTEGER_TOL):
        """Arithmetic class of each diagonal entry (see :func:`exponent_class`)."""
        return [exponent_class(lp, tol) for lp in self.lambda_prime]


def stokes_ray_directions(u):
    """Directions of the Stokes rays of Lambda(u) in the z-plane.

    For each ordered pair (j, k) with u_j != u_k, the ray is the unique
    theta in [0, 2 pi) with Re((u_j-u_k) e^{i theta}) = 0 and
    Im((u_j-u_k) e^{i theta}) < 0, i.e. theta = 3 pi/2 - arg(u_j-u_k).

    Returns ``(rays, skipped)`` where ``rays`` maps 0-based pairs (j, k) to
    theta and ``skipped`` lists the coalesced pairs that were omitted.
    """
    u = _as_complex_vector(u)
    n = u.size
    rays = {}
    skipped = []
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            d = u[j] - u[k]
            if abs(d) < COALESCE_TOL:
                skipped.append((j, k))
                continue
            rays[(j, k)] = (1.5 * math.pi - cmath.phase(d)) % TWO_PI
    return rays, skipped


def _mod_pi_classes(directions, tol=ANGLE_TOL):
    """Cluster ray directions mod pi; returns sorted class representatives in [0, pi)."""
    reps = []
    for th in directions:
        r = th % math.pi
        matched = False
        for i, s in enumerate(reps):
            d = abs(r - s)
            if min(d, math.pi - d) < tol:
                matched = True
                break
        if not matched:
            reps.append(r)
    return sorted(reps)


def angular_distance_mod_pi(a, b):
    """Distance between two directions regarded mod pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


@dataclass(frozen=True)
class RayLabels:
    """Labelled Stokes-ray directions of Lambda(u^c).

    ``basic`` holds the mu directions in (tau - pi, tau), ascending, so that
    ``basic[-1]`` is tau_0: the labelling origin nu=0 is fixed at the largest
    ray direction below tau.  ``nu_offset`` records that convention so a
    report can be re-based onto another choice of origin.
    """

    tau: float
    mu: int
    basic: tuple
    nu_offset: int = 0

    def tau_nu(self, m):
        """Direction tau_m of the ray with label m (any integer)."""
        mu = self.mu
        i = (mu - 1 + m) % mu
        k = (mu - 1 + m) // mu
        return self.basic[i] + k * math.pi


def label_rays(u_c, tau, tol=ANGLE_TOL):
    """Count and label the basic Stokes rays of Lambda(u^c) around tau.

    Returns ``(nu, mu, labels)`` where nu = 0 by the convention that tau_0 is
    the largest ray direction below tau, mu is the number of ray classes mod
    pi, and ``labels`` is a :class:`RayLabels`.

    Raises :class:`NonAdmissibleError` if tau lies on a ray mod pi.
    """
    rays, _ = stokes_ray_directions(u_c)
    if not rays:
        raise ValueError("all coordinates of u^c coincide; no Stokes rays exist")
    reps = _mod_pi_classes(rays.values(), tol=tol)
    for r in reps:
        if angular_distance_mod_pi(tau, r) < tol:
            # suggest the midpoint of the widest gap between ray classes
            gaps = [(reps + [reps[0] + math.pi])[i + 1] - reps[i] for i in range(len(reps))]
            i = int(np.argmax(gaps))
            suggestion = (reps[i] + gaps[i] / 2.0) % math.pi
            raise NonAdmissibleError(
                f"tau={tau} coincides with a Stokes ray direction mod pi",
                suggestion=suggestion,
            )
    mu = len(reps)
    # representative of each class in (tau - pi, tau)
    basic = sorted(r + math.pi * math.floor((tau - r) / math.pi) for r in reps)
    labels = RayLabels(tau=float(tau), mu=mu, basic=tuple(basic))
    return 0, mu, labels


def _group_partition(u_c):
    """Partition indices of u^c into coalescence groups (order of first appearance)."""
    u_c = _as_complex_vector(u_c)
    groups = []
    values = []
    for i, x in enumerate(u_c):
        for g, v in zip(groups, values):
            if abs(x - v) < COALESCE_TOL:
                g.append(i)
                break
        else:
            groups.append([i])
            values.append(x)
    return [tuple(g) for g in groups], values


@dataclass(frozen=True)
class DeformationGeometry:
    """Polydisc geometry around a coalescence point u^c.

    Holds the group partition of u^c, the polydisc radius epsilon0, the
    admissible direction tau at u^c (eta = 3 pi/2 - tau in the lambda-plane)
    and the labelled Stokes rays of Lambda(u^c).
    """

    u_c: np.ndarray
    epsilon0: float
    tau: float
    groups: tuple = field(default=None)
    group_values: tuple = field(default=None)
    labels: RayLabels = field(default=None)

    def __init__(self, u_c, epsilon0, tau, tol=ANGLE_TOL):
        u_c = _as_complex_vector(u_c)
        groups, values = _group_partition(u_c)
        _, _, labels = label_rays(u_c, tau, tol=tol) if len(groups) > 1 else (0, 0, None)
        if labels is None:
            raise ValueError("u^c must have at least two distinct coordinates")
        object.__setattr__(self, "u_c", u_c)
        object.__setattr__(self, "epsilon0", float(epsilon0))
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "group_values", tuple(values))
        object.__setattr__(self, "labels", labels)
        dmax = self.max_epsilon0()
        if self.epsilon0 >= dmax:
            raise ValueError(
                f"epsilon0={epsilon0} is not smaller than the minimal half-distance "
                f"{dmax:.6g} between the parallel cut lines of the groups"
            )

    @property
    def n(self):
        return self.u_c.size

    @property
    def eta(self):
        return 1.5 * math.pi - self.tau

    @property
    def mu(self):
        return self.labels.mu

    def group_of(self, i):
        for a, g in enumerate(self.groups):
            if i in g:
                return a
        raise IndexError(i)

    def same_group(self, i, j):
        return self.group_of(i) == self.group_of(j)

    def max_epsilon0(self):
        """min over group pairs of the half-distance between their cut half-lines."""
        e = cmath.exp(1j * self.eta)
        best = math.inf
        vals = self.group_values
        for a in range(len(vals)):
            for b in range(len(vals)):
                if a == b:
                    continue
                d = vals[a] - vals[b]
                # distance from -d to the half-line {rho * e, rho >= 0}
                rho = max(0.0, (-d * np.conj(e)).real)
                best = min(best, abs(d + rho * e) / 2.0)
        return best

    def contains(self, u):
        u = _as_complex_vector(u)
        return bool(np.max(np.abs(u - self.u_c)) <= self.epsilon0 + 1e-15)

    def ray_rotation_bound(self, j, k):
        """Max rotation of the (j,k) Stokes-ray direction over the polydisc.

        Exact bound asin(2 eps0 / |u_j^c - u_k^c|) for a cross-group pair:
        u_j - u_k ranges over the disc of radius 2 eps0 centred at the
        separation of the group values.
        """
        d = abs(self.u_c[j] - self.u_c[k])
        if d < COALESCE_TOL:
            raise ValueError(f"pair ({j},{k}) coalesces at u^c; its ray has no u^c direction")
        r = 2.0 * self.epsilon0 / d
        if r >= 1.0:
            return math.pi  # degenerate; epsilon0 validation will reject this
        return math.asin(r)

    def class_rotation_bounds(self, tol=ANGLE_TOL):
        """Rotation bound per ray class mod pi: list of (class rep, bound)."""
        rays, _ = stokes_ray_directions(self.u_c)
        reps = _mod_pi_classes(rays.values(), tol=tol)
        bounds = [0.0] * len(reps)
        for (j, k), th in rays.items():
            rot = self.ray_rotation_bound(j, k)
            for i, r in enumerate(reps):
                if angular_distance_mod_pi(th, r) < tol:
                    bounds[i] = max(bounds[i], rot)
                    break
        return list(zip(reps, bounds))

    def validate(self, tol=ANGLE_TOL):
        """Check that no cross-group ray can attain direction tau mod pi.

        Returns the minimal angular margin (positive means valid).
        """
        margin = math.inf
        for rep, bound in self.class_rotation_bounds(tol=tol):
            margin = min(margin, angular_distance_mod_pi(self.tau, rep) - bound)
        return margin


@dataclass(frozen=True)
class CutPlane:
    """Cut lambda-plane P_eta: parallel cuts from each pole in direction eta.

    The branch of log(lam - u_k) is fixed by
    eta - 2 pi < arg(lam - u_k) < eta.
    """

    eta: float

    def direction(self):
        return cmath.exp(1j * self.eta)

    def arg_from(self, lam, pole):
        """arg(lam - pole) in the branch window (eta - 2 pi, eta)."""
        a = cmath.phase(lam - pole)  # (-pi, pi]
        while a >= self.eta:
            a -= TWO_PI
        while a < self.eta - TWO_PI:
            a += TWO_PI
        return a

    def is_admissible(self, u, tol=ANGLE_TOL):
        """True if no cut from one pole passes through another pole."""
        u = _as_complex_vector(u)
        for j in range(u.size):
            for k in range(u.size):
                if j == k or abs(u[j] - u[k]) < COALESCE_TOL:
                    continue
                if angular_distance_mod_pi(self.eta, cmath.phase(u[j] - u[k])) < tol:
                    return False
        return True


def sector_bounds(label, geometry, shrink=False, tol=ANGLE_TOL):
    """Angular bounds of the sector S_hat with the given integer label.

    At u = u^c the sector is exactly (tau_m - pi, tau_{m+1}).  With
    ``shrink=True`` the bounds are tightened by the maximal ray rotation
    over the polydisc, giving a sector contained in the intersection over
    all u (conservative); this requires the label to be a multiple of mu so
    that the sector is pinned to an admissible direction tau + h pi.
    """
    labels = geometry.labels
    lo0 = labels.tau_nu(label) - math.pi
    hi0 = labels.tau_nu(label + 1)
    if not shrink:
        return lo0, hi0
    mu = labels.mu
    if label % mu != 0:
        raise ValueError(
            f"shrunk bounds need a label that is a multiple of mu={mu}; got {label}"
        )
    h = label // mu
    tau = geometry.tau
    cls = geometry.class_rotation_bounds(tol=tol)
    # rays live in windows (tau+(m-1)pi, tau+m pi) and never leave them
    lo, hi = lo0, hi0
    for rep, bound in cls:
        for m in (h - 1, h + 1):
            p = rep + math.pi * math.floor((tau + m * math.pi - rep) / math.pi)
            if tau + (m - 1) * math.pi < p < tau + m * math.pi:
                if m == h - 1:
                    lo = max(lo, p + bound)
                else:
                    hi = min(hi, p - bound)
    return lo, hi


def is_in_cell(u, geometry, tau=None, tol=ANGLE_TOL):
    """Whether u lies in the interior of a tau-cell of the polydisc.

    True iff u avoids the coalescence locus and no Stokes ray of Lambda(u)
    has direction tau mod pi.  Returns ``(ok, offenders)`` where offenders
    is a list of ``(j, k, reason)`` with reason ``"coalescence"`` or
    ``"ray_on_tau"``.
    """
    if tau is None:
        tau = geometry.tau
    u = _as_complex_vector(u)
    offenders = []
    rays, skipped = stokes_ray_directions(u)
    for (j, k) in skipped:
        if j < k:
            offenders.append((j, k, "coalescence"))
    for (j, k), th in rays.items():
        if j < k and angular_distance_mod_pi(th, tau) < tol:
            offenders.append((j, k, "ray_on_tau"))
    return (not offenders), offenders
