"""System definitions, deformation-space geometry and Stokes-ray bookkeeping.

Everything downstream consumes the objects defined here: the matrix pair
(A, Lambda=diag(u)) with the residues -E_k(A+I) of its Laplace-dual system,
the polydisc around a coalescence point with its group structure, the cut
lambda-plane, and the labelled Stokes rays / sectors in the z-plane.
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
# m! is a finite float up to this m
MAX_FACTORIAL = 170

TWO_PI = 2.0 * math.pi


def nearest_integer(x):
    """round(Re x) if :func:`integer_distance` puts x within INTEGER_TOL of it, else None."""
    x = complex(x)
    return round(x.real) if integer_distance(x) < INTEGER_TOL else None


def integer_distance(x):
    """max(|Im x|, |Re x - round(Re x)|) of a number x, or of every entry of an array x."""
    return np.maximum(abs(x.imag), abs(x.real - np.rint(x.real)))


def exponent_class(x):
    """Arithmetic class of an exponent: ``"noninteger"``, ``"natural"``
    (integer >= 0) or ``"negative_integer"`` (integer <= -1)."""
    r = nearest_integer(x)
    if r is None:
        return "noninteger"
    return "natural" if r >= 0 else "negative_integer"


def check_vanishing(A, u):
    """The mask of the pairs with |u_i - u_j| < COALESCE_TOL, once each of their
    A_ij, i != j, is below VANISH_TOL max(1, max|A|) (:class:`SingularF1` otherwise)."""
    near = np.abs(u[None, :] - u[:, None]) < COALESCE_TOL
    bad = np.argwhere(near & ~np.eye(u.size, dtype=bool)
                      & (np.abs(A) > VANISH_TOL * max(1.0, float(np.max(np.abs(A))))))
    if bad.size:
        i, j = bad[0]
        raise SingularF1(f"u_{i} = u_{j} but |A[{i},{j}]| = {abs(A[i, j]):.2e}: "
                         "vanishing conditions violated")
    return near


class NonAdmissibleError(ValueError):
    """Raised when a direction coincides with a Stokes ray mod pi."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


# Every typed numerical failure, defined here so the command line catches them all
# without loading the modules that raise them and re-export them.


class StepFailure(RuntimeError):
    """Adaptive integrator failed (step underflow or solver error)."""


class BasisSingular(np.linalg.LinAlgError):
    """Selected solutions do not form a fundamental system at this point."""


class IllConditioned(RuntimeError):
    """A projection left a residual above tolerance, or a value left the float range."""


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


class ResonanceAmbiguity(ArithmeticError):
    """A local exponent recursion hit an unresolved zero divisor."""


class BadGamma(ValueError):
    """The requested gamma does not clear the integer spectrum conditions."""


def _as_complex_vector(u):
    v = np.asarray(u, dtype=complex).ravel()
    return v


def _as_complex_matrix(A):
    M = np.array(A, dtype=complex, order="C")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


@dataclass(frozen=True)
class SystemPair:
    """The matrix A together with the eigenvalue point u of Lambda=diag(u).

    The pair keeps its own copies of A and u and builds two arrays from them
    once: ``lambda_prime``, the diagonal of A, which is constant along
    isomonodromic deformations and controls every local exponent in the
    Laplace-dual Fuchsian system, and ``A_plus_I`` = A + I, whose row k,
    negated, is the only nonzero row of that system's rank-one residue
    B_k = -E_k(A+I) at u_k.  All four are read-only, so that no in-place
    edit can split them: a changed system is a new pair.
    """

    A: np.ndarray
    u: np.ndarray
    lambda_prime: np.ndarray
    A_plus_I: np.ndarray

    def __init__(self, A, u):
        A = _as_complex_matrix(A)
        u = _as_complex_vector(u).copy()
        if A.shape[0] != u.size:
            raise ValueError(
                f"dimension mismatch: A is {A.shape[0]}x{A.shape[0]}, u has {u.size} entries"
            )
        if not (np.isfinite(A).all() and np.isfinite(u).all()):
            raise ValueError(f"{'u' if np.isfinite(A).all() else 'A'} is not finite")
        for name, value in (("A", A), ("u", u), ("lambda_prime", np.diag(A).copy()),
                            ("A_plus_I", A + np.eye(u.size))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return self.u.size

    def min_gap(self, k):
        gaps = [abs(self.u[k] - self.u[m]) for m in range(self.n) if m != k]
        return min(gaps) if gaps else math.inf

    def validity_radius(self, k):
        """Radius within which the local series at u_k is trusted."""
        return 0.75 * self.min_gap(k)

    def integer_class(self, k):
        return exponent_class(self.lambda_prime[k])


def angular_distance_mod_pi(a, b):
    """Distance between two directions regarded mod pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def _ray_classes(u, epsilon0):
    """The Stokes rays of Lambda(u) and their classes mod pi, in one pass over the pairs.

    Returns ``(rays, skipped, classes)``: the first two as
    :func:`stokes_ray_directions` returns them, ``classes`` the sorted tuple
    of (rep, bound).  A rep is its class's first ray mod pi in row-major
    order; a bound is the largest asin(2 epsilon0 / |u_j - u_k|) over the
    class, the exact rotation of a cross-group ray over the polydisc of
    radius epsilon0 (pi once the ratio reaches 1).
    """
    u = _as_complex_vector(u)
    if not np.isfinite(u).all():
        raise ValueError(f"u must be finite; got {u}")
    rays, skipped, reps, bounds = {}, [], [], []
    for j in range(u.size):
        for k in range(u.size):
            if j == k:
                continue
            d = u[j] - u[k]
            a = abs(d)
            if a < COALESCE_TOL:
                skipped.append((j, k))
                continue
            # atan2 is cmath.phase without its OverflowError on a subnormal angle
            th = rays[(j, k)] = (1.5 * math.pi - math.atan2(d.imag, d.real)) % TWO_PI
            q = 2.0 * epsilon0 / a
            rot = math.pi if q >= 1.0 else math.asin(q)
            for i, r in enumerate(reps):
                if angular_distance_mod_pi(th, r) < ANGLE_TOL:
                    bounds[i] = max(bounds[i], rot)
                    break
            else:
                reps.append(th % math.pi)
                bounds.append(rot)
    return rays, skipped, tuple(sorted(zip(reps, bounds)))


def stokes_ray_directions(u):
    """Directions of the Stokes rays of Lambda(u) in the z-plane.

    For each ordered pair (j, k) with u_j != u_k, the ray is the unique
    theta in [0, 2 pi) with Re((u_j-u_k) e^{i theta}) = 0 and
    Im((u_j-u_k) e^{i theta}) < 0, i.e. theta = 3 pi/2 - arg(u_j-u_k).

    Returns ``(rays, skipped)`` where ``rays`` maps 0-based pairs (j, k) to
    theta and ``skipped`` lists the coalesced pairs that were omitted.
    """
    return _ray_classes(u, 0.0)[:2]


@dataclass(frozen=True)
class RayLabels:
    """Labelled Stokes-ray directions of Lambda(u^c).

    ``basic`` holds the mu directions in (tau - pi, tau), ascending, so that
    ``basic[-1]`` is tau_0: the labelling origin nu = 0 is fixed at the
    largest ray direction below tau.
    """

    tau: float
    mu: int
    basic: tuple

    def tau_nu(self, m):
        """Direction tau_m of the ray with label m (any integer)."""
        mu = self.mu
        i = (mu - 1 + m) % mu
        k = (mu - 1 + m) // mu
        return self.basic[i] + k * math.pi


def _labels(reps, tau):
    """The :class:`RayLabels` of the sorted class reps in [0, pi) around tau."""
    for r in reps:
        if angular_distance_mod_pi(tau, r) < ANGLE_TOL:
            # suggest the midpoint of the widest gap between ray classes
            gaps = [(reps + [reps[0] + math.pi])[i + 1] - reps[i] for i in range(len(reps))]
            i = int(np.argmax(gaps))
            suggestion = (reps[i] + gaps[i] / 2.0) % math.pi
            raise NonAdmissibleError(
                f"tau={tau} coincides with a Stokes ray direction mod pi",
                suggestion=suggestion,
            )
    # representative of each class in (tau - pi, tau)
    basic = sorted(r + math.pi * math.floor((tau - r) / math.pi) for r in reps)
    return RayLabels(tau=float(tau), mu=len(reps), basic=tuple(basic))


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
    and the labelled Stokes rays of Lambda(u^c).  ``rotation`` holds the
    ray classes mod pi of u^c with their rotation bounds over the polydisc
    (:func:`_ray_classes`, built once per geometry), which ``labels``,
    :func:`sector_bounds` and :meth:`validate` read.  ``in_group`` is the
    (n, n) mask of the pairs j != k that coalesce at u^c, and ``ordering``
    the dominance :class:`Ordering` at u^c that the Stokes formula reads.
    """

    u_c: np.ndarray
    epsilon0: float
    tau: float
    groups: tuple = field(default=None)
    group_values: tuple = field(default=None)
    labels: RayLabels = field(default=None)
    rotation: tuple = field(default=None)
    in_group: np.ndarray = field(default=None)
    ordering: Ordering = field(default=None)

    def __init__(self, u_c, epsilon0, tau):
        u_c, epsilon0, tau = _as_complex_vector(u_c), float(epsilon0), float(tau)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(u_c - u_c[:, None]).all():
                raise ValueError("u_c must be finite, and so must its differences u_j - u_k")
        if not 0.0 < epsilon0 < math.inf:
            raise ValueError(f"epsilon0 must be finite and positive; got {epsilon0}")
        if not math.isfinite(tau):
            raise ValueError(f"tau must be finite; got {tau}")
        if math.ulp(tau) > ANGLE_TOL:
            raise ValueError(f"tau={tau} is too far from 0: its float spacing "
                             f"{math.ulp(tau):.3g} exceeds ANGLE_TOL = {ANGLE_TOL:g}, so no "
                             f"ray test resolves it")
        groups, values = _group_partition(u_c)
        if len(groups) < 2:
            raise ValueError("u^c must have at least two distinct coordinates")
        _, _, rotation = _ray_classes(u_c, epsilon0)
        labels = _labels([rep for rep, _ in rotation], tau)
        member = np.array([[i in g for i in range(u_c.size)] for g in groups])
        in_group = (member.T @ member) & ~np.eye(u_c.size, dtype=bool)
        object.__setattr__(self, "u_c", u_c)
        object.__setattr__(self, "epsilon0", epsilon0)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "group_values", tuple(values))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "in_group", in_group)
        object.__setattr__(self, "ordering", Ordering(u_c, tau))
        dmax = self.max_epsilon0()
        if self.epsilon0 >= dmax:
            raise ValueError(
                f"epsilon0={epsilon0} is not smaller than the minimal half-distance "
                f"{dmax:.6g} between the parallel cut lines of the groups"
            )

    @property
    def eta(self):
        return 1.5 * math.pi - self.tau

    @property
    def mu(self):
        return self.labels.mu

    def max_epsilon0(self):
        """min over group pairs of the half-distance between their cut half-lines."""
        e = cmath.exp(1j * self.eta)
        conj = e.conjugate()
        # Python complex scalars: the arithmetic of numpy's scalars, at less cost
        vals = [complex(v) for v in self.group_values]
        best = math.inf
        for a, va in enumerate(vals):
            for b, vb in enumerate(vals):
                if a != b:
                    d = va - vb
                    # distance from -d to the half-line {rho * e, rho >= 0}
                    rho = max(0.0, (-d * conj).real)
                    best = min(best, abs(d + rho * e) / 2.0)
        return best

    def validate(self):
        """Check that no cross-group ray can attain direction tau mod pi.

        Returns the minimal angular margin (positive means valid).
        """
        return min(angular_distance_mod_pi(self.tau, rep) - bound for rep, bound in self.rotation)


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
        """arg(lam - pole) in the branch window [eta - 2 pi, eta).

        One turn is taken as one step of 2 pi; the turns past it are taken
        together, so the cost does not grow with |eta|.
        """
        a = cmath.phase(lam - pole)  # (-pi, pi]
        if a >= self.eta:
            a -= TWO_PI
            if a >= self.eta:
                a += TWO_PI * (math.ceil((self.eta - a) / TWO_PI) - 1)
        elif a < self.eta - TWO_PI:
            a += TWO_PI
            if a < self.eta - TWO_PI:
                a += TWO_PI * (math.ceil((self.eta - a) / TWO_PI) - 1)
        return a


def sector_bounds(label, geometry, shrink=False):
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
    # rays live in windows (tau+(m-1)pi, tau+m pi) and never leave them
    lo, hi = lo0, hi0
    for rep, bound in geometry.rotation:
        for m in (h - 1, h + 1):
            p = rep + math.pi * math.floor((tau + m * math.pi - rep) / math.pi)
            if tau + (m - 1) * math.pi < p < tau + m * math.pi:
                if m == h - 1:
                    lo = max(lo, p + bound)
                else:
                    hi = min(hi, p - bound)
    return lo, hi


def _dominance(u, tau):
    """Pairwise s_jk = Re(e^{i tau}(u_j - u_k)) with the pairs that carry no sign.

    Returns ``(s, near, tie)``: ``near`` marks the pairs with
    |u_j - u_k| < COALESCE_TOL (the diagonal included) and ``tie`` the
    others whose Stokes ray lies on tau mod pi, |s_jk| < ANGLE_TOL |u_j - u_k|.
    """
    d = u[:, None] - u[None, :]
    s = (cmath.exp(1j * tau) * d).real
    near = np.abs(d) < COALESCE_TOL
    return s, near, ~near & (np.abs(s) < ANGLE_TOL * np.abs(d))


class Ordering:
    """Dominance order at a point u: j prec k iff Re(e^{i tau}(u_j - u_k)) < 0.

    The Stokes formula takes it at u^c (:attr:`DeformationGeometry.ordering`),
    and :func:`is_in_cell` compares the signs at u with it.  ``sign`` is the
    (n, n) array of the signs of Re(e^{i tau}(u_j - u_k)), 0 on the diagonal
    and for coalesced pairs (their Stokes entries are structural zeros).
    Raises :class:`NonAdmissibleError` for a tie, a pair whose Stokes ray
    lies on tau mod pi (:func:`_dominance`).
    """

    def __init__(self, u_c, tau):
        s, near, tie = _dominance(_as_complex_vector(u_c), tau)
        if tie.any():
            j, k = np.argwhere(tie)[0]
            raise NonAdmissibleError(
                f"ordering tie for pair ({j},{k}): tau={tau} is a Stokes direction at u")
        self.sign = np.where(near, 0, np.sign(s)).astype(int)


def is_in_cell(u, geometry):
    """Whether u lies in the interior of the tau-cell of u^c in the polydisc.

    True iff u avoids the coalescence locus, no Stokes ray of Lambda(u) has
    direction ``geometry.tau`` mod pi, and every cross-group pair keeps its
    dominance sign at u^c (``geometry.ordering.sign``), so that no Stokes ray
    has crossed tau on the way from u^c.  Returns ``(ok, offenders)`` where
    offenders is a list of ``(j, k, reason)``, j < k, with reason
    ``"coalescence"``, ``"ray_on_tau"`` (the ties of :class:`Ordering`) or
    ``"crossed"``.
    """
    s, near, tie = _dominance(_as_complex_vector(u), geometry.tau)
    sign = geometry.ordering.sign
    crossed = (sign != 0) & ~near & ~tie & (np.sign(s) != sign)
    offenders = [(j, k, reason) for reason, mask in (
                     ("coalescence", near), ("ray_on_tau", tie), ("crossed", crossed))
                 for j, k in np.argwhere(np.triu(mask, 1)).tolist()]
    return (not offenders), offenders
