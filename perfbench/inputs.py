"""Seeded inputs of the benchmark workloads.

Everything here uses numpy only; the program under test receives the
generated arrays.  The random systems follow the non-resonant admissibility
rule of the test suite's ``draw_system`` (restated below, not imported), so
no operation meets a resonance or an inadmissible ``tau`` by construction.
"""

import cmath
import hashlib
import math

import numpy as np

SWEEP_SIZES = (2, 3, 4, 5, 6)
FAMILY_SIZES = (3, 4, 5, 6)
MIN_GAP = 0.35
# Systems are a fixed base family, drawn once from BASE_SEED, moved by a
# perturbation of this relative size drawn from the run seed.  Independent
# draws per seed made the oracle sweep's throughput differ by 43 % (IQR over
# median) between seeds; perturbing one family keeps each run's cost
# comparable while every seed still gives different inputs.
BASE_SEED = 0
PERTURBATION = 0.02
TAU_GRID = tuple(np.linspace(0.05, math.pi - 0.05, 37))
LOOP_SEGMENTS = 16
LOOP_RADIUS_FRAC = 0.1
CLI_COMMANDS = (
    ("rays", "sample2x2.json"),
    ("stokes", "sample2x2.json"),
    ("deform", "coalescing3x3.json"),
    ("levelt", "resonant_group.json"),
    ("check", "sample2x2.json"),
)


def _off_integer(x):
    return abs(x.imag) + abs(x.real - round(x.real))


def _min_gap(u):
    return min(abs(u[i] - u[j]) for i in range(u.size) for j in range(i + 1, u.size))


def admissible_tau(A, u, taus=TAU_GRID, int_margin=0.15, tau_margin=0.12, min_gap=MIN_GAP):
    """The first of ``taus`` admissible for (A, u) under the rule, or None.

    Distinct poles at least ``min_gap`` apart, diagonal entries and
    eigenvalues of A clear of the integers, and a tau whose distance to
    every Stokes direction exceeds ``tau_margin``.
    """
    n = u.size
    if _min_gap(u) < min_gap:
        return None
    if min(_off_integer(x) for x in np.diag(A)) < int_margin:
        return None
    if min(_off_integer(x) for x in np.linalg.eigvals(A)) < 0.1:
        return None
    dirs = [
        (1.5 * math.pi - cmath.phase(u[i] - u[j])) % math.pi
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    for tau in taus:
        m1 = min(min((tau - d) % math.pi, math.pi - ((tau - d) % math.pi)) for d in dirs)
        m2 = min(
            abs((cmath.exp(1j * tau) * (u[i] - u[j])).real)
            for i in range(n)
            for j in range(i + 1, n)
        )
        if m1 > tau_margin and m2 > 0.05:
            return float(tau)
    return None


def draw_system(rng, n, scale=0.3):
    """Random system satisfying the rule: ``(A, u, tau, rejections)``."""
    rejections = 0
    while True:
        u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if _min_gap(u) < MIN_GAP:
            rejections += 1
            continue
        A = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        tau = admissible_tau(A, u)
        if tau is not None:
            return A, u, tau, rejections
        rejections += 1


def perturb(A0, u0, tau0, rng, scale=0.3):
    """The base system moved by a seeded perturbation that keeps the rule and tau."""
    n = u0.size
    rejections = 0
    while True:
        A = A0 + PERTURBATION * scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = u0 + PERTURBATION * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        if admissible_tau(A, u, taus=(tau0,)) is not None:
            return A, u, tau0, rejections
        rejections += 1


def _systems(seed, sizes, per_size, stream):
    """Base systems from BASE_SEED, each perturbed by the run seed."""
    base_rng = np.random.default_rng([BASE_SEED, stream])
    rng = np.random.default_rng([seed, stream])
    out, rejections = [], 0
    for _ in range(per_size):
        for n in sizes:
            A0, u0, tau0, r0 = draw_system(base_rng, n)
            A, u, tau, r = perturb(A0, u0, tau0, rng)
            out.append({"n": n, "A": A, "u": u, "tau": tau})
            rejections += r0 + r
    return out, rejections, rng


def sweep_inputs(seed, per_size):
    """Systems with n = 2..6 in equal shares, interleaved by size."""
    items, rejections, _ = _systems(seed, SWEEP_SIZES, per_size, 0)
    return items, rejections


def family_inputs(seed, per_size):
    """Systems with n = 3..6 and a closed loop of u_0 around a small circle.

    The circle passes through the start point and has radius
    ``LOOP_RADIUS_FRAC`` times the minimum pole gap, so it encloses no
    diagonal u_i = u_j.  The last waypoint equals the start exactly.
    """
    items, rejections, rng = _systems(seed, FAMILY_SIZES, per_size, 1)
    for item in items:
        u = item["u"]
        radius = LOOP_RADIUS_FRAC * _min_gap(u)
        phi0 = rng.uniform(0.0, 2 * math.pi)
        center = u[0] - radius * cmath.exp(1j * phi0)
        waypoints = []
        for s in range(1, LOOP_SEGMENTS):
            w = u.copy()
            w[0] = center + radius * cmath.exp(1j * (phi0 + 2 * math.pi * s / LOOP_SEGMENTS))
            waypoints.append(w)
        waypoints.append(u.copy())
        item["waypoints"] = np.array(waypoints)
    return items, rejections


def cli_inputs(seed):
    """The five README commands in README order; they take no random input."""
    return list(CLI_COMMANDS), 0


def digest(items):
    """Short SHA-256 over the exact bytes of the generated inputs."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, dict):
            for key in sorted(item):
                h.update(key.encode())
                h.update(np.asarray(item[key]).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()[:16]
