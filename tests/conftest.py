import cmath
import math

import numpy as np
import pytest

from isomonodromy.model import DeformationGeometry, SystemPair

TAU_2x2 = math.pi / 4


def residue(fs, k):
    """The residue B_k = -E_k(A+I) as a dense matrix: row k of -(A+I), zeros elsewhere."""
    B = np.zeros((fs.n, fs.n), dtype=complex)
    B[k] = -fs.A_plus_I[k]
    return B


def dense_rhs(fs, lam):
    """Matrix sum_k B_k/(lam - u_k) of the Fuchsian ODE, one per point of lam (..., 1)."""
    return -fs.A_plus_I / (lam - fs.u)[..., None]


def omega(system, k):
    """omega_k = [F_1, E_k] entry by entry at distinct u, F_1 = A_ij / (u_j - u_i) off the
    diagonal: column k holds F_1's entries, row k their negatives, and (k, k) is 0."""
    A, u = system.A, system.u
    W = np.zeros_like(A)
    for i in range(system.n):
        if i != k:
            W[i, k] = A[i, k] / (u[k] - u[i])
            W[k, i] = -(A[k, i] / (u[i] - u[k]))
    return W


def dense_piece(fs, piece):
    """End block of one carry piece and its Laplace integrals, by scipy's DOP853 on dense residues.

    One solve per chord of the piece's polyline, at rtol = 1e-13 and
    atol = 1e-20.  Returns ``(Y(1), J)``.
    """
    from scipy.integrate import solve_ivp

    y0 = np.asarray(piece.y0, dtype=complex)
    state = np.zeros((1 + piece.z.size,) + y0.shape, dtype=complex)
    state[0] = y0
    vertices = [piece.a, *piece.via, piece.a + piece.b]
    for x0, dx in zip(vertices, np.diff(vertices)):

        def rhs(s, y, x0=x0, dx=dx):
            x = x0 + dx * s
            y = y.reshape(state.shape)
            dy = np.empty_like(y)
            dy[0] = dense_rhs(fs, piece.pole + x) @ y[0] * dx
            dy[1:] = np.multiply.outer(np.exp(piece.z * x) * dx, y[0])
            return dy.ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), state.ravel(), method="DOP853", rtol=1e-13, atol=1e-20)
        assert sol.success
        state = sol.y[:, -1].reshape(state.shape)
    return state[0], state[1:]


@pytest.fixture
def system_2x2():
    """The workhorse 2x2 system with noninteger exponents."""
    A = np.array([[0.5, 2.0], [3.0, 1.0 / 3.0]], dtype=complex)
    return SystemPair(A, [0.0, 1.0])


@pytest.fixture
def geometry_2x2():
    return DeformationGeometry([0.0, 1.0], 0.08, TAU_2x2)


@pytest.fixture
def coalescing_geometry():
    """Groups {1,2} at 0 and {3} at 1, admissible tau = 0.35."""
    return DeformationGeometry([0.0, 0.0, 1.0], 0.09, 0.35)


@pytest.fixture
def vanishing_A_uc():
    """A at u^c with vanishing in-group entries, equal in-group exponents."""
    return np.array(
        [[0.3, 0.0, 0.45], [0.0, 0.3, -0.35], [0.6, 0.5, 0.21]], dtype=complex
    )


def draw_system(rng, n, scale=0.3, min_gap=0.6, int_margin=0.15, tau_margin=0.12):
    """Random system with distinct u, exponents clear of the integers, and
    an admissible tau with ordering margin.  Returns (SystemPair, tau)."""
    while True:
        u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        gaps = [abs(u[i] - u[j]) for i in range(n) for j in range(i + 1, n)]
        if min(gaps) < min_gap:
            continue
        A = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        lp = np.diag(A)
        if min(abs(x.imag) + abs(x.real - round(x.real)) for x in lp) < int_margin:
            continue
        ev = np.linalg.eigvals(A)
        if min(abs(x.imag) + abs(x.real - round(x.real)) for x in ev) < 0.1:
            continue
        for tau in np.linspace(0.05, math.pi - 0.05, 37):
            dirs = [
                (1.5 * math.pi - cmath.phase(u[i] - u[j])) % math.pi
                for i in range(n)
                for j in range(n)
                if i != j
            ]
            m1 = min(
                min((tau - d) % math.pi, math.pi - ((tau - d) % math.pi)) for d in dirs
            )
            m2 = min(
                abs((cmath.exp(1j * tau) * (u[i] - u[j])).real)
                for i in range(n)
                for j in range(i + 1, n)
            )
            if m1 > tau_margin and m2 > 0.05:
                return SystemPair(A, u), float(tau)
