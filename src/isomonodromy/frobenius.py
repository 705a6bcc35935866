"""Fuchsian system B_k = -E_k(A+I) and local Frobenius series at its poles.

At each pole u_k the dual system (Lambda - lam) dPsi/dlam = (A+I) Psi has
exponents 0 (n-1 fold) and -lambda'_k - 1.  The arithmetic class of
lambda'_k = A_kk decides the local structure:

* ``noninteger``       Psi_k = psi_k(lam) (lam-u_k)^(-lambda'_k-1), branch point;
* ``negative_integer`` Psi_k analytic, the singular companion carries a log;
* ``natural``          the singular companion has a pole and a log, and the
                       analytic selected solution may degenerate to zero.

All series are produced by direct recursions in the original coordinates;
nothing here depends on the branch cut (only evaluation does).  Every
local series solves, order by order,

    (s_l I - B_k) x_l = sum_{p<l} C_p x_{l-1-p} - source_l,   s_l = l + shift,

through one step: the convolution with the (order+1, n, n) array of
Taylor coefficients C_p (:func:`_convolve`) and a Sherman-Morrison solve
for the rank-one residue B_k = -e_k w^T, w = row k of A+I (:func:`_solve`).
Its divisors s_l and s_l + w_k vanish only at the resonant order, which
the exponent-0 series pin through one chain (:func:`_chain`) from the
kernel seeds of w (:func:`_kernel_seeds`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    COALESCE_TOL,
    INTEGER_TOL,
    VANISH_TOL,
    SystemPair,
    exponent_class,
    nearest_integer,
)


class ResonanceAmbiguity(ArithmeticError):
    """A local exponent recursion hit an unresolved zero divisor."""


class BadGamma(ValueError):
    """The requested gamma does not clear the integer spectrum conditions."""


@dataclass(frozen=True)
class FuchsianSystem:
    """Residue matrices B_k = -E_k(A+I) at pole locations u.

    Each B_k has rank one: its only nonzero row is row k of -(A+I), which
    ``A_plus_I`` holds once for the ODE right-hand side.
    """

    B: tuple
    u: np.ndarray
    lambda_prime: np.ndarray
    A: np.ndarray
    A_plus_I: np.ndarray

    @property
    def n(self):
        return self.u.size

    def rhs(self, lam):
        """Coefficient matrix sum_k B_k/(lam - u_k) of the ODE: row k is -(A+I)_k/(lam - u_k).

        An array ``lam`` of shape (..., 1) gives one matrix per point,
        stacked along its leading axes.
        """
        return -self.A_plus_I / (lam - self.u)[..., None]

    def min_gap(self, k):
        gaps = [abs(self.u[k] - self.u[m]) for m in range(self.n) if m != k]
        return min(gaps) if gaps else math.inf

    def validity_radius(self, k):
        """Radius within which the local series at u_k is trusted."""
        return 0.75 * self.min_gap(k)

    def integer_class(self, k, tol=INTEGER_TOL):
        return exponent_class(self.lambda_prime[k], tol)


def build_fuchsian(system: SystemPair) -> FuchsianSystem:
    """Entrywise construction of the residue matrices B_k = -E_k(A+I)."""
    A = system.A
    n = system.n
    A_plus_I = A + np.eye(n)
    B = []
    for k in range(n):
        Bk = np.zeros((n, n), dtype=complex)
        Bk[k, :] = -A_plus_I[k, :]
        B.append(Bk)
    return FuchsianSystem(
        B=tuple(B), u=system.u.copy(), lambda_prime=system.lambda_prime.copy(), A=A.copy(),
        A_plus_I=A_plus_I,
    )


# ---------------------------------------------------------------------------
# series recursions at a single pole
# ---------------------------------------------------------------------------

# a recursion divisor below this is an unresolved resonance
_ZERO_DIVISOR = 1e-300


def _local_coeffs(fs: FuchsianSystem, k: int, order: int):
    """Taylor coefficients C_p, p = 0..order, of sum_{m!=k} B_m/(lam-u_m) at lam = u_k.

    One (order+1, n, n) array: row m of C_p is (A+I)_m/(u_m - u_k)^(p+1),
    row k is zero.
    """
    a = fs.u - fs.u[k]
    for m in range(fs.n):
        if m != k and abs(a[m]) < COALESCE_TOL:
            raise ResonanceAmbiguity(
                f"poles u_{k} and u_{m} coincide; local series at a merged pole "
                "must go through the confluent Levelt construction"
            )
    inv = np.zeros(fs.n, dtype=complex)
    others = np.arange(fs.n) != k
    inv[others] = 1.0 / a[others]
    powers = inv[None, :] ** np.arange(1, order + 2)[:, None]
    return powers[:, :, None] * fs.A_plus_I[None, :, :]


def _convolve(C, x, l, source=None):
    """Right-hand side sum_{p<l} C_p x_{l-1-p} of order l, less ``source[l]`` if given."""
    rhs = np.einsum("pij,pj->i", C[:l], x[l - 1::-1])
    return rhs if source is None else rhs - source[l]


def _solve(s, w, k, r):
    """(s I - B_k)^-1 r for the rank-one residue B_k = -e_k w^T (Sherman-Morrison).

    (s I + e_k w^T)^-1 r = (r - e_k (w . r)/(s + w_k))/s.  The divisor
    s + w_k vanishes exactly at the resonant order that the callers pin;
    a vanishing divisor raises :class:`ResonanceAmbiguity`.
    """
    t = s + w[k]
    if abs(s) < _ZERO_DIVISOR or abs(t) < _ZERO_DIVISOR:
        raise ResonanceAmbiguity(f"vanishing recursion divisor at pole {k} (s = {s})")
    x = r.copy()
    x[k] -= (w @ r) / t
    return x / s


def _propagate(C, w, k, x, orders, shift=0, source=None):
    """Fill x[l], l in ``orders``, from ((l + shift) I - B_k) x_l = _convolve(C, x, l, source)."""
    for l in orders:
        x[l] = _solve(l + shift, w, k, _convolve(C, x, l, source))
    return x


def _kernel_seeds(w, k):
    """Rows e_i - e_k w_i/w_k, i != k: leads of the exponent-0 solutions, spanning ker(w .)."""
    idx = [i for i in range(w.size) if i != k]
    seeds = np.eye(w.size, dtype=complex)[idx]
    if abs(w[k]) > 1e-13:
        seeds[:, k] = -w[idx] / w[k]
    return seeds


def _chain(C, w, k, seed, rho, source=None):
    """Exponent-0 recursion from ``seed`` up to the resonant order rho.

    Returns ``(phi, obstruction)``: the coefficients of orders 0..rho-1 and
    w . rhs_rho, which must vanish for order rho to be solvable.
    """
    phi = np.zeros((rho, w.size), dtype=complex)
    phi[0] = seed
    _propagate(C, w, k, phi, range(1, rho), 0, source)
    return phi, w @ _convolve(C, phi, rho, source)


def _exponent0_series(C, w, k, seed, N, rho, source=None):
    """Exponent-0 series of orders 0..N from ``seed``, pinned at the resonant order.

    At order rho (if 1 <= rho <= N) the solve keeps rhs/rho with the kernel
    (k-th) component pinned to zero.  Returns ``(phi, obstruction)``, the
    obstruction relative to the coefficients and right-hand side up to
    order rho (0 without a resonant order).
    """
    phi = np.zeros((N + 1, w.size), dtype=complex)
    phi[0] = seed
    if not 1 <= rho <= N:
        return _propagate(C, w, k, phi, range(1, N + 1), 0, source), 0.0
    phi[:rho], obstruction = _chain(C, w, k, seed, rho, source)
    rhs = _convolve(C, phi, rho, source)
    phi[rho] = rhs / rho
    phi[rho, k] = 0.0
    scale = max(1.0, float(np.max(np.abs(phi[:rho]))), float(np.max(np.abs(rhs))))
    return _propagate(C, w, k, phi, range(rho + 1, N + 1), 0, source), abs(obstruction) / scale


def horner(coeffs, x):
    """sum_l c_l x^l of a coefficient array, at a scalar x or at every point of an array x."""
    x = np.asarray(x)
    acc = np.zeros(x.shape + coeffs.shape[1:], dtype=complex)
    for c in coeffs[::-1]:
        acc = acc * x[..., None] + c
    return acc


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma in powers of 1/z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def cgamma(x):
    """Gamma at the complex point x, to about 1e-14 relative for |x| <= 12.

    Re x < 1/2 goes through the reflection Gamma(x) Gamma(1 - x) = pi / sin(pi x),
    with sin(pi x) = (-1)^k sin(pi (x - k)) for the nearest integer k, so points
    near the poles keep their relative accuracy (the poles give nan).  Otherwise
    x is shifted up to Re x >= 10, where eight Stirling terms leave a remainder
    below 1e-17, and the shift is divided out.
    """
    z = complex(x)
    if z.real < 0.5:
        k = round(z.real)
        s = cmath.sin(math.pi * (z - k))
        if s == 0:
            return complex(math.nan, math.nan)
        return (-1) ** k * math.pi / (s * cgamma(1 - z))
    shift = 1.0
    while z.real < 10:
        shift *= z
        z += 1
    w = 1 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    log_gamma = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series / z
    return cmath.exp(log_gamma) / shift


def leading_factor(lambda_prime_k, klass):
    """Normalizing constant f_k of the leading series coefficient."""
    if klass == "noninteger":
        return cgamma(lambda_prime_k + 1)
    r = round(lambda_prime_k.real)
    if klass == "negative_integer":
        return complex((-1) ** r) / math.factorial(-r - 1)
    # natural: pole part of the singular companion leads with lambda'_k!
    return float(math.factorial(r))


@dataclass
class LocalSolution:
    """Truncated Frobenius data of a selected or singular solution at u_k.

    ``b`` is the (N+1) x n array of coefficients of the psi_k factor
    (classes noninteger / negative_integer: selected solution is
    psi_k(x) x^(-lambda'_k-1); class natural: pole part of the singular
    companion).  ``d`` is the analytic selected series for class natural.
    ``phi`` is the pinned regular completion of a log-singular solution
    (classes negative_integer and natural).
    """

    k: int
    klass: str
    lambda_prime_k: complex
    pole: complex
    f_k: complex
    N: int
    radius: float
    b: np.ndarray = None
    d: np.ndarray = None
    phi: np.ndarray = None
    is_singular: bool = False
    zero: bool = False
    zero_verdict: str = ""
    analytic_completion: list = field(default_factory=list)
    residual: float = 0.0

    @property
    def rho(self):
        """Exponent of the branched factor, -lambda'_k - 1."""
        return -self.lambda_prime_k - 1

    def selected_value(self, lam, cut):
        """Value of the selected solution Psi_k on the branch of ``cut``."""
        x = lam - self.pole
        if self.klass == "natural":
            if self.zero:
                return np.zeros(self.b.shape[1], dtype=complex)
            return horner(self.d, x)
        base = horner(self.b, x)
        if self.klass == "negative_integer":
            return base * x ** int(round(self.rho.real))
        a = cut.arg_from(lam, self.pole)
        return base * np.exp(self.rho * (np.log(abs(x)) + 1j * a))


def selected_solution(fs: FuchsianSystem, k: int, cut=None, N: int = 40) -> LocalSolution:
    """Normalized selected vector solution Psi_k as a truncated series.

    Classes noninteger / negative_integer fill ``b`` with the psi_k series
    (leading coefficient f_k e_k).  Class natural fills ``d`` with the
    analytic series fixed by the singular companion's normalization, plus
    ``b`` with the companion's pole part; a ``zero`` flag marks the
    degenerate case Psi_k == 0 (tolerance-based verdict).
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    n = fs.n
    lp = fs.lambda_prime[k]
    klass = fs.integer_class(k)
    w = fs.A_plus_I[k]
    rho = -lp - 1
    fk = leading_factor(lp, klass)
    sol = LocalSolution(k=k, klass=klass, lambda_prime_k=lp, pole=fs.u[k], f_k=fk,
                        N=N, radius=fs.validity_radius(k))

    if klass != "natural":
        C = _local_coeffs(fs, k, N)
        sol.b = np.zeros((N + 1, n), dtype=complex)
        sol.b[0, k] = fk
        _propagate(C, w, k, sol.b, range(1, N + 1), rho)
        sol.residual = _series_residual(w, sol, C)
        return sol

    # class natural: coupled pole/log recursion
    Nk = int(round(lp.real))  # rho = -(Nk + 1)
    if abs(w[k] - (Nk + 1)) > 1e-10:
        raise ResonanceAmbiguity("inconsistent diagonal entry in B_k")
    order_b = N + Nk + 1
    C = _local_coeffs(fs, k, order_b)
    b = np.zeros((order_b + 1, n), dtype=complex)
    b[0, k] = fk
    _propagate(C, w, k, b, range(1, Nk + 1), rho)
    # order Nk+1 fixes d_0 and the pole-part continuation jointly
    R = _convolve(C, b, Nk + 1)
    d = np.zeros((N + 1, n), dtype=complex)
    d[0] = R
    d[0, k] = 0.0
    d[0, k] = -(w @ d[0]) / w[k]
    _propagate(C, w, k, d, range(1, N + 1))
    b[Nk + 1, k] = (R[k] - d[0, k]) / w[k]  # kernel freedom pinned: off-k components zero
    # the log part Psi_k = sum d_l x^l feeds the pole part from order Nk+1 on
    source = np.zeros_like(b)
    source[Nk + 1:] = d
    _propagate(C, w, k, b, range(Nk + 2, order_b + 1), rho, source)
    sol.b = b[: N + 1].copy()
    sol.d = d
    sol.zero, sol.zero_verdict = _zero_verdict(fs, k, d)
    sol.residual = _series_residual(w, sol, C)
    return sol


def _zero_verdict(fs, k, d, tol=1e-12):
    """Tolerance-based verdict that the analytic selected series vanishes."""
    peak = float(np.max(np.abs(d)))
    if peak > tol:
        return False, ""
    g = fs.min_gap(k)
    K = sum(np.linalg.norm(fs.B[m]) for m in range(fs.n) if m != k)
    normB = np.linalg.norm(fs.B[k])
    N = d.shape[0] - 1
    # one-step forward bound on the weighted tail of the recursion
    weighted = sum(float(np.linalg.norm(c)) * g ** l for l, c in enumerate(d))
    nxt = (K / g) * weighted / max(N + 1 - normB, 1.0)
    certified = nxt < tol
    verdict = "numerical" + ("" if certified else " (forward bound inconclusive)")
    return True, verdict


def _series_residual(w, sol, C):
    """Residual of the recursion at the last computed order (sanity metric)."""
    # The recursions are solved exactly per order; report the backward error
    # of the rank-one solve at the last order as a cheap certificate.
    natural = sol.klass == "natural"
    coeffs = sol.d if natural else sol.b
    l = coeffs.shape[0] - 1
    x = coeffs[l]
    lhs = (l + (0.0 if natural else sol.rho)) * x
    lhs[sol.k] += w @ x
    scale = max(np.max(np.abs(coeffs)), 1.0)
    return float(np.max(np.abs(lhs - _convolve(C, coeffs, l))) / scale)


def analytic_basis(fs: FuchsianSystem, k: int, N: int = 40):
    """Basis of solutions analytic at u_k with exponent 0.

    Returns a list of (N+1) x n coefficient arrays.  For
    lambda'_k in Z_- the continuation past the resonant order keeps only
    seeds whose obstruction functional vanishes; the kernel component of
    the resonant solve is pinned to zero.
    """
    w = fs.A_plus_I[k]
    C = _local_coeffs(fs, k, N)
    rho = 0
    if fs.integer_class(k) == "negative_integer":
        rho = int(round((-fs.lambda_prime[k] - 1).real))
    seeds = _kernel_seeds(w, k)
    if rho >= 1:
        # restrict seeds to the null space of the obstruction functional
        obs = np.array([_chain(C, w, k, s, rho)[1] for s in seeds])
        if float(np.max(np.abs(obs))) > 1e-12:
            # orthonormal basis of the null space of the 1 x m functional
            m = len(seeds)
            Q, _ = np.linalg.qr(np.column_stack([obs.conj(), np.eye(m)]))
            seeds = Q[:, 1:m].T @ seeds
    out = []
    for s in seeds:
        phi, obstruction = _exponent0_series(C, w, k, s, N, rho)
        if obstruction <= 1e-9:
            out.append(phi)
    return out


def singular_solution(fs: FuchsianSystem, k: int, cut=None, N: int = 40) -> LocalSolution:
    """Singular companion solution at u_k with uniquely fixed singular part.

    * noninteger: alias of :func:`selected_solution`;
    * natural: pole part psi_k/(x)^(lambda'_k+1) plus log part Psi_k;
    * negative_integer: Psi_k ln(x) + phi with phi a pinned regular
      completion; the ``zero`` flag marks the exceptional case (possible
      for lambda'_k <= -2) where no singular solution exists.
    """
    klass = fs.integer_class(k)
    sel = selected_solution(fs, k, cut, N)
    if klass != "negative_integer":
        sel.is_singular = klass == "natural"
        return sel

    # negative integer: fix the log coefficient at the selected solution
    n = fs.n
    rho = int(round((-sel.lambda_prime_k - 1).real))
    C = _local_coeffs(fs, k, N)
    w = fs.A_plus_I[k]
    # Psi_k = sum_l b_l x^(l+rho), as coefficients of x^l: the source of phi
    shifted = np.zeros((N + 1, n), dtype=complex)
    shifted[rho:] = sel.b[: max(N + 1 - rho, 0)]
    zero = False
    verdict = ""
    if rho == 0:
        if np.linalg.norm(w) < 1e-13:
            zero = True
            verdict = "numerical (B_k = 0: pole absent)"
        else:
            # order 0 demands -B_k phi_0 = -b_0, i.e. e_k (w . phi_0) = -f_k e_k;
            # min-norm solution of w . phi_0 = -f_k
            seed = w.conj() * (-sel.f_k / (w @ w.conj()))
    else:
        # affine propagation phi_l(y) to the resonant order; seed in ker(w .)
        seeds = _kernel_seeds(w, k)
        _, c0 = _chain(C, w, k, np.zeros(n, dtype=complex), rho, shifted)
        L = np.array([_chain(C, w, k, s, rho)[1] for s in seeds])
        if float(np.max(np.abs(L))) < 1e-12 * max(1.0, abs(c0)):
            if abs(c0) > 1e-10:
                zero = True
                verdict = "numerical (log obstruction unreachable: trivial local monodromy)"
            y = np.zeros(len(seeds), dtype=complex)
        else:
            # min-norm solution of L . y = -c0
            y = -c0 * L.conj() / (L @ L.conj())
        seed = y @ seeds

    sol = LocalSolution(
        k=k, klass=klass, lambda_prime_k=sel.lambda_prime_k, pole=sel.pole, f_k=sel.f_k,
        N=N, radius=sel.radius, b=sel.b, is_singular=True, zero=zero, zero_verdict=verdict,
    )
    if not zero:
        sol.phi, obstruction = _exponent0_series(C, w, k, seed, N, rho, shifted)
        if obstruction > 1e-8:
            raise ResonanceAmbiguity(
                f"inconsistent resonant solve at pole {k}, order {rho} (residual {obstruction:.2e})"
            )
        # the regular completion may shift by any solution analytic at u_k:
        # the exponent-0 survivors plus the selected solution itself
        sol.analytic_completion = [shifted] + analytic_basis(fs, k, N)
    return sol


# ---------------------------------------------------------------------------
# Levelt data at the confluence point
# ---------------------------------------------------------------------------


def _jordan_reduce_single(fs: FuchsianSystem, j: int):
    """Reduce B_j to constant Jordan form; returns (G, T, branch).

    branch is ``"diagonal"`` (explicit column formula, lambda'_j != -1),
    ``"jordan"`` (lambda'_j = -1, nilpotent rank 1) or ``"zero"``
    (lambda'_j = -1 with a vanishing row: B_j = 0).
    """
    n = fs.n
    lp = fs.lambda_prime[j]
    A = fs.A
    G = np.eye(n, dtype=complex)
    if abs(lp + 1) > 1e-12:
        for l in range(n):
            if l != j:
                G[j, l] = -A[j, l] / (lp + 1)
        T = np.zeros((n, n), dtype=complex)
        T[j, j] = -1 - lp
        return G, T, "diagonal"
    w = fs.A_plus_I[j]
    if np.linalg.norm(w) < 1e-13:
        return np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex), "zero"
    wmask = w.copy()
    wmask[j] = 0.0
    m = int(np.argmax(np.abs(wmask)))
    eye = np.eye(n, dtype=complex)
    cols = []
    for l in range(n):
        if l == j:
            cols.append(eye[j])
        elif l == m:
            cols.append(-eye[m] / w[m])
        else:
            cols.append(eye[l] - (w[l] / w[m]) * eye[m])
    G = np.column_stack(cols)
    T = np.zeros((n, n), dtype=complex)
    T[j, m] = 1.0
    return G, T, "jordan"


@dataclass
class LeveltData:
    """Levelt normal form data of the merged pole of one coalescence group."""

    group: tuple
    T: np.ndarray
    G: np.ndarray
    G_series: list
    R_parts: dict
    kappa: int
    free_parameters: list
    partial_nonresonance: bool


def levelt_at_confluence(fs_uc: FuchsianSystem, group, N: int = 20,
                         free_values=None) -> LeveltData:
    """Levelt exponents and resonant structure at a merged pole.

    ``fs_uc`` must be the Fuchsian system evaluated at u = u^c, ``group``
    the indices coalescing to one value lambda_alpha.  Runs the recursion
    for the normal-form series G_l; positions with an integer exponent gap
    T_ii - T_jj = l are reported as free parameters (defaulted to 0, or to
    the entries of ``free_values``), and the obstruction matrices R_l are
    computed there.
    """
    group = tuple(group)
    n = fs_uc.n
    lam_alpha = fs_uc.u[group[0]]
    for i in group:
        if abs(fs_uc.u[i] - lam_alpha) > COALESCE_TOL * max(1.0, abs(lam_alpha)):
            raise ValueError("group indices do not coalesce at the given point")
    for i in group:
        for j in group:
            if i != j and abs(fs_uc.A[i, j]) > VANISH_TOL:
                raise ValueError(
                    f"vanishing conditions violated at u^c: |A[{i},{j}]| = {abs(fs_uc.A[i, j]):.2e}"
                )
    # simultaneous reduction of the group residues (diagonalizable branch)
    G = np.eye(n, dtype=complex)
    for j in group:
        if abs(fs_uc.lambda_prime[j] + 1) < 1e-12 and np.linalg.norm(fs_uc.A_plus_I[j]) > 1e-13:
            raise ResonanceAmbiguity(
                f"lambda'_{j} = -1 with nilpotent residue: the diagonal Levelt "
                "reduction does not apply to this group"
            )
        Gj, _, _ = _jordan_reduce_single(fs_uc, j)
        G = G @ Gj
    T = np.zeros(n, dtype=complex)
    for j in group:
        T[j] = -1 - fs_uc.lambda_prime[j]
    # other groups' merged residues, conjugated
    others = {}
    Ginv = np.linalg.inv(G)
    for i in range(n):
        if i in group:
            continue
        key = None
        for v in others:
            if abs(fs_uc.u[i] - v) < COALESCE_TOL * max(1.0, abs(fs_uc.u[i])):
                key = v
                break
        if key is None:
            key = fs_uc.u[i]
            others[key] = np.zeros((n, n), dtype=complex)
        others[key] += Ginv @ fs_uc.B[i] @ G

    def D_m(m):
        out = np.zeros((n, n), dtype=complex)
        for lam_beta, Db in others.items():
            out += ((-1) ** (m + 1)) / (lam_alpha - lam_beta) ** m * Db
        return out

    Dm = [None] + [D_m(m) for m in range(1, N + 1)]
    Gl = [np.eye(n, dtype=complex)]
    Rl = {}
    free = []
    if free_values is None:
        free_values = {}
    for l in range(1, N + 1):
        S = Dm[l].copy()
        for p in range(1, l):
            S += Dm[l - p] @ Gl[p]
            if (l - p) in Rl:
                S -= Gl[p] @ Rl[l - p]
        Gnew = np.zeros((n, n), dtype=complex)
        Rnew = np.zeros((n, n), dtype=complex)
        has_res = False
        for i in range(n):
            for j in range(n):
                gap = T[i] - T[j]
                if abs(gap.imag) < INTEGER_TOL and abs(gap.real - l) < INTEGER_TOL:
                    free.append((l, i, j))
                    Gnew[i, j] = free_values.get((l, i, j), 0.0)
                    Rnew[i, j] = S[i, j]
                    has_res = True
                else:
                    Gnew[i, j] = S[i, j] / (T[j] - T[i] + l)
        Gl.append(Gnew)
        if has_res:
            Rl[l] = Rnew
    gaps = [nearest_integer(T[i] - T[j]) for i in range(n) for j in range(n)]
    kappa = max([g for g in gaps if g is not None and g > 0], default=0)
    return LeveltData(
        group=group,
        T=np.diag(T),
        G=G,
        G_series=Gl,
        R_parts=Rl,
        kappa=kappa,
        free_parameters=free,
        partial_nonresonance=(len(free) == 0),
    )


# ---------------------------------------------------------------------------
# gamma shift
# ---------------------------------------------------------------------------


def gamma_shift(system: SystemPair, gamma: float, tol=INTEGER_TOL) -> SystemPair:
    """Gauge shift A -> A - gamma I moving exponents off the integers.

    Raises :class:`BadGamma` if some shifted diagonal entry or eigenvalue
    of the shifted matrix is still an integer within tolerance.
    """
    A = system.A - gamma * np.eye(system.n)
    shifted = np.diag(A)
    for x in shifted:
        if nearest_integer(x, tol) is not None:
            raise BadGamma(f"shifted diagonal entry {x} is integer within tolerance")
    for ev in np.linalg.eigvals(A):
        if nearest_integer(ev, tol) is not None:
            raise BadGamma(f"shifted eigenvalue {ev} is integer within tolerance")
    return SystemPair(A, system.u)


def pick_gamma(system: SystemPair, candidates=(0.3, 0.23, 0.41, 0.17, 0.37, 0.29)):
    """First gamma from a fixed candidate list that clears the conditions."""
    last = None
    for g in candidates:
        try:
            gamma_shift(system, g)
            return g
        except BadGamma as exc:
            last = exc
    raise BadGamma(f"no candidate gamma worked: {last}")


def needs_gamma_shift(system: SystemPair, tol=INTEGER_TOL) -> bool:
    """True if some diagonal entry or eigenvalue of A is integer."""
    return any(nearest_integer(x, tol) is not None
               for x in np.concatenate([system.lambda_prime, np.linalg.eigvals(system.A)]))
