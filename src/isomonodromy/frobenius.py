"""Fuchsian system B_k = -E_k(A+I) and local Frobenius series at its poles.

At each pole u_k the dual system (Lambda - lam) dPsi/dlam = (A+I) Psi has
exponents 0 (n-1 fold) and -lambda'_k - 1.  The arithmetic class of
lambda'_k = A_kk decides the local structure:

* ``noninteger``       Psi_k = psi_k(lam) (lam-u_k)^(-lambda'_k-1), branch point;
* ``negative_integer`` Psi_k analytic, the singular companion carries a log;
* ``natural``          the singular companion has a pole and a log, and the
                       analytic selected solution may degenerate to zero.

All series are produced by direct recursions in the original coordinates;
nothing here depends on the branch cut (only evaluation does).  With
x = lam - u_k and D = u - u_k the system reads (D - x) Psi' = (A+I) Psi,
so every local series sum_l c_l x^(l+sigma) steps from one order to the
next (:func:`_propagate`), as :func:`.continuation.carry` does:

    D_r (l+sigma) c_l[r] = ((l-1+sigma) + (A+I)) c_{l-1} [r]    (r != k),
    (l+sigma+w_k) c_l[k] = -sum_{j!=k} w_j c_l[j]       (w = row k of A+I),

row k, where D_k = 0, solved rather than divided.  A series Psi = phi +
L ln x adds the source L - D L/x to phi's step.  The divisors l+sigma and
l+sigma+w_k vanish only at the resonant order, which the exponent-0 series
pin through one chain (:func:`_chain`) from the kernel seeds of w.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    COALESCE_TOL,
    SystemPair,
    _group_partition,
    check_vanishing,
    exponent_class,
    nearest_integer,
)


class ResonanceAmbiguity(ArithmeticError):
    """A local exponent recursion hit an unresolved zero divisor."""


class BadGamma(ValueError):
    """The requested gamma does not clear the integer spectrum conditions."""


@dataclass(frozen=True)
class FuchsianSystem:
    """Residues B_k = -E_k(A+I) at pole locations u.

    Each B_k has rank one: its only nonzero row is row k of -(A+I), so
    ``A_plus_I`` holds every residue once, as its row k.
    """

    u: np.ndarray
    lambda_prime: np.ndarray
    A: np.ndarray
    A_plus_I: np.ndarray

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


def build_fuchsian(system: SystemPair) -> FuchsianSystem:
    """The Fuchsian system of ``system``, its residues held as the rows of A+I."""
    A = system.A
    return FuchsianSystem(
        u=system.u.copy(), lambda_prime=system.lambda_prime.copy(), A=A.copy(),
        A_plus_I=A + np.eye(system.n),
    )


# ---------------------------------------------------------------------------
# series recursions at a single pole
# ---------------------------------------------------------------------------

# a recursion divisor below this is an unresolved resonance
_ZERO_DIVISOR = 1e-300


def _gaps(fs: FuchsianSystem, k: int):
    """1/D_r = 1/(u_r - u_k), r != k, and 0 for r = k; a gap below COALESCE_TOL
    raises :class:`ResonanceAmbiguity`: the local series needs distinct poles."""
    D = fs.u - fs.u[k]
    D[k] = math.inf
    m = int(np.argmin(np.abs(D)))
    if abs(D[m]) < COALESCE_TOL:
        raise ResonanceAmbiguity(f"poles u_{k} and u_{m} coincide: the local series at u_{k} "
                                 "needs distinct poles")
    return 1.0 / D


def _rows(fs, k, inv, prev, l, shift, source=None):
    """``(c_l, rhs_k)``: rows r != k of order l from order l-1, and row k's right side.

    D_r s c_l = (s - 1 + (A+I)) c_{l-1} + source_{l-1} - D source_l, s = l + shift,
    ``source[l]`` the coefficient of x^(l+shift) in L; c_l[k] = 0 and row k reads
    (s + w_k) c_l[k] = rhs_k.  A vanishing s raises :class:`ResonanceAmbiguity`.
    """
    s = l + shift
    if abs(s) < _ZERO_DIVISOR:
        raise ResonanceAmbiguity(f"vanishing recursion divisor at pole {k} (s = {s})")
    r = fs.A_plus_I @ prev + (s - 1) * prev
    if source is None:
        c = r * inv / s  # row k is 0: inv[k] = 0
        return c, -(fs.A_plus_I[k] @ c)
    c = ((r + source[l - 1]) * inv - source[l]) / s
    c[k] = 0.0
    return c, -(fs.A_plus_I[k] @ c) - source[l, k]


def _propagate(fs, k, inv, x, orders, shift=0, source=None):
    """Fill x[l], l in ``orders``, from x[l-1]: :func:`_rows`, then row k solved;
    its divisor s + w_k vanishes only at the resonant order, where it raises."""
    lead = shift + fs.A_plus_I[k, k]
    for l in orders:
        x[l], rhs_k = _rows(fs, k, inv, x[l - 1], l, shift, source)
        if abs(l + lead) < _ZERO_DIVISOR:
            raise ResonanceAmbiguity(f"vanishing recursion divisor at pole {k} (s + w_k = 0)")
        x[l, k] = rhs_k / (l + lead)
    return x


def _kernel_seeds(w, k):
    """Rows e_i - e_m w_i/w_m, i != m: leads of the exponent-0 solutions, spanning ker(w .).

    The pivot m is the largest |w_m|, as in :func:`jordan_reduce_Bj`, so no
    entry exceeds 1; for w = 0 (norm below 1e-13) the rows are e_i, i != k.
    """
    if np.linalg.norm(w) < 1e-13:
        return np.eye(w.size, dtype=complex)[[i for i in range(w.size) if i != k]]
    m = int(np.argmax(np.abs(w)))
    idx = [i for i in range(w.size) if i != m]
    seeds = np.eye(w.size, dtype=complex)[idx]
    seeds[:, m] = -w[idx] / w[m]
    return seeds


def _chain(fs, k, inv, seed, rho, source=None):
    """Exponent-0 recursion from ``seed`` up to the resonant order rho.

    Returns ``(phi, obstruction)``: orders 0..rho, phi_rho[k] pinned to zero,
    and -rho rhs_k of order rho (row k's divisor rho + w_k vanishes there),
    which must vanish for order rho to be solvable.
    """
    phi = np.zeros((rho + 1, fs.n), dtype=complex)
    phi[0] = seed
    _propagate(fs, k, inv, phi, range(1, rho), 0, source)
    phi[rho], rhs_k = _rows(fs, k, inv, phi[rho - 1], rho, 0, source)
    return phi, -rho * rhs_k


def _exponent0_series(fs, k, inv, seed, N, rho, source=None):
    """Exponent-0 series of orders 0..N from ``seed``, pinned at the resonant order.

    Returns ``(phi, obstruction)``, the obstruction of :func:`_chain` relative to
    the coefficients up to order rho and that order's right side, rho phi_rho
    and source_rho[k] (0 without a resonant order 1 <= rho <= N).
    """
    phi = np.zeros((N + 1, fs.n), dtype=complex)
    phi[0] = seed
    if not 1 <= rho <= N:
        return _propagate(fs, k, inv, phi, range(1, N + 1), 0, source), 0.0
    phi[:rho + 1], obstruction = _chain(fs, k, inv, seed, rho, source)
    scale = max(1.0, float(np.max(np.abs(phi[:rho]))), rho * float(np.max(np.abs(phi[rho]))),
                0.0 if source is None else abs(source[rho, k]))
    return _propagate(fs, k, inv, phi, range(rho + 1, N + 1), 0, source), abs(obstruction) / scale


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
    zero: bool = False
    zero_verdict: str = ""
    analytic_completion: list = field(default_factory=list)

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


def selected_solution(fs: FuchsianSystem, k: int, N: int = 40) -> LocalSolution:
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

    inv = _gaps(fs, k)
    if klass != "natural":
        sol.b = np.zeros((N + 1, n), dtype=complex)
        sol.b[0, k] = fk
        _propagate(fs, k, inv, sol.b, range(1, N + 1), rho)
        return sol

    # class natural: coupled pole/log recursion
    Nk = nearest_integer(lp)  # rho = -(Nk + 1)
    order_b = N + Nk + 1
    b = np.zeros((order_b + 1, n), dtype=complex)
    b[0, k] = fk
    _propagate(fs, k, inv, b, range(1, Nk + 1), rho)
    # order Nk+1 (s = 0) fixes d_0 and the pole-part continuation jointly:
    # its rows r != k give d_0[r], w . d_0 = 0 gives d_0[k]
    d = np.zeros((N + 1, n), dtype=complex)
    d[0] = (fs.A_plus_I @ b[Nk] - b[Nk]) * inv
    d[0, k] = -(w @ d[0]) / w[k]
    _propagate(fs, k, inv, d, range(1, N + 1))
    b[Nk + 1, k] = -d[0, k] / w[k]  # kernel freedom pinned: off-k components zero
    # the log part Psi_k = sum d_l x^l feeds the pole part from order Nk+1 on
    source = np.vstack([np.zeros((Nk + 1, n)), d])
    _propagate(fs, k, inv, b, range(Nk + 2, order_b + 1), rho, source)
    sol.b = b[: N + 1].copy()
    sol.d = d
    sol.zero, sol.zero_verdict = _zero_verdict(fs, k, d)
    return sol


def _zero_verdict(fs, k, d):
    """Verdict that the analytic selected series vanishes: its peak is below 1e-12."""
    if float(np.max(np.abs(d))) > 1e-12:
        return False, ""
    g = fs.min_gap(k)
    # ||B_m|| is the norm of its one nonzero row, row m of A+I
    norms = np.linalg.norm(fs.A_plus_I, axis=1)
    K = sum(norms[m] for m in range(fs.n) if m != k)
    normB = norms[k]
    N = d.shape[0] - 1
    # one-step forward bound on the weighted tail of the recursion
    weighted = sum(float(np.linalg.norm(c)) * g ** l for l, c in enumerate(d))
    nxt = (K / g) * weighted / max(N + 1 - normB, 1.0)
    return True, "numerical" + ("" if nxt < 1e-12 else " (forward bound inconclusive)")


def analytic_basis(fs: FuchsianSystem, k: int, N: int = 40):
    """Basis of solutions analytic at u_k with exponent 0.

    Returns a list of (N+1) x n coefficient arrays.  For
    lambda'_k in Z_- the continuation past the resonant order keeps only
    seeds whose obstruction functional vanishes; the kernel component of
    the resonant solve is pinned to zero.
    """
    w = fs.A_plus_I[k]
    inv = _gaps(fs, k)
    rho = 0
    if fs.integer_class(k) == "negative_integer":
        rho = -1 - nearest_integer(fs.lambda_prime[k])
    seeds = _kernel_seeds(w, k)
    if rho >= 1:
        # restrict seeds to the null space of the obstruction functional
        obs = np.array([_chain(fs, k, inv, s, rho)[1] for s in seeds])
        if float(np.max(np.abs(obs))) > 1e-12:
            # orthonormal basis of the null space of the 1 x m functional
            m = len(seeds)
            Q, _ = np.linalg.qr(np.column_stack([obs.conj(), np.eye(m)]))
            seeds = Q[:, 1:m].T @ seeds
    out = []
    for s in seeds:
        phi, obstruction = _exponent0_series(fs, k, inv, s, N, rho)
        if obstruction <= 1e-9:
            out.append(phi)
    return out


def singular_solution(fs: FuchsianSystem, k: int, N: int = 40) -> LocalSolution:
    """Singular companion solution at u_k with uniquely fixed singular part.

    * noninteger: alias of :func:`selected_solution`;
    * natural: pole part psi_k/(x)^(lambda'_k+1) plus log part Psi_k;
    * negative_integer: Psi_k ln(x) + phi with phi a pinned regular
      completion; the ``zero`` flag marks the exceptional case (possible
      for lambda'_k <= -2) where no singular solution exists.
    """
    klass = fs.integer_class(k)
    sel = selected_solution(fs, k, N)
    if klass != "negative_integer":
        return sel

    # negative integer: fix the log coefficient at the selected solution
    n = fs.n
    rho = -1 - nearest_integer(sel.lambda_prime_k)
    inv = _gaps(fs, k)
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
        _, c0 = _chain(fs, k, inv, np.zeros(n, dtype=complex), rho, shifted)
        L = np.array([_chain(fs, k, inv, s, rho)[1] for s in seeds])
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
        N=N, radius=sel.radius, b=sel.b, zero=zero, zero_verdict=verdict,
    )
    if not zero:
        sol.phi, obstruction = _exponent0_series(fs, k, inv, seed, N, rho, shifted)
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


class NotReducible(np.linalg.LinAlgError):
    """Requested explicit reduction branch does not apply."""


def jordan_reduce_Bj(fs: FuchsianSystem, j, strict=False):
    """Holomorphic reduction of the rank-one residue B_j = -e_j w^T, w = row j of A+I.

    Returns ``(G, T, branch)`` with G^-1 B_j G = T and G e_j = e_j:

    * ``"diagonal"`` for lambda'_j not the integer -1 (:func:`nearest_integer`):
      row j of G is -w / w_j off the diagonal, T = -w_j E_jj;
    * ``"jordan"`` for lambda'_j = -1: the rank-1 nilpotent branch T = E_jm,
      m the largest |w_m|, m != j (plus -w_j E_jj, below INTEGER_TOL);
    * ``"zero"`` for lambda'_j = -1 with w = 0 (norm below 1e-13): B_j = 0,
      G = I, nothing to reduce (:class:`NotReducible` when ``strict``).

    Raises :class:`NotReducible` when the residual |w G + T_j| exceeds
    1e-10 max(1, max|w|).
    """
    n = fs.n
    w = fs.A_plus_I[j]
    G = np.eye(n, dtype=complex)
    T = np.zeros((n, n), dtype=complex)
    T[j, j] = -w[j]
    if nearest_integer(fs.lambda_prime[j]) != -1:
        branch = "diagonal"
        G[j] = -w / w[j]
        G[j, j] = 1.0
    elif np.linalg.norm(w) < 1e-13:
        if strict:
            raise NotReducible(f"B_{j} vanishes identically: nothing to reduce")
        branch = "zero"
    else:
        branch = "jordan"
        m = int(np.argmax(np.where(np.arange(n) == j, 0, np.abs(w))))
        G[m] = -w / w[m]
        G[m, j] = 0.0
        G[m, m] = -1.0 / w[m]
        T[j, m] = 1.0
    # G e_j = e_j, so G^-1 B_j G = -e_j (w G): only row j can differ from T
    resid = float(np.max(np.abs(w @ G + T[j])))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
        raise NotReducible(f"reduction residual {resid:.2e} for B_{j}")
    return G, T, branch


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


def levelt_exponents(fs_uc: FuchsianSystem, group):
    """``(T, K)``: Levelt exponents at the merged pole of ``group``, T_j = -(A+I)_jj on
    the group (:func:`jordan_reduce_Bj`) and 0 off it, and K_ij = T_i - T_j where that
    is an integer, else 0; (l, i, j) with K_ij = l >= 1 is a resonant position."""
    idx = list(group)
    T = np.zeros(fs_uc.n, dtype=complex)
    T[idx] = -np.diag(fs_uc.A_plus_I)[idx]
    return T, np.array([[nearest_integer(a - b) or 0 for b in T] for a in T])


def levelt_at_confluence(fs_uc: FuchsianSystem, group, N: int = 20,
                         free_values=None) -> LeveltData:
    """Levelt exponents and resonant structure at a merged pole.

    ``fs_uc`` must be the Fuchsian system evaluated at u = u^c, ``group``
    one of its coalescence groups (:func:`.model._group_partition`),
    merging at lambda_alpha, that passes :func:`.model.check_vanishing`.
    Each group residue is reduced by :func:`jordan_reduce_Bj`; a nilpotent
    one (lambda'_j = -1) raises :class:`ResonanceAmbiguity`.  Runs the
    recursion for the normal-form series G_l; the resonant positions of
    :func:`levelt_exponents` are reported as free parameters (defaulted to
    0, or to the entries of ``free_values``), and the obstruction matrices
    R_l are computed there.
    """
    group = tuple(group)
    n = fs_uc.n
    groups, values = _group_partition(fs_uc.u)
    if group not in groups:
        raise ValueError(f"{group} is not a coalescence group of u^c: {groups}")
    lam_alpha = fs_uc.u[group[0]]
    check_vanishing(fs_uc.A, fs_uc.u)
    # simultaneous reduction of the group residues (diagonalizable branch)
    G = np.eye(n, dtype=complex)
    for j in group:
        Gj, _, branch = jordan_reduce_Bj(fs_uc, j)
        if branch == "jordan":
            raise ResonanceAmbiguity(
                f"lambda'_{j} = -1 with nilpotent residue: the diagonal Levelt "
                "reduction does not apply to this group"
            )
        G = G @ Gj
    # the other groups' merged residues G^-1 B_i G, B_i = -e_i w_i^T, w_i = row i of A+I
    Ginv = np.linalg.inv(G)
    others = [(v, -sum(np.outer(Ginv[:, i], fs_uc.A_plus_I[i] @ G) for i in g))
              for g, v in zip(groups, values) if g != group]
    Dm = [None] + [sum((((-1) ** (m + 1)) / (lam_alpha - lam_beta) ** m * Db
                        for lam_beta, Db in others), np.zeros((n, n), dtype=complex))
                   for m in range(1, N + 1)]
    T, K = levelt_exponents(fs_uc, group)
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
        resonant = K == l
        Gnew = np.divide(S, T[None, :] - T[:, None] + l, out=np.zeros_like(S), where=~resonant)
        for i, j in np.argwhere(resonant):
            free.append((l, int(i), int(j)))
            Gnew[i, j] = free_values.get(free[-1], 0.0)
        Gl.append(Gnew)
        if resonant.any():
            Rl[l] = np.where(resonant, S, 0)
    return LeveltData(
        group=group,
        T=np.diag(T),
        G=G,
        G_series=Gl,
        R_parts=Rl,
        kappa=int(K.max()),
        free_parameters=free,
        partial_nonresonance=(len(free) == 0),
    )


# ---------------------------------------------------------------------------
# gamma shift
# ---------------------------------------------------------------------------


def _spectrum(system: SystemPair):
    """The diagonal and the eigenvalues of A: A -> A - gamma I shifts both by gamma."""
    return np.concatenate([system.lambda_prime, np.linalg.eigvals(system.A)])


def _first_integer(values):
    """The first of ``values`` that is an integer within tolerance, or None."""
    return next((x for x in values if nearest_integer(x) is not None), None)


def gamma_shift(system: SystemPair, gamma: float) -> SystemPair:
    """Gauge shift A -> A - gamma I moving exponents off the integers.

    Raises :class:`BadGamma` if some shifted diagonal entry or eigenvalue
    of the shifted matrix is still an integer within tolerance.
    """
    bad = _first_integer(_spectrum(system) - gamma)
    if bad is not None:
        raise BadGamma(f"shifted diagonal entry or eigenvalue {bad} is integer within tolerance")
    return SystemPair(system.A - gamma * np.eye(system.n), system.u)


# gamma candidates of :func:`pick_gamma`, tried in this order
_GAMMA_CANDIDATES = (0.3, 0.23, 0.41, 0.17, 0.37, 0.29)


def pick_gamma(system: SystemPair):
    """First gamma from a fixed candidate list that clears the conditions."""
    values = _spectrum(system)
    for g in _GAMMA_CANDIDATES:
        if _first_integer(values - g) is None:
            return g
    raise BadGamma(f"no candidate gamma {_GAMMA_CANDIDATES} clears the integer conditions")


def needs_gamma_shift(system: SystemPair) -> bool:
    """True if some diagonal entry or eigenvalue of A is integer."""
    return _first_integer(_spectrum(system)) is not None
