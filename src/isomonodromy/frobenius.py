"""Local Frobenius series at the poles of the Fuchsian system B_k = -E_k(A+I).

Every function takes the :class:`.model.SystemPair`, whose ``A_plus_I`` holds the residues.

At each pole u_k the dual system (Lambda - lam) dPsi/dlam = (A+I) Psi has
exponents 0 (n-1 fold) and -lambda'_k - 1.  The arithmetic class of
lambda'_k = A_kk decides the local structure:

* ``noninteger``       Psi_k = psi_k(lam) (lam-u_k)^(-lambda'_k-1), branch point;
* ``negative_integer`` Psi_k analytic, the singular companion carries a log;
* ``natural``          the singular companion has a pole and a log, and the
                       analytic selected solution may degenerate to zero.

All series are produced by direct recursions in the original coordinates;
none depends on the branch cut, which :func:`selected_values` reads.  With
x = lam - u_k and D = u - u_k the system reads (D - x) Psi' = (A+I) Psi,
so every local series sum_l c_l x^(l+sigma) steps from one order to the
next (:func:`_propagate`), as :func:`.continuation.carry` does:

    D_r (l+sigma) c_l[r] = ((l-1+sigma) + (A+I)) c_{l-1} [r]    (r != k),
    (l+sigma+w_k) c_l[k] = -sum_{j!=k} w_j c_l[j]       (w = row k of A+I),

row k, where D_k = 0, solved rather than divided.  A series Psi = phi +
L ln x adds the source L - D L/x to phi's step.  The divisors l+sigma and
l+sigma+w_k vanish only at the resonant order.  Whether a negative-integer
pole has a singular solution Psi_k ln x + phi is decided there, by one chain
(:func:`_chain`) from the kernel seeds of w (:func:`_has_singular_solution`);
the connection coefficients read only that verdict.

That step has one implementation, over a column axis: the state of a
recursion is x of shape (orders, n, K), column i a series at its own pole
k_i, with its own shift sigma_i, gaps 1/D and source (:class:`_Columns`).
An order is one (n, n) @ (n, K) product for every column, the sigma term
and the gap scaling, then every column's row k_i solved at once by one
gather and one scatter on the entries x[l, k_i, i].  The divisors and the
float range are checked once per recursion, on their (orders, K) tables.
:func:`selected_solutions` runs the non-natural poles of a system as the
columns of one recursion, and :func:`_has_singular_solution` its chains;
a natural pole's three coupled phases and :func:`selected_solution` run
the same step with K = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    COALESCE_TOL,
    INTEGER_TOL,
    MAX_FACTORIAL,
    BadGamma,  # re-exported, as is ResonanceAmbiguity: both are still read from here
    IllConditioned,
    ResonanceAmbiguity,
    SystemPair,
    _group_partition,
    check_vanishing,
    integer_distance,
    nearest_integer,
)
from .ode import MAX_ORDER


def build_fuchsian(system: SystemPair) -> SystemPair:
    """``system`` itself: a :class:`.model.SystemPair` holds its residues in ``A_plus_I``."""
    return system


# ---------------------------------------------------------------------------
# series recursions, one column per series
# ---------------------------------------------------------------------------

# a recursion divisor below this is an unresolved resonance
_ZERO_DIVISOR = 1e-300


class _Columns(NamedTuple):
    """The columns of one stacked recursion: column i is a series at the pole k[i].

    ``w[:, i]`` is row k[i] of A+I, ``inv[:, i]`` holds 1/D_r = 1/(u_r - u_k[i])
    with 0 at r = k[i], and ``at`` indexes the entries (k[i], i) of an (n, K)
    order.
    """

    k: np.ndarray
    w: np.ndarray
    inv: np.ndarray
    at: tuple


@np.errstate(over="ignore")  # a gap past the float range fails the recursion's check
def _columns(fs: SystemPair, poles) -> _Columns:
    """The columns of a recursion at ``poles``; a gap below COALESCE_TOL raises
    :class:`ResonanceAmbiguity` naming the first such pole: the local series
    needs distinct poles."""
    k = np.asarray(poles, dtype=int)
    at = (k, np.arange(k.size))
    D = fs.u[:, None] - fs.u[k]
    D[at] = math.inf
    m = np.argmin(np.abs(D), axis=0)
    near = np.abs(D[m, at[1]]) < COALESCE_TOL
    if near.any():
        i = int(np.argmax(near))
        raise ResonanceAmbiguity(f"poles u_{k[i]} and u_{m[i]} coincide: the local series at "
                                 f"u_{k[i]} needs distinct poles")
    return _Columns(k, fs.A_plus_I[k].T, 1.0 / D, at)


def _rows(fs, col, prev, l, s, out, source=None):
    """Rows r != k_i of order l of every column i into ``out`` from order l-1, ``prev``;
    returns the right sides of rows k_i.

    D_r s c_l = (s - 1 + (A+I)) c_{l-1} + source_{l-1} - D source_l, with s the
    (K,) divisors l + shift_i and ``source[l]`` the coefficients of
    x^(l+shift) in L; c_l[k_i] = 0 and row k_i reads (s + w_{k_i}) c_l[k_i] =
    rhs_i.  The divisors are checked by the caller.
    """
    r = fs.A @ prev + s * prev  # (s - 1 + (A+I)) prev
    if source is None:
        np.divide(r * col.inv, s, out=out)  # rows k_i are 0: inv[k_i, i] = 0
        return -np.add.reduce(col.w * out)
    np.divide((r + source[l - 1]) * col.inv - source[l], s, out=out)
    out[col.at] = 0.0
    return -np.add.reduce(col.w * out) - source[l][col.at]


def _propagate(fs, col, x, orders, shift=0, source=None):
    """Fill x[l], l in ``orders``, from x[l-1] for every column at once: :func:`_rows`,
    then the rows k_i solved, one gather and one scatter on the entries x[l, k_i, i].

    x has shape (orders, n, K); column i is the series at pole k[i] of ``col``
    (:func:`_columns`) with shift[i] (a scalar shift is shared) and its slice
    of ``source``.  Before the first order, the tables of the divisors s and
    s + w_{k_i}, (orders, K), are checked once: one below _ZERO_DIVISOR
    raises :class:`ResonanceAmbiguity` naming the pole and the order.  The
    orders run with numpy's overflow and invalid-value warnings off and are
    checked once after: a series that leaves the float range raises
    :class:`IllConditioned` naming the pole and its first such order.
    """
    s = np.asarray(orders)[:, None] + shift
    lead = s + fs.A_plus_I[col.k, col.k]
    hit = (np.abs(s) < _ZERO_DIVISOR) | (np.abs(lead) < _ZERO_DIVISOR)
    if hit.any():
        i = int(np.argmax(hit.any(0)))
        o = int(np.argmax(hit[:, i]))
        name = "s" if abs(s[o, i]) < _ZERO_DIVISOR else "s + w_k"
        raise ResonanceAmbiguity(f"vanishing recursion divisor at pole {col.k[i]}, order "
                                 f"{orders[o]} ({name} = 0)")
    with np.errstate(over="ignore", invalid="ignore"):
        for l, s_l, lead_l in zip(orders, s, lead):
            c = x[l]
            c[col.at] = _rows(fs, col, x[l - 1], l, s_l, c, source) / lead_l
    bad = ~np.isfinite(x).all(1)
    if bad.any():
        i = int(np.argmax(bad.any(0)))
        raise IllConditioned(f"the local series at pole {col.k[i]} leaves the float range "
                             f"at order {int(np.argmax(bad[:, i]))}")
    return x


def _kernel_seeds(w):
    """Rows e_i - e_m w_i/w_m, i != m: leads of the exponent-0 solutions, spanning ker(w .).

    The pivot m is the largest |w_m|, so no entry exceeds 1.  w is row k of A+I at a
    negative-integer pole with rho >= 1, where w_k = lambda'_k + 1 lies near -rho: w is
    not 0.
    """
    m = int(np.argmax(np.abs(w)))
    idx = [i for i in range(w.size) if i != m]
    seeds = np.eye(w.size, dtype=complex)[idx]
    seeds[:, m] = -w[idx] / w[m]
    return seeds


def _chain(fs, col, seeds, rho, source=None):
    """The obstruction of the exponent-0 recursion from the columns of ``seeds`` (n, K) at
    the resonant order rho: -rho rhs_i of order rho (row k_i's divisor rho + w_{k_i}
    vanishes there), which must vanish for order rho to be solvable."""
    phi = np.zeros((rho + 1,) + seeds.shape, dtype=complex)
    phi[0] = seeds
    _propagate(fs, col, phi, range(1, rho), 0, source)
    return -rho * _rows(fs, col, phi[rho - 1], rho, rho, phi[rho], source)


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
    """Normalizing constant f_k of the leading series coefficient (IllConditioned out of range)."""
    if klass == "noninteger":
        try:
            return cgamma(lambda_prime_k + 1)
        except OverflowError:
            pass
    else:
        r = round(lambda_prime_k.real)
        m = r if klass == "natural" else -r - 1
        if m <= MAX_FACTORIAL:
            # natural: pole part of the singular companion leads with lambda'_k!
            f = math.factorial(m)
            return float(f) if klass == "natural" else complex((-1) ** r) / f
    raise IllConditioned(f"leading factor f_k leaves the float range at "
                         f"lambda'_k = {lambda_prime_k}")


@dataclass
class LocalSolution:
    """Truncated Frobenius data of the selected solution at u_k.

    ``b`` is the (N+1) x n array of coefficients of the psi_k factor
    (classes noninteger / negative_integer: selected solution is
    psi_k(x) x^(-lambda'_k-1); class natural: pole part of the singular
    companion).  ``d`` is the analytic selected series for class natural,
    and ``zero`` marks it as zero: max|d| at most 1e-12.  Its values come
    from :func:`selected_values` alone (:meth:`selected_value` at one point).
    """

    k: int
    klass: str
    lambda_prime_k: complex
    pole: complex
    f_k: complex
    radius: float
    b: np.ndarray = None
    d: np.ndarray = None
    zero: bool = False

    @property
    def rho(self):
        """Exponent of the branched factor, -lambda'_k - 1."""
        return -self.lambda_prime_k - 1

    def check_radius(self, r):
        """IllConditioned where x^N, the series' last power at |x| = r, leaves the float range."""
        N = len(self.b) - 1
        if r > 1 and N * math.log(r) > math.log(np.finfo(float).max):
            raise IllConditioned(f"the local series at pole {self.k} is summed at |x| = "
                                 f"{r:.2e}, where x^{N} leaves the float range")

    def selected_value(self, lam, cut):
        """Psi_k at ``lam`` on the branch of ``cut``: :func:`selected_values` at one point."""
        return selected_values([self], [abs(lam - self.pole)], [cut.arg_from(lam, self.pole)])[0]


def selected_values(sols, r, arg):
    """Psi_k of each series in ``sols`` at pole + r e^{i arg}, on the branch of that arg: (P, n).

    The one rule that sums a local series at a point, for both Stokes routes.
    Each column passes :meth:`LocalSolution.check_radius` first; then the
    powers x^l of x = r e^{i arg}, cumulative products, meet ``d`` at a natural
    pole and ``b`` at any other in one stacked product, times the branch factor:
    0 for a zero natural solution, 1 for a natural one, x^rho at a negative-integer
    pole and e^{rho (ln r + i arg)} at a noninteger one.  A factor or a value past
    the float range raises :class:`IllConditioned`.
    """
    r = np.asarray(r, dtype=float)
    for sol, r_p in zip(sols, r.tolist()):
        sol.check_radius(r_p)
    x = r * np.array([cmath.exp(1j * a) for a in arg])
    coeffs = np.array([sol.d if sol.klass == "natural" else sol.b for sol in sols])
    powers = np.ones(coeffs.shape[:2], dtype=complex)
    powers[:, 1:] = x[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        try:
            factor = np.array([float(not sol.zero) if sol.klass == "natural"
                               else x_p ** int(round(sol.rho.real))
                               if sol.klass == "negative_integer"
                               else cmath.exp(sol.rho * (math.log(r_p) + 1j * a))
                               for sol, x_p, r_p, a in zip(sols, x, r.tolist(), arg)])
        except OverflowError:
            raise IllConditioned("a branch factor e^(rho (ln r + i arg)) leaves the float "
                                 "range") from None
        psi = (np.cumprod(powers, axis=-1)[:, None] @ coeffs)[:, 0] * factor[:, None]
    if not np.isfinite(psi).all():
        p = int(np.argmin(np.isfinite(psi).all(1)))
        raise IllConditioned(f"Psi_{sols[p].k} leaves the float range at |x| = {r[p]:.2e}")
    return psi


def selected_solutions(fs: SystemPair, N: int = 40) -> list:
    """Normalized selected vector solutions Psi_k, k = 0..n-1, as truncated series.

    Classes noninteger / negative_integer fill ``b`` with the psi_k series
    (leading coefficient f_k e_k), all of them in one stacked recursion.
    Class natural fills ``d`` with the analytic series fixed by the singular
    companion's normalization, plus ``b`` with the companion's pole part; a
    ``zero`` flag marks the degenerate case Psi_k == 0 (max|d| at most 1e-12).
    """
    return _selected(fs, np.arange(fs.n), N)


def selected_solution(fs: SystemPair, k: int, N: int = 40) -> LocalSolution:
    """Selected solution Psi_k at the one pole u_k, as :func:`selected_solutions` builds it."""
    return _selected(fs, np.array([k]), N)[0]


def _selected(fs, poles, N):
    """The selected solutions at ``poles``, in that order: the non-natural ones as the
    columns of one recursion, each natural one by :func:`_natural_series`."""
    if not 1 <= N <= MAX_ORDER:
        raise ValueError(f"N >= 1 required, and N <= MAX_ORDER = {MAX_ORDER}; got N = {N}")
    sols = []
    for k in poles:
        lp, klass = fs.lambda_prime[k], fs.integer_class(k)
        sols.append(LocalSolution(k=int(k), klass=klass, lambda_prime_k=lp, pole=fs.u[k],
                                  f_k=leading_factor(lp, klass), radius=fs.validity_radius(k)))
    plain = [sol for sol in sols if sol.klass != "natural"]
    if plain:
        col = _columns(fs, [sol.k for sol in plain])
        b = np.zeros((N + 1, fs.n, len(plain)), dtype=complex)
        b[0][col.at] = [sol.f_k for sol in plain]
        _propagate(fs, col, b, range(1, N + 1), -fs.lambda_prime[col.k] - 1)
        for sol, bi in zip(plain, np.moveaxis(b, -1, 0).copy()):
            sol.b = bi
    for sol in sols:
        if sol.klass == "natural":
            _natural_series(fs, sol, N)
    return sols


def _natural_series(fs, sol, N):
    """Class natural at pole k: the coupled pole/log recursion of ``sol``, one column."""
    n, k = fs.n, sol.k
    col = _columns(fs, [k])
    w = fs.A_plus_I[k]
    Nk = nearest_integer(sol.lambda_prime_k)  # rho = -(Nk + 1)
    order_b = N + Nk + 1
    b = np.zeros((order_b + 1, n, 1), dtype=complex)
    b[0, k] = sol.f_k
    _propagate(fs, col, b, range(1, Nk + 1), sol.rho)
    # order Nk+1 (s = 0) fixes d_0 and the pole-part continuation jointly:
    # its rows r != k give d_0[r], w . d_0 = 0 gives d_0[k]
    d = np.zeros((N + 1, n, 1), dtype=complex)
    d[0] = (fs.A_plus_I @ b[Nk] - b[Nk]) * col.inv
    d[0, k] = -(w @ d[0]) / w[k]
    _propagate(fs, col, d, range(1, N + 1))
    b[Nk + 1, k] = -d[0, k] / w[k]  # kernel freedom pinned: off-k components zero
    # the log part Psi_k = sum d_l x^l feeds the pole part from order Nk+1 on
    source = np.concatenate([np.zeros((Nk + 1, n, 1)), d])
    _propagate(fs, col, b, range(Nk + 2, order_b + 1), sol.rho, source)
    sol.b = b[: N + 1, :, 0].copy()
    sol.d = d[:, :, 0].copy()
    sol.zero = bool(np.max(np.abs(sol.d)) <= 1e-12)


def _has_singular_solution(fs, sol):
    """Whether Psi_k ln(x) + phi, phi regular, solves the system at the negative-integer
    pole of ``sol``, rho = -lambda'_k - 1.

    At rho = 0 it does unless B_k = 0 (row k of A+I of norm below 1e-13).  Past that,
    phi's recursion must solve row k at order rho, where the log source enters as b_0 =
    f_k e_k: the obstruction c0 that the source leaves there must be cancelled by the
    functional L of the kernel seeds (one stacked :func:`_chain`).  None exists where L
    vanishes, below 1e-12 max(1, |c0|), and |c0| exceeds 1e-10: trivial local monodromy.
    """
    n, k = fs.n, sol.k
    rho = -1 - nearest_integer(sol.lambda_prime_k)
    w = fs.A_plus_I[k]
    if rho == 0:
        return bool(np.linalg.norm(w) >= 1e-13)
    # column 0 from 0 with the log source gives c0, the others from the kernel seeds L
    seeds = _kernel_seeds(w)
    source = np.zeros((rho + 1, n, len(seeds) + 1), dtype=complex)
    source[rho, :, 0] = sol.b[0]
    starts = np.column_stack([np.zeros(n), seeds.T])
    obs = _chain(fs, _columns(fs, [k] * (len(seeds) + 1)), starts, rho, source)
    c0, L = obs[0], obs[1:]
    return not (float(np.max(np.abs(L))) < 1e-12 * max(1.0, abs(c0)) and abs(c0) > 1e-10)


# ---------------------------------------------------------------------------
# Levelt data at the confluence point
# ---------------------------------------------------------------------------


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


def levelt_exponents(fs_uc: SystemPair, group):
    """``(T, K)``: Levelt exponents at the merged pole of ``group``, T_j = -(A+I)_jj on
    the group (the entry of G^-1 B_j G in :func:`levelt_at_confluence`) and 0 off it,
    and K_ij = T_i - T_j where that is an integer, else 0; (l, i, j) with K_ij = l >= 1
    is a resonant position."""
    idx = list(group)
    T = np.zeros(fs_uc.n, dtype=complex)
    T[idx] = -np.diag(fs_uc.A_plus_I)[idx]
    return T, np.array([[nearest_integer(a - b) or 0 for b in T] for a in T])


@np.errstate(over="ignore", invalid="ignore")  # a result past the float range is refused
def levelt_at_confluence(fs_uc: SystemPair, group, N: int = 20,
                         free_values=None) -> LeveltData:
    """Levelt exponents and resonant structure at a merged pole.

    ``fs_uc`` must be the pair at u = u^c, ``group``
    one of its coalescence groups (:func:`.model._group_partition`),
    merging at lambda_alpha, that passes :func:`.model.check_vanishing`.
    The group residues B_j = -e_j w_j^T, w_j row j of A+I, are reduced at
    once in closed form: with w~_j the row w_j whose in-group entries and
    diagonal count as 0, G = I - sum_j e_j w~_j / w_jj gives G^-1 B_j G =
    -w_jj E_jj, and G - I has no column in the group, so (G - I)^2 = 0 and
    G^-1 = 2I - G.  A member with lambda'_j = -1 keeps row
    e_j when w_j is 0 (B_j = 0, norm below 1e-13) and raises
    :class:`ResonanceAmbiguity` (nilpotent residue) otherwise.  Runs the
    recursion for the normal-form series G_l; the resonant positions of
    :func:`levelt_exponents` are reported as free parameters (defaulted to
    0, or to the entries of ``free_values``), and the obstruction matrices
    R_l are computed there.  A G, G_l or R_l past the float range raises
    :class:`IllConditioned` naming the group.
    """
    group = tuple(group)
    n = fs_uc.n
    groups, values = _group_partition(fs_uc.u)
    if group not in groups:
        raise ValueError(f"{group} is not a coalescence group of u^c: {groups}")
    lam_alpha = fs_uc.u[group[0]]
    check_vanishing(fs_uc.A, fs_uc.u)
    w = fs_uc.A_plus_I
    G = np.eye(n, dtype=complex)
    for j in group:
        if nearest_integer(fs_uc.lambda_prime[j]) != -1:
            G[j] = -w[j] / w[j, j]
        elif np.linalg.norm(w[j]) >= 1e-13:
            raise ResonanceAmbiguity(
                f"lambda'_{j} = -1 with nilpotent residue: the diagonal Levelt "
                "reduction does not apply to this group"
            )
    G[np.ix_(group, group)] = np.eye(len(group))
    # each other group's merged residue sum_i G^-1 B_i G, B_i = -e_i (row i of A+I): one product
    Ginv = 2 * np.eye(n) - G
    others = [(v, -(Ginv[:, list(g)] @ (w[list(g)] @ G)))
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
    if not all(np.isfinite(X).all() for X in [G, *Gl, *Rl.values()]):
        raise IllConditioned(f"the Levelt recursion of group {group} leaves the float range")
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


def gamma_shift(system: SystemPair, gamma: float) -> SystemPair:
    """Gauge shift A -> A - gamma I moving exponents off the integers.

    Raises :class:`BadGamma` if some shifted diagonal entry or eigenvalue
    of the shifted matrix is still an integer within tolerance.
    """
    return shift_exponents(system, gamma)[1]


# a diagonal entry of A nearer an integer than this makes shift_exponents shift
SHIFT_MARGIN = 1e-2


def shift_exponents(system: SystemPair, gamma=None):
    """``(gamma, system shifted by gamma)`` from one spectrum of A.

    ``gamma`` None picks the shift both Stokes routes take: 0.0 while every diagonal
    entry lies SHIFT_MARGIN or more from the integers and no eigenvalue of A is an
    integer (INTEGER_TOL), both by :func:`.model.integer_distance`; else the midpoint of
    the widest gap between the fractional parts of Re of the n diagonal entries and the
    n eigenvalues, which leaves every shifted value 1/(4n) or more from the integers.
    Every shift is checked as :func:`gamma_shift` describes (BadGamma); the picked one
    fails only where a value is too large for the shift to move it in floating point.
    """
    values = _spectrum(system)
    n = system.n
    if gamma is None:
        gamma = 0.0
        if (integer_distance(values) < np.repeat([SHIFT_MARGIN, INTEGER_TOL], n)).any():
            fractions = np.sort(values.real % 1.0)
            gaps = np.diff(fractions, append=fractions[0] + 1.0)
            i = int(np.argmax(gaps))
            gamma = (fractions[i] + 0.5 * gaps[i]) % 1.0
    bad = np.flatnonzero(integer_distance(values - gamma) < INTEGER_TOL)
    if bad.size:
        raise BadGamma(f"shifted diagonal entry or eigenvalue {values[bad[0]] - gamma} is "
                       f"integer within tolerance")
    return float(gamma), SystemPair(system.A - gamma * np.eye(n), system.u)
