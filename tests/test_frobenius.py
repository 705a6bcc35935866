import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_rhs, omega, residue
from isomonodromy.model import (CutPlane, IllConditioned, SingularF1, SystemPair,
                               integer_distance)
from isomonodromy.frobenius import (
    BadGamma,
    build_fuchsian,
    gamma_shift,
    leading_factor,
    levelt_at_confluence,
    selected_solution,
    selected_solutions,
    selected_values,
    shift_exponents,
)


def test_build_fuchsian_example(system_2x2):
    fs = build_fuchsian(system_2x2)
    assert np.allclose(residue(fs, 0), [[-1.5, -2.0], [0.0, 0.0]])
    assert np.allclose(residue(fs, 1), [[0.0, 0.0], [-3.0, -4.0 / 3.0]])


def test_build_fuchsian_diagonal():
    fs = build_fuchsian(SystemPair(np.diag([0.5, -2.0]), [0.0, 1.0]))
    for k, lp in enumerate([0.5, -2.0]):
        expected = np.zeros((2, 2))
        expected[k, k] = -lp - 1
        assert np.allclose(residue(fs, k), expected)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_residue_sum_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    fs = build_fuchsian(SystemPair(A, np.arange(n, dtype=complex)))
    assert np.max(np.abs(sum(residue(fs, k) for k in range(n)) + A + np.eye(n))) < 1e-14


# ---------------------------------------------------------------------------
# selected solutions
# ---------------------------------------------------------------------------


def test_selected_diagonal_noninteger():
    fs = build_fuchsian(SystemPair(np.diag([0.5, 0.25]), [0.0, 1.0]))
    sol = selected_solution(fs, 0, N=10)
    assert sol.b[0] == pytest.approx([math.gamma(1.5), 0.0])
    assert np.max(np.abs(sol.b[1:])) == 0.0


def test_selected_solutions_need_an_order(system_2x2):
    """A truncation order N below 1 is a ValueError, before any recursion; N = 1 runs."""
    fs = build_fuchsian(system_2x2)
    with pytest.raises(ValueError, match="N >= 1 required"):
        selected_solutions(fs, 0)
    assert selected_solution(fs, 1, 1).b.shape == (2, 2)


def test_selected_diagonal_negative_integer():
    fs = build_fuchsian(SystemPair(np.diag([-2.0, 0.25]), [0.0, 1.0]))
    sol = selected_solution(fs, 0, N=10)
    # f_k = (-1)^{-2}/1! = 1, Psi = e_k (lam - u_k)
    assert sol.f_k == pytest.approx(1.0)
    assert sol.b[0] == pytest.approx([1.0, 0.0])
    assert np.max(np.abs(sol.b[1:])) == 0.0


def _oracle_series_fractions(A_frac, u_frac, k, lp_num, lp_den, N):
    """Independent oracle: term-by-term solve of (Lambda-lam) Psi' = (A+I) Psi.

    Exact arithmetic over Fractions; exponent rho = -lp-1 with lp = p/q.
    Recursion (component form, x = lam - u_k):
      i != k: b_{l+1,i} = [((A+I) b_l)_i + (l+rho) b_{l,i}] / [(u_i-u_k)(l+1+rho)]
      i == k: b_{l,k} = -sum_{j!=k} A_kj b_{l,j} / l   (l >= 1)
    """
    n = len(u_frac)
    lp = Fraction(lp_num, lp_den)
    rho = -lp - 1
    fk = Fraction(1)  # normalization constant factored out
    b = [[Fraction(0)] * n for _ in range(N + 1)]
    b[0][k] = fk
    AI = [[A_frac[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    for l in range(N):
        # k-component of next order from the self-consistency relation
        nxt = [Fraction(0)] * n
        for i in range(n):
            if i == k:
                continue
            s = sum(AI[i][j] * b[l][j] for j in range(n))
            nxt[i] = (s + (l + rho) * b[l][i]) / ((u_frac[i] - u_frac[k]) * (l + 1 + rho))
        s = sum(Fraction(A_frac[k][j]) * nxt[j] for j in range(n) if j != k)
        nxt[k] = -s / (l + 1)
        b[l + 1] = nxt
    return b


def test_selected_coefficients_match_exact_oracle(system_2x2):
    fs = build_fuchsian(system_2x2)
    sol = selected_solution(fs, 0, N=8)
    A_frac = [[Fraction(1, 2), Fraction(2)], [Fraction(3), Fraction(1, 3)]]
    oracle = _oracle_series_fractions(A_frac, [Fraction(0), Fraction(1)], 0, 1, 2, 8)
    fk = math.gamma(1.5)
    for l in range(9):
        got = sol.b[l] / fk
        want = np.array([float(x) for x in oracle[l]])
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_substitution_residual_invariant(system_2x2):
    """Truncated series plugged into the ODE leaves O(x^N) residual.

    Every order also satisfies the dense convolution form of the recurrence,
    ((l + rho) I - B_k) b_l = sum_{p<l} C_p b_{l-1-p}.
    """
    fs = build_fuchsian(system_2x2)
    sol = selected_solution(fs, 0, N=25)
    cut = CutPlane(eta=1.5 * math.pi - math.pi / 4)
    for x in (0.05 * cmath.exp(0.3j), 0.12 * cmath.exp(-1.1j)):
        lam = fs.u[0] + x
        h = 1e-6
        dv = (sol.selected_value(lam + h, cut) - sol.selected_value(lam - h, cut)) / (2 * h)
        resid = np.max(np.abs(dv - dense_rhs(fs, lam) @ sol.selected_value(lam, cut)))
        scale = np.max(np.abs(sol.selected_value(lam, cut)))
        assert resid < 1e-7 * max(scale, 1.0)
    for k in range(2):
        series = selected_solution(fs, k, N=25)
        b, C = series.b, _dense_coeffs(fs, k, 25)
        for l in range(26):
            res = ((l + series.rho) * np.eye(2) - residue(fs, k)) @ b[l] - _dense_rhs(C, b, l)
            assert np.max(np.abs(res)) <= 1e-12 * max(1.0, np.max(np.abs(b))), (k, l)


def test_normalization_constant_across_deformation(system_2x2):
    """f_k and the leading coefficient do not depend on u."""
    from isomonodromy.deformation import DeformationState, transport

    st0 = DeformationState(u=system_2x2.u, A=system_2x2.A.copy())
    for target in ([0.0, 1.2 + 0.3j], [-0.2j, 1.2 + 0.3j]):
        st0 = transport(st0, np.array(target, dtype=complex), tol=1e-12)
    fs = build_fuchsian(st0.system())
    sol = selected_solution(fs, 0, N=10)
    assert sol.f_k == pytest.approx(math.gamma(1.5))
    assert sol.b[0] == pytest.approx([math.gamma(1.5), 0.0])


def test_natural_exponent_within_integer_tol_is_the_integer_series():
    """lambda' = 2 + 1e-9 is classed natural and gives the series of lambda' = 2.

    w_k = lambda' + 1 by construction, so no second test of w_k against
    lambda' + 1 is needed; one at 1e-10 refused this exponent.
    """
    sols = []
    for lp in (2.0, 2.0 + 1e-9):
        A = np.array([[lp, 0.5], [0.3, 0.37]], dtype=complex)
        sols.append(selected_solution(build_fuchsian(SystemPair(A, [0.0, 1.0])), 0, N=20))
    exact, near = sols
    assert near.klass == exact.klass == "natural"
    for a, b in ((exact.b, near.b), (exact.d, near.d)):
        assert np.max(np.abs(a - b)) < 1e-6 * max(1.0, float(np.max(np.abs(a))))


# ---------------------------------------------------------------------------
# singular solutions
# ---------------------------------------------------------------------------


def test_singular_diagonal_natural_zero():
    """lambda'_0 = 0 on a diagonal A: the selected solution is zero, and its singular
    companion e_k / (lam - u_k) has residue Gamma(1) = 1 and no log part."""
    fs = build_fuchsian(SystemPair(np.diag([0.0, 0.5]), [0.0, 1.0]))
    sol = selected_solution(fs, 0, N=10)
    assert sol.b[0] == pytest.approx([1.0, 0.0])
    assert sol.zero


def test_exceptional_case_no_singular_solution():
    """lambda'_0 = -2 with the couplings off: no singular solution exists at u_0, so
    row 0 of C is zero-by-degenerate-singular.

    With the couplings zeroed the local solution basis at u_0 is {e_0 x,
    e_1 (x-u)^...}: every solution is analytic at u_0, as the trivial
    monodromy of the full basis around u_0 checks independently.
    """
    from isomonodromy.continuation import connection_coefficients, monodromy_matrix

    cut = CutPlane(eta=2.35)
    A = np.array([[-2.0, 0.0], [0.0, 0.37]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    assert connection_coefficients(fs, cut).provenance[0, 1] == "zero-by-degenerate-singular"
    M = monodromy_matrix(fs, 0, cut)
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_generic_negative_integer_has_singular_solution():
    """lambda'_0 = -2 with the couplings on: a singular solution exists at u_0, so row 0
    of C is the monodromy projection and the local monodromy is not trivial."""
    from isomonodromy.continuation import connection_coefficients, monodromy_matrix

    cut = CutPlane(eta=2.35)
    A = np.array([[-2.0, 0.9], [0.55, 0.37]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0]))
    assert connection_coefficients(fs, cut).provenance[0, 1] == "monodromy-projection"
    M = monodromy_matrix(fs, 0, cut)
    assert np.max(np.abs(M - np.eye(2))) > 1e-3


def test_linear_independence_within_group():
    A = np.array(
        [[0.3, 0.0, 0.45], [0.0, 0.55, -0.35], [0.6, 0.5, 0.21]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.02, -0.02, 1.0]))
    sols = [selected_solution(fs, k, N=10) for k in (0, 1)]
    rows = np.array([np.concatenate([s.b[0], s.b[1]]) for s in sols])
    assert np.linalg.matrix_rank(rows, tol=1e-10) == 2


# ---------------------------------------------------------------------------
# Levelt data at the confluence
# ---------------------------------------------------------------------------


def test_levelt_resonant_group_reports_one_free_parameter():
    A = np.array(
        [[0.5, 0.0, 0.4], [0.0, 2.5, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    data = levelt_at_confluence(fs, (0, 1), N=12)
    assert data.free_parameters == [(2, 0, 1)]
    assert data.kappa == 2
    assert not data.partial_nonresonance
    assert np.allclose(np.diag(data.T), [-1.5, -3.5, 0.0])


def test_levelt_nonresonant_group_all_R_vanish():
    A = np.array(
        [[0.5, 0.0, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    data = levelt_at_confluence(fs, (0, 1), N=12)
    assert data.free_parameters == []
    assert data.partial_nonresonance
    assert all(np.max(np.abs(R)) < 1e-10 for R in data.R_parts.values())


def test_levelt_normal_form_satisfies_ode():
    A = np.array(
        [[0.5, 0.0, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    data = levelt_at_confluence(fs, (0, 1), N=16)
    x = 0.06 * cmath.exp(0.31j)
    n = 3
    S = np.eye(n, dtype=complex)
    dS = np.zeros((n, n), dtype=complex)
    for l in range(1, len(data.G_series)):
        S = S + data.G_series[l] * x ** l
        dS = dS + l * data.G_series[l] * x ** (l - 1)
    T = np.diag(data.T)
    xT = np.diag([x ** t for t in T])
    dxT = np.diag([t * x ** (t - 1) for t in T])
    Psi = data.G @ S @ xT
    dPsi = data.G @ (dS @ xT + S @ dxT)
    resid = np.max(np.abs(dPsi - dense_rhs(fs, x) @ Psi))
    assert resid < 1e-9


def test_levelt_reduces_the_group_residues_in_closed_form(vanishing_A_uc):
    """G has row -w~_j / w_jj with 1 on the diagonal at each member j (w~_j: row j of A+I
    with its in-group entries taken as 0) and row e_r elsewhere, 2I - G is its exact
    inverse, and G^-1 B_j G = -w_jj E_jj; for a diagonal A, G = I."""
    four = np.array([[0.4, 0.0, 0.0, 0.3], [0.0, 0.7, 0.0, -0.2], [0.0, 0.0, 1.1, 0.5],
                     [0.6, 0.1, -0.4, 0.25]], dtype=complex)
    for A, u, group in ((vanishing_A_uc, [0.0, 0.0, 1.0], (0, 1)),
                        (four, [0.0, 0.0, 0.0, 1.0], (0, 1, 2))):
        fs = build_fuchsian(SystemPair(A, u))
        n, w = fs.n, fs.A_plus_I
        G = levelt_at_confluence(fs, group, N=8).G
        expected = np.eye(n, dtype=complex)
        for j in group:
            expected[j] = -w[j] / w[j, j]
            expected[j, list(group)] = 0.0
            expected[j, j] = 1.0
        assert np.array_equal(G, expected)
        assert np.array_equal(G @ (2 * np.eye(n) - G), np.eye(n))
        for j in group:
            E = np.zeros((n, n))
            E[j, j] = 1.0
            assert np.max(np.abs(np.linalg.solve(G, residue(fs, j) @ G) + w[j, j] * E)) < 1e-14
    diagonal = build_fuchsian(SystemPair(np.diag([0.5, -0.3, 0.2]), [0.0, 0.0, 1.0]))
    assert np.array_equal(levelt_at_confluence(diagonal, (0, 1), N=8).G, np.eye(3))


def test_levelt_keeps_a_zero_residue_member():
    """lambda'_0 = -1 with row 0 of A+I zero: B_0 = 0, so row 0 of G stays e_0."""
    A = np.array([[-1.0, 0.0, 0.0], [0.0, 0.3, -0.35], [0.6, 0.5, 0.21]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    data = levelt_at_confluence(fs, (0, 1), N=8)
    assert np.array_equal(data.G[0], [1.0, 0.0, 0.0])
    assert np.max(np.abs(data.G[1] - [0.0, 1.0, 0.35 / 1.3])) < 1e-16
    assert np.allclose(np.diag(data.T), [0.0, -1.3, 0.0])


def test_levelt_rejects_violated_vanishing():
    A = np.array(
        [[0.5, 0.9, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    with pytest.raises(SingularF1):
        levelt_at_confluence(fs, (0, 1), N=8)


def test_levelt_and_f1_share_one_vanishing_test():
    """levelt_at_confluence and the formal recursion of F_1 judge an in-group entry by one
    limit, VANISH_TOL max(1, max|A|): 5e-9 is below it at max|A| = 60, 1e-8 above it."""
    from isomonodromy.laplace import formal_recursion

    u = [0.0, 0.0, 1.0]
    A = np.array([[0.3, 5e-9, 45], [0, 0.7, -35], [60, 50, 0.21]], dtype=complex)
    formal_recursion(SystemPair(A, u), 4)
    levelt_at_confluence(build_fuchsian(SystemPair(A, u)), (0, 1), N=8)
    A[0, 1] = 1e-8
    with pytest.raises(SingularF1, match=r"\|A\[0,1\]\| = 1.00e-08"):
        formal_recursion(SystemPair(A, u), 1)
    with pytest.raises(SingularF1, match=r"\|A\[0,1\]\| = 1.00e-08"):
        levelt_at_confluence(build_fuchsian(SystemPair(A, u)), (0, 1), N=8)


@pytest.mark.parametrize("offset", [0.0, 1e-10])
def test_levelt_refuses_a_group_exponent_at_minus_one(offset):
    """lambda'_0 = -1 (+ 1e-10, within INTEGER_TOL) leaves B_0 nilpotent, not diagonalizable.

    The explicit diagonal reduction divides by lambda'_0 + 1: at 1e-10 it
    gave a G with entries of 4e9 and no error.
    """
    from isomonodromy.frobenius import ResonanceAmbiguity

    A = np.array(
        [[-1.0 + offset, 0.0, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    with pytest.raises(ResonanceAmbiguity, match="nilpotent"):
        levelt_at_confluence(fs, (0, 1), N=8)


def test_levelt_singleton_group_is_plain_frobenius():
    A = np.array(
        [[0.5, 0.0, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex
    )
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    data = levelt_at_confluence(fs, (2,), N=8)
    assert data.kappa == 0
    assert data.free_parameters == []


# ---------------------------------------------------------------------------
# gamma shift
# ---------------------------------------------------------------------------


def test_gamma_shift_moves_diagonal():
    sp = SystemPair(np.diag([0.0, -1.0]), [0.0, 1.0])
    shifted = gamma_shift(sp, 0.3)
    assert shifted.lambda_prime == pytest.approx([-0.3, -1.3])


def test_gamma_shift_moves_spectrum():
    A = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)
    sp = SystemPair(A, [0.0, 1.0])
    assert shift_exponents(sp)[0] != 0.0
    shifted = gamma_shift(sp, 0.3)
    ev = np.linalg.eigvals(shifted.A)
    assert sorted(x.real for x in ev) == pytest.approx([-0.3, 1.7])
    assert shift_exponents(shifted)[0] == 0.0


def test_gamma_shift_rejects_bad_gamma():
    sp = SystemPair(np.diag([0.3, -1.0]), [0.0, 1.0])
    with pytest.raises(BadGamma):
        gamma_shift(sp, 0.3)  # 0.3 - 0.3 = 0 integer
    assert shift_exponents(sp)[0] != 0.3


def test_pick_gamma_takes_one_spectrum(monkeypatch):
    """spec(A - gamma I) = spec(A) - gamma: one eigvals serves the whole choice.  Here 1 is on
    the diagonal, and the fractional parts 0, 0.23 and 0.3 of the diagonal and the spectrum
    leave their widest gap, (0.3, 1), around 0.65: the shift.  With no integer in the spectrum
    the same one call gives 0.0, and 0 is checked like any explicit shift.  A
    connection_products call takes exactly one eigvals too."""
    from isomonodromy.continuation import connection_products

    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(M) or eigvals(M))
    A = np.array([[0.3, 0.5, 0.0], [0.0, 0.23, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    sp = SystemPair(A, [0.0, 1.0, 2.0])
    g, shifted = shift_exponents(sp)
    assert g == pytest.approx(0.65, abs=1e-15)
    assert len(calls) == 1
    assert np.array_equal(shifted.A, sp.A - g * np.eye(3))
    assert np.array_equal(gamma_shift(sp, g).A, shifted.A)
    assert len(calls) == 2
    with pytest.raises(BadGamma):
        gamma_shift(sp, 0.23)
    cut = CutPlane(eta=1.25 * math.pi)
    calls.clear()
    _, conn = connection_products(sp, cut)
    assert conn.gamma == g
    assert len(calls) == 1
    calls.clear()
    plain = SystemPair(np.array([[0.5, 0.2], [0.1, 0.33]], dtype=complex), [0.0, 1.0])
    assert shift_exponents(plain)[0] == 0.0
    assert len(calls) == 1
    with pytest.raises(BadGamma):
        gamma_shift(SystemPair(np.diag([1.0, 0.5]), [0.0, 1.0]), 0.0)


def test_shift_rule_margins():
    """gamma stays 0 while every diagonal entry is at least SHIFT_MARGIN from the integers,
    in the box distance max(|Im|, |Re - round Re|), and no eigenvalue is an integer within
    INTEGER_TOL; an eigenvalue 1e-6 off an integer does not shift."""
    from isomonodromy.frobenius import SHIFT_MARGIN

    def gamma(a00, b=0.0):
        return shift_exponents(SystemPair(np.array([[a00, b], [0.2, 0.5]]), [0.0, 1.0]))[0]

    assert gamma(1 + 1.001 * SHIFT_MARGIN) == 0.0
    assert gamma(-2 - 1.001 * SHIFT_MARGIN + 0.5j * SHIFT_MARGIN) == 0.0
    assert gamma(3 + 1j * 1.001 * SHIFT_MARGIN) == 0.0
    for a00 in (1 + 0.999 * SHIFT_MARGIN, -2 + 1e-9, 0.0, 4 + 0.5j * SHIFT_MARGIN):
        assert gamma(a00) != 0.0, a00
    # eigenvalues 1 + 1e-6 and 0.45 (or exactly 1) on a diagonal far from the integers
    P = np.array([[1.0, 0.3], [0.4, 1.0]])
    for ev, shifts in ((1 + 1e-6, False), (1.0, True)):
        A = P @ np.diag([ev, 0.45]) @ np.linalg.inv(P)
        assert min(integer_distance(np.diag(A))) > 5 * SHIFT_MARGIN
        assert (shift_exponents(SystemPair(A, [0.0, 1.0]))[0] != 0.0) == shifts, ev


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_widest_gap_clears_every_value(seed, n):
    """Diagonal entries put on or near integers: the widest gap's midpoint leaves all 2n
    shifted values at least 1/(4n) from the integers, so the shifted system takes no
    further shift (1/(4n) > SHIFT_MARGIN up to n = 25)."""
    rng = np.random.default_rng(seed)
    A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    near = rng.integers(-3, 4, n) + rng.choice([0.0, 1e-9, -1e-5, 3e-3], n)
    hit = rng.uniform(size=n) < 0.6
    np.fill_diagonal(A, np.where(hit, near, np.diag(A)))
    sp = SystemPair(A, np.arange(n, dtype=complex))
    g, shifted = shift_exponents(sp)
    if not hit.any() and min(integer_distance(np.diag(A))) >= 1e-2:
        return
    assert 0.0 < g < 1.0
    values = np.concatenate([shifted.lambda_prime, np.linalg.eigvals(shifted.A)])
    assert integer_distance(values).min() >= 1 / (4 * n) - 1e-12
    assert shift_exponents(shifted)[0] == 0.0


def test_gamma_shift_preserves_omega(system_2x2):
    shifted = gamma_shift(system_2x2, 0.21)
    for k in range(2):
        assert np.allclose(omega(system_2x2, k), omega(shifted, k))


def test_gamma_shift_exponent_of_selected_solution():
    """Local exponent of the shifted selected solution, fitted numerically."""
    sp = SystemPair(np.array([[0.0, 0.8], [0.6, -1.0]], dtype=complex), [0.0, 1.0])
    g = 0.3
    shifted = gamma_shift(sp, g)
    fs = build_fuchsian(shifted)
    sol = selected_solution(fs, 0, N=30)
    cut = CutPlane(eta=2.2)
    r1, r2 = 1e-5, 2e-5
    lam1 = fs.u[0] + r1 * cmath.exp(1j * (cut.eta - math.pi))
    lam2 = fs.u[0] + r2 * cmath.exp(1j * (cut.eta - math.pi))
    v1 = sol.selected_value(lam1, cut)
    v2 = sol.selected_value(lam2, cut)
    slope = (math.log(abs(v2[0])) - math.log(abs(v1[0]))) / (math.log(r2) - math.log(r1))
    assert slope == pytest.approx(float(-(0.0 - g) - 1), abs=1e-4)


def _mixed_batch():
    """One series batch of every class: pole 0 of A = [[0, 1e-15], [2e-15, 0.5]] (natural,
    zero) and its pole 1 (noninteger), poles 0 (natural) and 1 (negative integer) of
    [[1, 2], [3, -2]], and pole 1 of [[0.5, 2], [3, 1/3]] (noninteger), all at u = (0, 1)."""
    systems = [np.array([[0.0, 1e-15], [2e-15, 0.5]]), np.array([[1.0, 2.0], [3.0, -2.0]]),
               np.array([[0.5, 2.0], [3.0, 1 / 3]])]
    sols = [selected_solutions(SystemPair(A, [0.0, 1.0]), 30) for A in systems]
    batch = [sols[0][0], sols[0][1], sols[1][0], sols[1][1], sols[2][1]]
    assert [(sol.klass, sol.zero) for sol in batch] == [
        ("natural", True), ("noninteger", False), ("natural", False),
        ("negative_integer", False), ("noninteger", False)]
    return batch


def test_selected_values_equal_selected_value_in_every_class():
    """A batch of every class, zero natural included, summed at once equals each series
    summed alone at its point, bit for bit; the zero natural solution is 0."""
    batch = _mixed_batch()
    cut = CutPlane(eta=2.2)
    lam = [sol.pole + 0.3 * (p + 1) / 5 * cmath.exp(1j * (0.7 + 1.9 * p))
           for p, sol in enumerate(batch)]
    r = [abs(x - sol.pole) for x, sol in zip(lam, batch)]
    arg = [cut.arg_from(x, sol.pole) for x, sol in zip(lam, batch)]
    values = selected_values(batch, r, arg)
    assert values.shape == (5, 2)
    for p, sol in enumerate(batch):
        assert values[p].tobytes() == sol.selected_value(lam[p], cut).tobytes(), p
    assert not values[0].any() and values[1:].all()


def test_selected_values_past_the_float_range_name_the_pole():
    """One column of the batch summed where x^N leaves the float range raises the
    IllConditioned of check_radius, naming its pole, before any sum; a branch factor x^rho
    past the float range, at a finite x^N, raises IllConditioned too.  No numpy warning
    comes first."""
    batch = _mixed_batch()
    for p, sol in enumerate(batch):
        r = [0.1] * len(batch)
        r[p] = 1e17
        with pytest.raises(IllConditioned, match=rf"local series at pole {sol.k} .* x\^30 "):
            selected_values(batch, r, [0.5] * len(batch))
    # x^30 stays in range at |x| = 200, but x^rho, rho = 149.5, does not (e^792)
    far = selected_solutions(SystemPair(np.array([[-150.5, 1.0], [1.0, 0.5]]), [0.0, 1.0]), 30)
    assert np.isfinite(selected_values(far[:1], [50.0], [0.3])).all()
    with pytest.raises(IllConditioned, match=r"a branch factor e\^\(rho \(ln r \+ i arg\)\)"):
        selected_values(batch[:2] + far[:1], [0.1, 0.1, 200.0], [0.3] * 3)


def test_leading_factor_values():
    assert leading_factor(0.5, "noninteger") == pytest.approx(math.gamma(1.5))
    assert leading_factor(complex(-2.0), "negative_integer") == pytest.approx(1.0)
    assert leading_factor(complex(-3.0), "negative_integer") == pytest.approx(-0.5)
    assert leading_factor(complex(2.0), "natural") == pytest.approx(2.0)


def test_leading_factor_out_of_range_is_typed():
    """f_k past the float range raises IllConditioned in every class, and not before it."""
    assert leading_factor(complex(170.0), "natural") == float(math.factorial(170))
    assert leading_factor(complex(-171.0), "negative_integer") == -1 / math.factorial(170)
    for lp, klass in ((171.0, "natural"), (-172.0, "negative_integer"), (1e200, "natural"),
                      (200.5, "noninteger"), (-200.3, "noninteger")):
        with pytest.raises(IllConditioned, match="lambda'_k"):
            leading_factor(complex(lp), klass)


# ---------------------------------------------------------------------------
# rank-one recursion against the dense reference
# ---------------------------------------------------------------------------


def _dense_coeffs(fs, k, order):
    """Reference C_p as a list of dense matrices, accumulated pole by pole."""
    n = fs.n
    C = [np.zeros((n, n), dtype=complex) for _ in range(order + 1)]
    for m in range(n):
        if m != k:
            inv = 1.0 / (fs.u[k] - fs.u[m])
            for p in range(order + 1):
                C[p] += ((-1) ** p) * residue(fs, m) * inv ** (p + 1)
    return C


def _dense_rhs(C, x, l, source=None):
    rhs = np.zeros(x.shape[1], dtype=complex)
    for p in range(l):
        rhs += C[p] @ x[l - 1 - p]
    return rhs if source is None else rhs - source[l]


def _dense_orders(fs, k, C, x, orders, shift, source=None):
    """Solve ((l + shift) I - B_k) x_l = rhs_l by a dense solve per order."""
    eye = np.eye(fs.n)
    for l in orders:
        x[l] = np.linalg.solve((l + shift) * eye - residue(fs, k), _dense_rhs(C, x, l, source))
    return x


def _dense_seeds(fs, k):
    """Kernel seeds of w pivoted on the largest |w_m|; e_i, i != k, for w = 0."""
    w = -residue(fs, k)[k]
    if np.linalg.norm(w) < 1e-13:
        return w, [np.eye(fs.n, dtype=complex)[i] for i in range(fs.n) if i != k]
    m = int(np.argmax(np.abs(w)))
    seeds = []
    for i in range(fs.n):
        if i != m:
            v = np.zeros(fs.n, dtype=complex)
            v[i] = 1.0
            v[m] = -w[i] / w[m]
            seeds.append(v)
    return w, seeds


def _dense_pinned(fs, k, C, seed, N, rho, source=None):
    """Exponent-0 series with the kernel component pinned at the resonant order."""
    phi = np.zeros((N + 1, fs.n), dtype=complex)
    phi[0] = seed
    for l in range(1, N + 1):
        if l == rho:
            phi[l] = _dense_rhs(C, phi, l, source) / l
            phi[l, k] = 0.0
        else:
            _dense_orders(fs, k, C, phi, [l], 0, source)
    return phi


def _dense_obstruction(fs, k, C, seed, rho, source=None):
    phi = np.zeros((rho, fs.n), dtype=complex)
    phi[0] = seed
    _dense_orders(fs, k, C, phi, range(1, rho), 0, source)
    return -residue(fs, k)[k] @ _dense_rhs(C, phi, rho, source)


def _dense_selected(fs, k, N):
    """Reference selected series: ``b`` (and ``d`` for class natural)."""
    n = fs.n
    lp = fs.lambda_prime[k]
    fk = leading_factor(lp, fs.integer_class(k))
    if fs.integer_class(k) != "natural":
        b = np.zeros((N + 1, n), dtype=complex)
        b[0, k] = fk
        return _dense_orders(fs, k, _dense_coeffs(fs, k, N), b, range(1, N + 1), -lp - 1), None
    Nk = int(round(lp.real))
    w = -residue(fs, k)[k]
    C = _dense_coeffs(fs, k, N + Nk + 1)
    b = np.zeros((N + Nk + 2, n), dtype=complex)
    b[0, k] = fk
    _dense_orders(fs, k, C, b, range(1, Nk + 1), -lp - 1)
    R = _dense_rhs(C, b, Nk + 1)
    d = np.zeros((N + 1, n), dtype=complex)
    d[0] = R
    d[0, k] = 0.0
    d[0, k] = -(w @ d[0]) / w[k]
    _dense_orders(fs, k, C, d, range(1, N + 1), 0)
    b[Nk + 1, k] = (R[k] - d[0, k]) / w[k]
    source = np.zeros_like(b)
    source[Nk + 1:] = d
    _dense_orders(fs, k, C, b, range(Nk + 2, N + Nk + 2), -lp - 1, source)
    return b[: N + 1], d


def _dense_analytic(fs, k, N):
    C = _dense_coeffs(fs, k, N)
    w, seeds = _dense_seeds(fs, k)
    rho = int(round((-fs.lambda_prime[k] - 1).real))
    if fs.integer_class(k) != "negative_integer" or rho < 1:
        return [_dense_pinned(fs, k, C, s, N, None) for s in seeds]
    obs = np.array([_dense_obstruction(fs, k, C, s, rho) for s in seeds])
    m = len(seeds)
    Q, _ = np.linalg.qr(np.column_stack([obs.conj()] + [np.eye(m)[:, i] for i in range(m)]))
    seeds = [sum(c * s for c, s in zip(Q[:, j], seeds)) for j in range(1, m)]
    return [_dense_pinned(fs, k, C, s, N, rho) for s in seeds]


def _dense_singular_phi(fs, k, N):
    """Reference regular completion phi of the log-singular solution (negative integer)."""
    b, _ = _dense_selected(fs, k, N)
    rho = int(round((-fs.lambda_prime[k] - 1).real))
    C = _dense_coeffs(fs, k, N)
    shifted = np.zeros((N + 1, fs.n), dtype=complex)
    shifted[rho:] = b[: N + 1 - rho]
    w, seeds = _dense_seeds(fs, k)
    if rho == 0:
        seed = w.conj() * (-b[0, k] / (w @ w.conj()))
    else:
        c0 = _dense_obstruction(fs, k, C, np.zeros(fs.n, dtype=complex), rho, shifted)
        L = np.array([_dense_obstruction(fs, k, C, s, rho) for s in seeds])
        y = -c0 * L.conj() / (L @ L.conj())
        seed = sum(yi * s for yi, s in zip(y, seeds))
    return _dense_pinned(fs, k, C, seed, N, rho, shifted)


def _rowwise_error(got, want):
    """Max over rows of |got_l - want_l| relative to the largest entry of want_l."""
    return max(float(np.max(np.abs(g - v))) / float(np.max(np.abs(v)))
               for g, v in zip(got, want))


def _series_cases():
    """(SystemPair, k) for random systems n = 2..6 and every exponent class at u_k."""
    rng = np.random.default_rng(5)
    cases = []
    for n in range(2, 7):
        for lp in (0.37 + 0.21j, -1.0, -2.0, -3.0, 0.0, 2.0):
            while True:
                u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                if min(abs(u[i] - u[j]) for i in range(n) for j in range(i)) > 0.4:
                    break
            A = 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            k = int(rng.integers(n))
            A[k, k] = lp
            cases.append((build_fuchsian(SystemPair(A, u)), k))
    return cases


def test_rank_one_series_matches_dense_reference():
    """Selected series agree with the dense recursion, in every exponent class."""
    N = 30
    for fs, k in _series_cases():
        b, d = _dense_selected(fs, k, N)
        sol = selected_solution(fs, k, N=N)
        assert _rowwise_error(sol.b, b) < 1e-12
        if d is not None:
            assert _rowwise_error(sol.d, d) < 1e-12


def test_resonant_obstruction_is_the_dense_w_dot_rhs():
    """The obstruction at the resonant order, -rho times the right side of row k, is w . rhs of
    the dense convolution, with and without the log source, so its limits keep their scale."""
    from isomonodromy.frobenius import _chain, _columns

    N = 30
    for fs, k in _series_cases():
        rho = int(round((-fs.lambda_prime[k] - 1).real))
        if fs.integer_class(k) != "negative_integer" or rho < 1:
            continue
        C, (_, seeds) = _dense_coeffs(fs, k, N), _dense_seeds(fs, k)
        b, _ = _dense_selected(fs, k, N)
        shifted = np.zeros((N + 1, fs.n), dtype=complex)
        shifted[rho:] = b[: N + 1 - rho]
        for seed, source in [(s, None) for s in seeds] + [(0 * seeds[0], shifted)]:
            want = _dense_obstruction(fs, k, C, seed, rho, source)
            columns = None if source is None else source[..., None]
            got = _chain(fs, _columns(fs, [k]), seed[:, None], rho, columns)[0]
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_rank_one_solve_and_its_divisor_guard():
    """One two-term step: rows r != k divide D_r s c_l[r] = ((s - 1) + (A+I)) c_{l-1} [r] and
    row k solves (s + w_k) c_l[k] = -sum_{j!=k} w_j c_l[j], s = l + shift, D = u - u_k, w = row k
    of A+I; a vanishing s or s + w_k raises."""
    from isomonodromy.frobenius import ResonanceAmbiguity, _columns, _propagate

    A = np.array([[0.4, -2.0, 0.5 + 0.3j], [0.2, 1.0, 0.7], [-0.3, 0.6j, 0.1]])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0 + 0.5j, -0.7j]))
    k, w, D = 1, fs.A_plus_I[1], fs.u - fs.u[1]
    x = np.array([[0.4, -1.1j, 2.0], [0.0, 0.0, 0.0]], dtype=complex)
    _propagate(fs, _columns(fs, [k]), x[..., None], [1], 0.5)
    s = 1.5
    want = (s - 1) * x[0] + fs.A_plus_I @ x[0]
    got = D * s * x[1]
    want[k], got[k] = 0.0, (s + w[k]) * x[1, k] + sum(w[j] * x[1, j] for j in (0, 2))
    assert np.max(np.abs(got - want)) < 1e-14
    for shift in (-1.0, -1.0 - w[k]):  # s = 0, then s + w_k = 0
        with pytest.raises(ResonanceAmbiguity, match="vanishing recursion divisor"):
            _propagate(fs, _columns(fs, [k]), x.copy()[..., None], [1], shift)


def test_local_series_refuses_coinciding_poles():
    """A local series at u_0 needs the other poles apart from it."""
    from isomonodromy.frobenius import ResonanceAmbiguity

    A = np.array([[0.5, 0.0, 0.4], [0.0, 0.87, -0.3], [0.6, 0.7, 0.25]], dtype=complex)
    fs = build_fuchsian(SystemPair(A, [0.0, 0.0, 1.0]))
    with pytest.raises(ResonanceAmbiguity, match="u_0 and u_1 coincide: the local series at "
                                                 "u_0 needs distinct poles"):
        selected_solution(fs, 0, N=8)


def test_series_recursion_makes_no_dense_solve(monkeypatch):
    """Every order is a rank-one solve: no np.linalg.solve and no det."""
    calls = {"solve": 0, "det": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for fs, k in _series_cases():
        selected_solution(fs, k, N=30)
    assert calls == {"solve": 0, "det": 0}


# ---------------------------------------------------------------------------
# the stacked recursion against the per-pole recursion it replaced
# ---------------------------------------------------------------------------


def _pole_gaps(fs, k):
    D = fs.u - fs.u[k]
    D[k] = math.inf
    return 1.0 / D


def _pole_rows(fs, k, inv, prev, l, shift, source=None):
    s = l + shift
    r = fs.A_plus_I @ prev + (s - 1) * prev
    if source is None:
        c = r * inv / s
        return c, -(fs.A_plus_I[k] @ c)
    c = ((r + source[l - 1]) * inv - source[l]) / s
    c[k] = 0.0
    return c, -(fs.A_plus_I[k] @ c) - source[l, k]


def _pole_propagate(fs, k, inv, x, orders, shift=0, source=None):
    lead = shift + fs.A_plus_I[k, k]
    for l in orders:
        x[l], rhs_k = _pole_rows(fs, k, inv, x[l - 1], l, shift, source)
        x[l, k] = rhs_k / (l + lead)
    return x


def _pole_chain(fs, k, inv, seed, rho, source=None):
    phi = np.zeros((rho + 1, fs.n), dtype=complex)
    phi[0] = seed
    _pole_propagate(fs, k, inv, phi, range(1, rho), 0, source)
    phi[rho], rhs_k = _pole_rows(fs, k, inv, phi[rho - 1], rho, 0, source)
    return phi, -rho * rhs_k


def _pole_exponent0(fs, k, inv, seed, N, rho, source=None):
    phi = np.zeros((N + 1, fs.n), dtype=complex)
    phi[0] = seed
    if not 1 <= rho <= N:
        return _pole_propagate(fs, k, inv, phi, range(1, N + 1), 0, source), 0.0
    phi[:rho + 1], obstruction = _pole_chain(fs, k, inv, seed, rho, source)
    scale = max(1.0, float(np.max(np.abs(phi[:rho]))), rho * float(np.max(np.abs(phi[rho]))),
                0.0 if source is None else abs(source[rho, k]))
    return (_pole_propagate(fs, k, inv, phi, range(rho + 1, N + 1), 0, source),
            abs(obstruction) / scale)


def _pole_selected(fs, k, N):
    """The selected solution at u_k by a recursion of its own, one order at a time."""
    from isomonodromy.frobenius import LocalSolution
    from isomonodromy.model import nearest_integer

    n, lp, klass, w = fs.n, fs.lambda_prime[k], fs.integer_class(k), fs.A_plus_I[k]
    rho = -lp - 1
    sol = LocalSolution(k=k, klass=klass, lambda_prime_k=lp, pole=fs.u[k],
                        f_k=leading_factor(lp, klass), radius=fs.validity_radius(k))
    inv = _pole_gaps(fs, k)
    if klass != "natural":
        sol.b = np.zeros((N + 1, n), dtype=complex)
        sol.b[0, k] = sol.f_k
        _pole_propagate(fs, k, inv, sol.b, range(1, N + 1), rho)
        return sol
    Nk = nearest_integer(lp)
    b = np.zeros((N + Nk + 2, n), dtype=complex)
    b[0, k] = sol.f_k
    _pole_propagate(fs, k, inv, b, range(1, Nk + 1), rho)
    d = np.zeros((N + 1, n), dtype=complex)
    d[0] = (fs.A_plus_I @ b[Nk] - b[Nk]) * inv
    d[0, k] = -(w @ d[0]) / w[k]
    _pole_propagate(fs, k, inv, d, range(1, N + 1))
    b[Nk + 1, k] = -d[0, k] / w[k]
    source = np.vstack([np.zeros((Nk + 1, n)), d])
    _pole_propagate(fs, k, inv, b, range(Nk + 2, N + Nk + 2), rho, source)
    sol.b, sol.d = b[: N + 1].copy(), d
    sol.zero = bool(np.max(np.abs(d)) <= 1e-12)
    return sol


def _pole_singular_phi(fs, k, N):
    """``(zero, phi)`` of the log-singular solution at a negative-integer u_k, per seed."""
    from isomonodromy.frobenius import _kernel_seeds
    from isomonodromy.model import nearest_integer

    sel = _pole_selected(fs, k, N)
    n, inv, w = fs.n, _pole_gaps(fs, k), fs.A_plus_I[k]
    rho = -1 - nearest_integer(sel.lambda_prime_k)
    shifted = np.zeros((N + 1, n), dtype=complex)
    shifted[rho:] = sel.b[: max(N + 1 - rho, 0)]
    if rho == 0:
        if np.linalg.norm(w) < 1e-13:
            return True, None
        seed = w.conj() * (-sel.f_k / (w @ w.conj()))
    else:
        seeds = _kernel_seeds(w)
        _, c0 = _pole_chain(fs, k, inv, np.zeros(n, dtype=complex), rho, shifted)
        L = np.array([_pole_chain(fs, k, inv, s, rho)[1] for s in seeds])
        if float(np.max(np.abs(L))) < 1e-12 * max(1.0, abs(c0)):
            if abs(c0) > 1e-10:
                return True, None
            seed = np.zeros(n, dtype=complex)
        else:
            seed = (-c0 * L.conj() / (L @ L.conj())) @ seeds
    return False, _pole_exponent0(fs, k, inv, seed, N, rho, shifted)[0]


def _class_cases():
    """Systems n = 2..6 whose poles take every exponent class, and a natural pole whose
    column of A is zero off the diagonal, so that its selected solution is zero."""
    rng = np.random.default_rng(30)
    exponents = (0.37 + 0.21j, -1.0, -2.0, 0.0, 2.0, -3.0, 1.0, -0.61 + 0.4j)
    cases = []
    for n in range(2, 7):
        for zero in (False, True):
            while True:
                u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                if min(abs(u[i] - u[j]) for i in range(n) for j in range(i)) > 0.4:
                    break
            A = 0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            A[np.diag_indices(n)] = rng.choice(exponents, n)
            if zero:
                A[0, 0] = 1.0
                A[1:, 0] = 0.0
            cases.append(build_fuchsian(SystemPair(A, u)))
    return cases


def _assert_close(got, want, what):
    """max|got - want| within 1e-14 of max|want| (both zero where want is zero)."""
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale, (what, scale)


def test_stacked_series_equal_the_per_pole_recursion():
    """Every selected solution of the stacked recursion equals the one a recursion of its
    own gives, within 1e-14 of max|b|, at n = 2..6 over the three exponent classes and a
    zero selected solution."""
    classes, zeros = set(), 0
    for fs in _class_cases():
        sols = selected_solutions(fs, N=30)
        assert [sol.k for sol in sols] == list(range(fs.n))
        for k, sol in enumerate(sols):
            want = _pole_selected(fs, k, 30)
            assert (sol.klass, sol.f_k, sol.zero) == (want.klass, want.f_k, want.zero)
            classes.add(sol.klass)
            zeros += sol.zero
            _assert_close(sol.b, want.b, ("b", k))
            if sol.klass == "natural":
                _assert_close(sol.d, want.d, ("d", k))
    assert classes == {"noninteger", "negative_integer", "natural"}
    assert zeros >= 5


@pytest.mark.parametrize("seed", range(3))
def test_stacked_series_follow_a_relabelling(seed):
    """(u, A) -> (Pu, P A P^T) relabels the poles: the series at new pole i is the one at
    old pole p[i], its entries permuted by p, within 1e-14 of max|b|."""
    for fs in _class_cases()[seed::3]:
        p = np.random.default_rng(seed).permutation(fs.n)
        if (p == np.arange(fs.n)).all():
            p = p[::-1]
        perm = build_fuchsian(SystemPair(fs.A[np.ix_(p, p)], fs.u[p]))
        sols, moved = selected_solutions(fs, N=30), selected_solutions(perm, N=30)
        for i, sol in enumerate(moved):
            want = sols[p[i]]
            assert (sol.k, sol.klass, sol.zero) == (i, want.klass, want.zero)
            _assert_close(sol.b, want.b[:, p], ("b", i))
            if sol.klass == "natural":
                _assert_close(sol.d, want.d[:, p], ("d", i))


def test_a_vanishing_divisor_names_its_pole_and_order():
    """The divisor tables of a stacked recursion are checked before its first order: a
    vanishing s in the column of pole 2 raises, naming pole 2 and the order."""
    from isomonodromy.frobenius import ResonanceAmbiguity, _columns, _propagate

    A = np.array([[0.4, -2.0, 0.5 + 0.3j], [0.2, 1.3, 0.7], [-0.3, 0.6j, 0.1]])
    fs = build_fuchsian(SystemPair(A, [0.0, 1.0 + 0.5j, -0.7j]))
    x = np.zeros((5, 3, 2), dtype=complex)
    x[0] = 1.0
    with pytest.raises(ResonanceAmbiguity, match=r"divisor at pole 2, order 3 \(s = 0\)"):
        _propagate(fs, _columns(fs, [0, 2]), x, range(1, 5), np.array([0.5, -3.0]))
    assert not x[1:].any()


def _gamma_grid():
    """|z| <= 12: a lattice, a random disc sample and points next to the poles 0, -1, ..., -11."""
    rng = np.random.default_rng(12)
    lattice = [complex(a, b) for a in np.linspace(-12, 12, 33) for b in np.linspace(-12, 12, 33)]
    disc = list(12 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200)))
    near = [complex(-k + d, e) for k in range(12) for d in (1e-9, -1e-7, 1e-3, 0.5)
            for e in (0.0, 1e-8, 0.25)]
    return [z for z in lattice + disc + near
            if abs(z) <= 12 and not (z.imag == 0 and z.real <= 0 and z.real == round(z.real))]


def test_cgamma_against_mpmath():
    import mpmath

    from isomonodromy.frobenius import cgamma

    worst = 0.0
    with mpmath.workdps(30):
        for z in _gamma_grid():
            ref = complex(mpmath.gamma(mpmath.mpc(z.real, z.imag)))
            worst = max(worst, abs(cgamma(z) - ref) / abs(ref))
    assert worst <= 2e-14
    assert all(cmath.isnan(cgamma(-k)) for k in range(4))
