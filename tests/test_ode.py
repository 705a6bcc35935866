"""The work counter and the step policy that both Taylor integrators share."""

import numpy as np

from conftest import draw_system
from isomonodromy import ode
from isomonodromy.deformation import DeformationState, integrability_residual, transport


def test_counters_nest_and_total_every_tally():
    """A transport and a residual are one solve each; an outer block also sees later tallies."""
    system, _ = draw_system(np.random.default_rng(7), 4, min_gap=0.35)
    with ode.counting() as work:
        with ode.counting() as inner:
            transport(DeformationState(u=system.u, A=system.A), system.u + 0.02 - 0.01j)
            integrability_residual(system, tol=1e-12)
        ode.tally(3, 7, 5)
    assert inner.solves == 2 and inner.steps >= 2 and inner.nfev >= inner.steps
    # one segment and then 2n stencil segments, each advanced by every step until done
    assert inner.steps <= inner.piece_steps <= inner.steps * (1 + 2 * system.n)
    assert (work.solves, work.steps, work.nfev, work.piece_steps) == (
        inner.solves + 1, inner.steps + 3, inner.nfev + 7, inner.piece_steps + 5)
    assert ode._open.get() == ()


def test_untested_orders_at_and_past_a_ratio_of_one():
    """Terms falling as 0.5^m are tested after 54 orders; terms that do not fall, after 2."""
    assert ode.untested_orders(0.5) == 54
    assert ode.untested_orders(1.0) == 2
    assert ode.untested_orders(2.0) == 2


def test_taylor_step_at_a_ratio_of_one_shortens_the_step():
    """A direct call of the Schlesinger step at max|q| exactly 1: the tail test after 2 orders
    shortens the step, which ends finite.  Transports plan max|q| <= STEP_RATIO."""
    from isomonodromy.deformation import _taylor_step

    rng = np.random.default_rng(0)
    n = 3
    A = 0.3 * (rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n)))
    q = rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n))
    q[:, np.arange(n), np.arange(n)] = 0
    q /= np.abs(q).max()
    q[np.unravel_index(np.abs(q).argmax(), q.shape)] = 1.0
    assert np.abs(q).max() == 1.0
    with np.errstate(under="ignore"):
        end, c, _ = _taylor_step(A, q)
    assert np.isfinite(end).all()
    assert 0 < c[0] < 1
