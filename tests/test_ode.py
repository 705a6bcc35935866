"""The work counter that both Taylor integrators report to."""

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
