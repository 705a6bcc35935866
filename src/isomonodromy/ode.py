"""The work counter and the step policy of the package's two integrators, both Taylor steppers.

:func:`.continuation.carry` continues the linear Fuchsian system for both
Stokes routes, and :func:`.deformation._transport_stack` integrates the
nonlinear Schlesinger flow.  Each reports one solve per call through
:func:`tally`: its steps and its order updates, the latter counted as nfev.
:func:`counting` totals them over a block.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

# the step policy: a step's length over the distance to the nearest singularity,
# the negligible term relative to the solution, the orders added past the
# untested ones, and the orders a step sums at most before it fails
STEP_RATIO = 0.5
TAYLOR_EPS = 1e-16
TAIL_ORDERS = 4
MAX_ORDER = 400
# lockstep steps a Schlesinger solve takes at most before it fails: 15 times the 64
# of the longest solve in the test suite; a stalled 2x2 solve reaches it in 0.6 s
MAX_STEPS = 1000


def untested_orders(ratio):
    """Orders a Taylor step sums before it tests its tail, its terms falling as ``ratio``^m;
    terms that do not fall (``ratio`` >= 1) are tested after 2, so the step shortens at once."""
    return min(MAX_ORDER, max(2, math.ceil(math.log(TAYLOR_EPS, ratio)))) if 0 < ratio < 1 else 2


@dataclass
class Work:
    """Totals of the solves made while a :func:`counting` block was open."""

    solves: int = 0
    steps: int = 0
    nfev: int = 0
    piece_steps: int = 0


_open: ContextVar[tuple] = ContextVar("open_counters", default=())


@contextmanager
def counting():
    """``with counting() as work:`` totals every solve made inside the block.

    A solve is one call of an integrator; its steps are its lockstep Taylor
    steps, its nfev its order updates, one batched product each, and its
    piece_steps the pieces (paths or segments, or the runs a long path is
    cut into) each step advanced, summed over the steps.
    """
    work = Work()
    token = _open.set(_open.get() + (work,))
    try:
        yield work
    finally:
        _open.reset(token)


def tally(steps, nfev, piece_steps):
    """Count one solve of ``steps`` steps, ``nfev`` order updates and ``piece_steps``.

    Every open counter gets them.
    """
    for work in _open.get():
        work.solves += 1
        work.steps += steps
        work.nfev += nfev
        work.piece_steps += piece_steps
