"""The work counter of the package's two integrators, both Taylor steppers.

:func:`.continuation.carry` continues the linear Fuchsian system for both
Stokes routes, and :func:`.deformation._transport_stack` integrates the
nonlinear Schlesinger flow.  Each reports one solve per call through
:func:`tally`: its steps and its order updates, the latter counted as nfev.
:func:`counting` totals them over a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class Work:
    """Totals of the solves made while a :func:`counting` block was open."""

    solves: int = 0
    steps: int = 0
    nfev: int = 0


_open: ContextVar[tuple] = ContextVar("open_counters", default=())


@contextmanager
def counting():
    """``with counting() as work:`` totals every solve made inside the block.

    A solve is one call of an integrator; its steps are its lockstep Taylor
    steps and its nfev its order updates, one batched product each.
    """
    work = Work()
    token = _open.set(_open.get() + (work,))
    try:
        yield work
    finally:
        _open.reset(token)


def tally(steps, nfev):
    """Count one solve of ``steps`` steps and ``nfev`` order updates in every open counter."""
    for work in _open.get():
        work.solves += 1
        work.steps += steps
        work.nfev += nfev
