"""DOP853 without dense output, bit-identical to SciPy 1.17's, loading no SciPy.

:func:`solve_ivp` repeats ``scipy.integrate.solve_ivp(..., method="DOP853")``
operation for operation (the rtol floor of ``validate_tol``,
``select_initial_step``, ``rk_step``, ``DOP853._estimate_error_norm`` and the
``_step_impl`` controller) and keeps only the end state; :func:`counting`
totals solves, accepted steps and right-hand-side evaluations, and
:func:`tally` adds the work of another integrator to it.  The tableau
and the stepping code follow ``scipy/integrate/_ivp`` (Hairer, Norsett and
Wanner, *Solving Ordinary Differential Equations I*, Sec. II.5), under this
notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers. All rights reserved.

    Redistribution and use in source and binary forms, with or without modification, are
    permitted provided that the following conditions are met: 1. Redistributions of source code
    must retain the above copyright notice, this list of conditions and the following
    disclaimer. 2. Redistributions in binary form must reproduce the above copyright notice,
    this list of conditions and the following disclaimer in the documentation and/or other
    materials provided with the distribution. 3. Neither the name of the copyright holder nor
    the names of its contributors may be used to endorse or promote products derived from this
    software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS" AND ANY EXPRESS
    OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE IMPLIED WARRANTIES OF
    MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE
    COPYRIGHT HOLDER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
    EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
    SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS INTERRUPTION)
    HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR
    TORT (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE,
    EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EPS = np.finfo(float).eps
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / (7 + 1)  # error estimator of order 7
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
FINISHED = "The solver successfully reached the end of the integration interval."

# Butcher tableau of the 12 stages (C[:12], A[:12, :12], B = A[12, :12])
C = np.array([0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510, 0.281649658092772603273242802490,
              0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
              0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0])
_ROWS = {  # row: {column: coefficient}
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
}
_A = np.zeros((13, 12))
for _r, _row in _ROWS.items():
    _A[_r, list(_row)] = list(_row.values())
A, B = _A[:12], _A[12]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]


class OdeResult(NamedTuple):
    """``t``: the start and every accepted time; ``y``: the last state, shape (N, 1)."""

    t: np.ndarray
    y: np.ndarray
    success: bool
    message: str
    nfev: int


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

    A :func:`solve_ivp` call counts its accepted steps and right-hand-side
    evaluations.  A Taylor carry (:func:`.continuation.carry` of pieces
    without samples) counts as one solve whose steps are its lockstep
    Taylor steps and whose nfev are its order updates, one batched matrix
    product each.
    """
    work = Work()
    token = _open.set(_open.get() + (work,))
    try:
        yield work
    finally:
        _open.reset(token)


def tally(steps, nfev):
    """Count one solve of ``steps`` accepted steps and ``nfev`` evaluations in every open counter."""
    for work in _open.get():
        work.solves += 1
        work.steps += steps
        work.nfev += nfev


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, method="DOP853", rtol=1e-3, atol=1e-6):
    """Integrate dy/dt = fun(t, y) over ``t_span`` by DOP853, as SciPy 1.17 does."""
    if method != "DOP853":
        raise ValueError(f"only DOP853 is implemented, not {method!r}")
    t0, tf = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.issubdtype(y.dtype, np.complexfloating) else float
    y = y.astype(dtype, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("`y0` must be 1-dimensional and finite.")
    n = y.size
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    if np.any(rtol < 100 * EPS):
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    direction = np.sign(tf - t0) if tf != t0 else 1
    fy = f(t0, y)
    h_abs = _initial_step(f, t0, y, tf, fy, direction, rtol, atol)
    K = np.empty((16, n), dtype=dtype)[:13]  # the layout of SciPy's extended stages
    t, ts, message = t0, [t0], FINISHED
    while n and t != tf:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = min_step if h_abs < min_step else h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                message = TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - tf) > 0:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)
            # rk_step: 12 stages, then f at the new point as stage 13
            K[0] = fy
            for s in range(1, 12):
                K[s] = f(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, B)
            K[-1] = f_new = f(t + h, y_new)
            # DOP853 error norm: the 5th-order estimate with the 3rd-order correction
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K.T, E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K.T, E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale))
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if message == TOO_SMALL_STEP:
            break
        t, y, fy = t_new, y_new, f_new
        ts.append(t)
        if direction * (t - tf) >= 0:
            break
    if not n or t0 == tf:
        ts.append(tf)
    tally(len(ts) - 1, nfev)
    return OdeResult(np.array(ts), y[:, None], message == FINISHED, message, nfev)


def _initial_step(f, t0, y0, tf, f0, direction, rtol, atol):
    """SciPy's ``select_initial_step`` (Hairer, Norsett and Wanner, Sec. II.4)."""
    interval_length = abs(tf - t0)
    if y0.size == 0 or interval_length == 0.0:  # no step is taken
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = f(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)
