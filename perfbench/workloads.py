"""The four benchmark workloads: operation, reference and correctness check.

Each workload turns the seeded arrays of ``inputs`` into keyed program
objects (``prepare``, part of set-up; a pass runs every item once), runs one
operation per item (``run``, the timed part), and checks each output against
an independent reference computed after the timed phase (``reference`` and
``check``).  ``check`` returns the error that enters ``err_digits`` and
raises ``CheckFailed`` when the output is wrong.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs

# criterion-1 bound on formula/oracle agreement (tests/test_acceptance.py),
# absolute, on every Stokes entry
AGREEMENT_BOUND = 1e-6
# loop closure and conserved-quantity drift of the Schlesinger families
CLOSURE_BOUND = 1e-9
# F_1, F_2 of formal_recursion against the local-series route (criterion 3)
FORMAL_BOUND = 1e-8
# finite-difference integrability residual at step 1e-3
INTEGRABILITY_BOUND = 1e-4
# deform report: variation of c_jk and Stokes entries along the path
DEFORM_BOUND = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its reference beyond the workload's bound."""


def numerical_errors():
    """Exception types of the program that count as a failed operation."""
    import isomonodromy
    from isomonodromy import continuation, deformation, frobenius, laplace, stokes

    names = {
        continuation: ("StepFailure", "IllConditioned", "BasisSingular"),
        stokes: ("MatchingInconsistent", "OverlapEmpty"),
        deformation: ("DriftExceeded",),
        laplace: ("QuadratureDivergence", "SingularF1"),
        frobenius: ("ResonanceAmbiguity", "BadGamma"),
        isomonodromy: ("NonAdmissibleError",),
    }
    found = [getattr(mod, name) for mod, attrs in names.items() for name in attrs
             if hasattr(mod, name)]
    return tuple(found) + (np.linalg.LinAlgError,)


def _max_diff(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


class Sweep:
    """Stokes pair by one route, checked against the other route."""

    items_per_size = 1

    def __init__(self, route):
        self.route = route

    def generate(self, seed):
        return inputs.sweep_inputs(seed, self.items_per_size)

    def prepare(self, raw):
        from isomonodromy.model import DeformationGeometry, SystemPair

        return [(i, (SystemPair(r["A"], r["u"]), DeformationGeometry(r["u"], 1e-3, r["tau"])))
                for i, r in enumerate(raw)]

    @staticmethod
    def _formula(item):
        from isomonodromy.stokes import stokes_pipeline

        pair = stokes_pipeline(item[0], item[1], tol=1e-12, N=40)
        return pair.S_nu, pair.S_nu_plus_mu

    @staticmethod
    def _oracle(item):
        from isomonodromy.stokes import stokes_pair_direct

        pair = stokes_pair_direct(item[0], item[1], tol=1e-13, N=40)
        return pair.S_nu, pair.S_nu_plus_mu

    def run(self, item):
        return self._formula(item) if self.route == "formula" else self._oracle(item)

    def reference(self, item):
        return self._oracle(item) if self.route == "formula" else self._formula(item)

    def check(self, item, out, ref):
        err = _max_diff(out, ref)
        if not err < AGREEMENT_BOUND:
            raise CheckFailed(f"formula/oracle difference {err:.2e} >= {AGREEMENT_BOUND:.0e}")
        return err

    @staticmethod
    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))


class Families:
    """Closed Schlesinger loop, integrability residual and formal recursion."""

    items_per_size = 6

    def generate(self, seed):
        return inputs.family_inputs(seed, self.items_per_size)

    def prepare(self, raw):
        from isomonodromy.model import SystemPair

        return [(i, (SystemPair(r["A"], r["u"]), r["waypoints"])) for i, r in enumerate(raw)]

    def run(self, item):
        from isomonodromy.deformation import (
            DeformationState,
            integrability_residual,
            transport,
        )
        from isomonodromy.laplace import formal_recursion

        system, waypoints = item
        state = DeformationState(u=system.u.copy(), A=system.A.copy())
        for w in waypoints:
            state = transport(state, w, tol=1e-12)
        resid = integrability_residual(system, tol=1e-12)
        formal = formal_recursion(system, 20)
        return {"A_end": state.A, "diag_drift": state.diag_drift,
                "spectrum_drift": state.spectrum_drift, "integrability": resid,
                "F": np.array(formal.F)}

    def reference(self, item):
        from isomonodromy.frobenius import build_fuchsian, selected_solution
        from isomonodromy.laplace import assemble_formal

        system = item[0]
        fs = build_fuchsian(system)
        sols = [selected_solution(fs, k, N=25) for k in range(system.n)]
        return {"A_start": system.A, "F_series": assemble_formal(sols, 2)}

    def check(self, item, out, ref):
        closure = float(np.max(np.abs(out["A_end"] - ref["A_start"])))
        err = max(closure, out["diag_drift"], out["spectrum_drift"])
        if not err < CLOSURE_BOUND:
            raise CheckFailed(f"loop closure/drift {err:.2e} >= {CLOSURE_BOUND:.0e}")
        if not out["integrability"] < INTEGRABILITY_BOUND:
            raise CheckFailed(f"integrability residual {out['integrability']:.2e}")
        if not np.all(np.isfinite(out["F"])):
            raise CheckFailed("formal coefficients are not finite")
        formal = _max_diff(out["F"][:2], ref["F_series"])
        if not formal < FORMAL_BOUND:
            raise CheckFailed(f"F_1, F_2 differ from the series route by {formal:.2e}")
        return err

    @staticmethod
    def same(a, b):
        return all(np.array_equal(a[k], b[k]) for k in a)


class CliCommands:
    """The README commands, each in a fresh ``python -m isomonodromy.cli``."""

    def __init__(self, root, work, env):
        self.root = Path(root)
        self.work = Path(work)
        self.env = env

    def generate(self, seed):
        return inputs.cli_inputs(seed)

    def prepare(self, raw):
        problems = self.root / "problems"
        return [(cmd, (cmd, str(problems / spec))) for cmd, spec in raw]

    def _out_dir(self, cmd):
        out = self.work / cmd
        shutil.rmtree(out, ignore_errors=True)
        return out

    def run(self, item):
        """One fresh process; returns its exit code and report bytes."""
        cmd, spec = item
        out = self._out_dir(cmd)
        proc = subprocess.run(
            [sys.executable, "-m", "isomonodromy.cli", cmd, "--spec", spec, "--out", str(out)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=170,
        )
        return self._result(cmd, proc.returncode, out, proc.stderr.decode(errors="replace"))

    def run_in_process(self, item):
        """Same command through ``cli.main`` in this process (traced runs)."""
        from isomonodromy import cli

        cmd, spec = item
        out = self._out_dir(cmd)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main.main(args=[cmd, "--spec", spec, "--out", str(out)],
                              standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        return self._result(cmd, code, out, "")

    @staticmethod
    def _result(cmd, code, out, stderr):
        report = out / f"{cmd}_report.json"
        body = report.read_bytes() if report.exists() else b""
        return {"cmd": cmd, "code": code, "report": body, "stderr": stderr[-2000:]}

    def reference(self, item):
        return None

    def check(self, item, out, ref):
        if out["code"] != 0:
            raise CheckFailed(f"{out['cmd']} exited {out['code']}: {out['stderr']}")
        if not out["report"]:
            raise CheckFailed(f"{out['cmd']} wrote no report")
        report = json.loads(out["report"])
        bad = [s["name"] for s in report["stages"] if s["status"] != "ok"]
        if bad:
            raise CheckFailed(f"{out['cmd']} stages not ok: {bad}")
        results = report["results"]
        if out["cmd"] == "stokes":
            errs = [results["formula_oracle_max_diff"]]
            bound = AGREEMENT_BOUND
        elif out["cmd"] == "deform":
            errs = [v for p in results["paths"]
                    for v in (p["c_max_variation"], p["stokes_max_variation"])]
            bound = DEFORM_BOUND
        else:
            return None
        err = max(errs)
        if not err < bound:
            raise CheckFailed(f"{out['cmd']} error {err:.2e} >= {bound:.0e}")
        return err

    @staticmethod
    def same(a, b):
        return a["code"] == b["code"] and a["report"] == b["report"]
