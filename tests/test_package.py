"""Package surface: lazy exports, the moved error classes, start-up imports, README sketch."""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isomonodromy
from isomonodromy import continuation, deformation, frobenius, laplace, model, stokes

ROOT = Path(__file__).resolve().parents[1]

MOVED_ERRORS = {
    continuation: ("StepFailure", "BasisSingular", "IllConditioned"),
    deformation: ("DriftExceeded",),
    frobenius: ("ResonanceAmbiguity", "BadGamma"),
    laplace: ("SingularF1", "QuadratureDivergence"),
    stokes: ("MatchingInconsistent",),
}


def _fresh(code):
    """Run ``code`` in a fresh interpreter from the repository root; return its last line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_exported_name_resolves():
    for name in isomonodromy.__all__:
        assert getattr(isomonodromy, name) is not None, name
    assert {"stokes_pipeline", "stokes_pair_direct"} <= set(isomonodromy.__all__)
    assert isomonodromy.stokes_pipeline is stokes.stokes_pipeline
    with pytest.raises(AttributeError):
        isomonodromy.no_such_name


def test_removed_entry_points_are_not_exported():
    """The oracle's one entry point is stokes_pair_direct; columns come in batches; the
    Fuchsian residues live in SystemPair.A_plus_I, so no separate type or conversion is exported;
    ray labels come from DeformationGeometry, and no family of Stokes matrices is generated;
    levelt_at_confluence reduces a group's residues in closed form, and the reduced flow that
    transport integrates is the one deformation equation; the connection coefficients need
    only whether a singular solution exists, and transport builds its omega_k from A alone."""
    for name in ("stokes_direct", "laplace_column", "asymptotic_fit", "FuchsianSystem",
                 "build_fuchsian", "label_rays", "stokes_generate", "jordan_reduce_Bj",
                 "schlesinger_rhs", "singular_solution", "f1", "omega"):
        assert name not in isomonodromy.__all__
        with pytest.raises(AttributeError):
            getattr(isomonodromy, name)


def test_deformation_does_not_load_laplace():
    """Schlesinger transport and the commands built on it (``check``) need no Laplace module,
    and none of the Fuchsian layer: deformation imports model and ode alone."""
    code = "import json, sys, isomonodromy.deformation; print(json.dumps(sorted(sys.modules)))"
    loaded = _fresh(code)
    for module in ("isomonodromy.laplace", "isomonodromy.continuation", "isomonodromy.frobenius",
                   "numpy.polynomial"):
        assert module not in loaded, module


@pytest.mark.parametrize("cmd, spec, layer", [
    ("rays", "sample2x2", []), ("check", "sample2x2", ["deformation"]),
    ("levelt", "resonant_group", ["frobenius"])])
def test_each_command_loads_only_the_layer_it_runs(tmp_path, cmd, spec, layer):
    """In a fresh process that imports the command line and runs one command on a shipped
    problem, ``rays`` loads the package, cli, model and ode alone; ``check`` adds
    deformation, and ``levelt`` frobenius."""
    code = f"""
import contextlib, io, json, sys
import isomonodromy.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main.main(args=[{cmd!r}, "--spec", "problems/{spec}.json", "--out", {str(tmp_path)!r}],
                  standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "isomonodromy")))
"""
    modules = ["cli", "model", "ode"] + layer
    assert _fresh(code) == ["isomonodromy"] + sorted(f"isomonodromy.{m}" for m in modules)
    assert (tmp_path / f"{cmd}_report.json").is_file()


def test_exports_are_not_cached_in_the_package(monkeypatch):
    """A function swapped on its submodule is what the package returns."""
    def replacement(*args, **kwargs):
        return None

    monkeypatch.setattr(deformation, "transport", replacement)
    assert isomonodromy.transport is replacement
    assert "transport" not in vars(isomonodromy)


def test_moved_errors_are_one_class():
    for module, names in MOVED_ERRORS.items():
        for name in names:
            assert getattr(module, name) is getattr(model, name), f"{module.__name__}.{name}"


def test_cli_catches_the_model_errors():
    from isomonodromy import cli

    for names in MOVED_ERRORS.values():
        for name in names:
            assert getattr(model, name) in cli.NUMERICAL_ERRORS


def test_cli_import_and_light_commands_load_no_scipy(tmp_path):
    code = f"""
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import isomonodromy.cli as cli
seen = {{"import": loaded()}}
for cmd, spec in (("rays", "sample2x2"), ("levelt", "resonant_group")):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=[cmd, "--spec", f"problems/{{spec}}.json",
                            "--out", {str(tmp_path)!r}], standalone_mode=False)
    seen[cmd] = loaded()
print(json.dumps(seen))
"""
    seen = _fresh(code)
    assert seen == {"import": [], "rays": [], "levelt": []}
    assert (tmp_path / "rays_report.json").is_file()
    assert (tmp_path / "levelt_report.json").is_file()


@pytest.mark.parametrize("module", ["isomonodromy.stokes", "isomonodromy.deformation"])
def test_solving_modules_load_scipy_integrate(module):
    """A solving module imports with scipy blocked and brings its integrators' work counter.

    ``isomonodromy.ode`` took the place of scipy.integrate and now holds
    only the counter: both integrators are Taylor steppers in their own
    modules, and no module has a ``solve_ivp``.
    """
    code = f"""
import json, sys
sys.modules["scipy"] = None
import {module}
ode = sys.modules.get("isomonodromy.ode")
print(json.dumps([ode is not None and hasattr(ode, "tally"),
                  any(hasattr(m, "solve_ivp") for name, m in list(sys.modules.items())
                      if name.startswith("isomonodromy"))]))
"""
    assert _fresh(code) == [True, False]


def test_solvers_import_nothing_and_need_no_scipy():
    """With scipy blocked, every module imports, and the solvers import nothing while they run.

    The in-process benchmark workloads import the solving modules during
    set-up and time their first operation, so an import made inside a
    solving function would land in a timed operation.
    """
    code = """
import json, pkgutil, sys
sys.modules["scipy"] = None
import numpy as np
import isomonodromy
for info in pkgutil.iter_modules(isomonodromy.__path__):
    __import__("isomonodromy." + info.name)
from isomonodromy import DeformationGeometry, SystemPair
from isomonodromy.deformation import DeformationState, integrability_residual, transport
from isomonodromy.laplace import formal_recursion
from isomonodromy.stokes import stokes_pair_direct, stokes_pipeline
A = np.array([[0.5, 2.0, 0.3], [3.0, 1 / 3, -0.7], [0.2, 1.1, -0.4]], dtype=complex)
u = np.array([0.0, 1.0, 0.4 + 0.9j])
system = SystemPair(A, u)
geometry = DeformationGeometry(u, 1e-3, tau=np.pi / 4)
before = set(sys.modules)
stokes_pipeline(system, geometry)
stokes_pair_direct(system, geometry)
transport(DeformationState(u=u, A=A), u + 0.01)
integrability_residual(system)
formal_recursion(system, 4)
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    assert _fresh(code) == []


@pytest.mark.parametrize("cmd, spec", [
    ("rays", "sample2x2"), ("stokes", "sample2x2"), ("deform", "coalescing3x3"),
    ("levelt", "resonant_group"), ("check", "sample2x2")])
def test_commands_run_with_scipy_blocked(tmp_path, cmd, spec):
    """Each README command exits 0 in a fresh process that cannot import scipy and turns every
    RuntimeWarning into an error, and writes the report an in-process run writes, byte for
    byte."""
    from click.testing import CliRunner

    from isomonodromy.cli import main

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = 'import sys; sys.modules["scipy"] = None; from isomonodromy.cli import main; main()'
    args = [cmd, "--spec", str(ROOT / "problems" / f"{spec}.json"), "--out"]
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code, *args,
                           str(tmp_path / "fresh")], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = CliRunner().invoke(main, [*args, str(tmp_path / "in_process")])
    assert result.exit_code == 0, result.output
    report = f"{cmd}_report.json"
    assert (tmp_path / "fresh" / report).read_bytes() == \
        (tmp_path / "in_process" / report).read_bytes()


def _call_sites(path, name):
    """``module.function`` of every call of a function called ``name`` in one source file."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                sites.append(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_two_integrator_sites():
    """Two integrators, each reporting its work to ``ode.tally`` from one place.

    Both Stokes routes integrate by the Taylor carry ``continuation.carry``
    and the Schlesinger transport of A by the Taylor steps of
    ``deformation._transport_stack``; nothing calls a ``solve_ivp``.
    """
    paths = sorted((ROOT / "src" / "isomonodromy").glob("*.py"))
    solves = [site for path in paths for site in _call_sites(path, "solve_ivp")]
    tallies = [site for path in paths if path.stem != "ode" for site in _call_sites(path, "tally")]
    assert solves == []
    assert tallies == ["continuation.carry", "deformation._transport_stack"]


def test_readme_library_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert float(out.getvalue().split()[-1]) < 1e-6
