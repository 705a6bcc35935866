"""Edge values in the shipped problems: every command and the library calls they reach end
in a result or a typed refusal, with no RuntimeWarning (``pyproject.toml`` makes one fail
a test) and no untyped exception.

Each example sets one to three numeric fields of a shipped problem to an edge value (0,
+-5e-324, +-1e-300, +-1e17, +-112, +-113, +-1e300, +-1e308, +-pi) or to any float that is
not NaN.  A problem without ``paths`` gets the one-waypoint path [u], so that ``deform``
transports on every problem and the waypoints are fields too.  The commands run in process
(``CliRunner``), ``levelt`` with zero to two ``--free`` items of such values, and each must
exit 0, 2 (problem-file error) or 3 (numerical failure).  ``transport``,
``connection_coefficients`` and ``DeformationGeometry`` get the fields of the same
problems and must return or raise a ValueError or one of the command line's typed
numerical failures.  The strategies and the example counts are fixed: about 40 examples in
tier 1, a few hundred in the slow set.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from isomonodromy import cli
from isomonodromy.continuation import connection_coefficients
from isomonodromy.deformation import DeformationState, transport
from isomonodromy.model import CutPlane, DeformationGeometry, SystemPair

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("rays", "stokes", "deform", "levelt", "check")
EDGES = [0.0] + [s * v for v in (5e-324, 1e-300, 1e17, 112.0, 113.0, 1e300, 1e308, math.pi)
                 for s in (1.0, -1.0)]
REFUSALS = cli.NUMERICAL_ERRORS + (ValueError,)


def _problem(name):
    data = json.loads((ROOT / "problems" / name).read_text())
    data.setdefault("paths", [[data["u"]]])
    return data


PROBLEMS = {path.name: _problem(path.name) for path in sorted((ROOT / "problems").glob("*.json"))}


def _leaves(node, at=()):
    """The paths of every number in a JSON document."""
    if isinstance(node, dict):
        return [leaf for key in sorted(node) for leaf in _leaves(node[key], at + (key,))]
    if isinstance(node, list):
        return [leaf for i, item in enumerate(node) for leaf in _leaves(item, at + (i,))]
    return [at] if type(node) in (int, float) else []


values = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False))


@st.composite
def mutated(draw, keys=None):
    """``(name, problem)``: a shipped problem with one to three of its fields (of ``keys`` if
    given) set to edge values; an integer field takes the value as an integer where it is
    finite."""
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    data = copy.deepcopy(PROBLEMS[name])
    leaves = [leaf for leaf in _leaves(data) if keys is None or leaf[0] in keys]
    for leaf in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        value = draw(values)
        node = data
        for key in leaf[:-1]:
            node = node[key]
        if type(node[leaf[-1]]) is int and math.isfinite(value):
            value = int(value)
        node[leaf[-1]] = value
    return name, data


free_items = st.lists(st.builds("{},{},{}={!r}:{!r}".format, st.integers(-1, 30),
                                st.integers(0, 4), st.integers(0, 4), values, values),
                      max_size=2)


def _run_commands(data, free):
    """Every command on the problem ``data``, in process: ``[(command, result)]``."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "problem.json"
        spec.write_text(json.dumps(data))
        for cmd in COMMANDS:
            args = [cmd, "--spec", str(spec), "--out", str(Path(tmp) / cmd)]
            if cmd == "levelt":
                args += [f"--free={item}" for item in free]
            runs.append((cmd, CliRunner().invoke(cli.main, args)))
    return runs


def _check_commands(case, free):
    name, data = case
    for cmd, result in _run_commands(data, free):
        assert result.exit_code in (0, 2, 3), (name, cmd, result.output, result.exc_info)


@given(mutated(), free_items)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_commands_end_typed_on_edge_values(case, free):
    _check_commands(case, free)


@pytest.mark.slow
@given(mutated(), free_items)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_commands_end_typed_on_edge_values_sweep(case, free):
    _check_commands(case, free)


def _complex(x):
    """Complex numbers from [re, im] pairs, with no arithmetic that could turn an inf to nan."""
    return np.array(x, dtype=float).view(complex)[..., 0]


def _library_calls(case):
    """``transport`` to each waypoint, ``connection_coefficients`` at the problem's cut and
    ``DeformationGeometry``, each with the mutated fields: a result or a typed refusal."""
    _, data = case
    A, u = _complex(data["A"]), _complex(data["u"])
    calls = [lambda: DeformationGeometry(_complex(data.get("u_c", data["u"])),
                                         data["epsilon0"], data["tau"])]
    calls += [lambda w=w: transport(DeformationState(u=u, A=A), _complex(w),
                                    tol=data.get("tol", 1e-10))
              for w in data["paths"][0]]
    eta = 1.5 * math.pi - data["tau"]
    calls.append(lambda: connection_coefficients(SystemPair(A, u), CutPlane(eta=eta),
                                                 tol=data.get("tol", 1e-10),
                                                 N=data.get("order", 40)))
    for call in calls:
        try:
            call()
        except REFUSALS:
            pass


LIBRARY_KEYS = ("A", "u", "u_c", "epsilon0", "tau", "tol", "order", "paths")


@given(mutated(LIBRARY_KEYS))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
def test_library_calls_end_typed_on_edge_values(case):
    _library_calls(case)


@pytest.mark.slow
@given(mutated(LIBRARY_KEYS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_library_calls_end_typed_on_edge_values_sweep(case):
    _library_calls(case)
