"""Spans around the public functions of each program module, wrapped from outside.

``Tracer.install`` replaces each target function in every namespace that
holds it (a function imported by name lives in several modules) and patches
methods on their class.  Each call records a span: name, start, end, parent
span and operation id, kept in flat arrays and written out at the end.
``layer_metrics`` turns the spans into per-layer counts, busy time and self
time (span time minus the time covered by its child spans).
"""

import array
import gzip
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

# (defining module, attribute, span name)
FUNCTIONS = (
    ("isomonodromy.frobenius", "selected_solution", "frobenius.series"),
    ("isomonodromy.frobenius", "singular_solution", "frobenius.series"),
    ("isomonodromy.frobenius", "analytic_basis", "frobenius.series"),
    ("isomonodromy.frobenius", "levelt_at_confluence", "frobenius.levelt"),
    ("isomonodromy.continuation", "transport_to_base", "continuation.transport"),
    ("isomonodromy.continuation", "loop_at_pole", "continuation.loop"),
    ("isomonodromy.continuation", "connection_coefficients", "continuation.connection"),
    ("isomonodromy.continuation", "connection_products", "continuation.products"),
    ("isomonodromy.continuation", "ray_continuation", "laplace.ray"),
    ("isomonodromy.laplace", "laplace_column", "laplace.column"),
    ("isomonodromy.laplace", "_panel", "laplace.panel"),
    ("isomonodromy.laplace", "adaptive_quad", "laplace.quad"),
    ("isomonodromy.laplace", "formal_recursion", "laplace.formal"),
    ("isomonodromy.stokes", "stokes_from_connection", "stokes.formula"),
    ("isomonodromy.stokes", "stokes_direct", "stokes.direct"),
    ("isomonodromy.deformation", "transport", "deformation.transport"),
    ("isomonodromy.deformation", "omega", "deformation.omega"),
    ("isomonodromy.deformation", "integrability_residual", "deformation.integrability"),
    ("isomonodromy.model", "label_rays", "model.geometry"),
    ("isomonodromy.model", "sector_bounds", "model.geometry"),
    ("isomonodromy.model", "is_in_cell", "model.geometry"),
    ("isomonodromy.cli", "_write_csv", "cli.report"),
)
# (module, class, method, span name)
METHODS = (
    ("isomonodromy.frobenius", "FuchsianSystem", "rhs", "frobenius.rhs"),
    ("isomonodromy.model", "DeformationGeometry", "__init__", "model.geometry"),
    ("isomonodromy.cli", "Runner", "write", "cli.report"),
)
CLI_COMMANDS = ("rays", "stokes", "deform", "levelt", "check")
MODULES = ("frobenius", "continuation", "laplace", "stokes", "deformation", "model", "cli")
# spans inside which an ODE solve or a dense-output evaluation belongs to laplace
LAPLACE_CONTEXT = ("laplace.column", "laplace.ray")

LAYER_METRICS = (
    "frobenius.rhs_calls", "frobenius.rhs_s", "frobenius.series_calls",
    "frobenius.series_s", "frobenius.levelt_s",
    "continuation.solves", "continuation.steps", "continuation.ode_s",
    "continuation.transport_calls", "continuation.transport_s",
    "continuation.loop_calls", "continuation.loop_s", "continuation.connection_s",
    "continuation.coeffs", "continuation.solves_per_coeff",
    "laplace.columns", "laplace.column_s", "laplace.panels", "laplace.panel_s",
    "laplace.quad_maxdepth_hits", "laplace.ray_solves", "laplace.ray_steps",
    "laplace.ray_s", "laplace.dense_evals", "laplace.dense_eval_s",
    "laplace.formal_calls", "laplace.formal_s",
    "stokes.formula_s", "stokes.direct_self_s",
    "deformation.transport_calls", "deformation.transport_s", "deformation.steps",
    "deformation.nfev", "deformation.omega_calls", "deformation.integrability_s",
    "model.geometry_s",
    "cli.import_s", "cli.rays_s", "cli.stokes_s", "cli.deform_s", "cli.levelt_s",
    "cli.check_s", "cli.report_s",
) + tuple(f"{m}.self_s" for m in MODULES + ("import",)) + ("trace.overhead_frac",)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_per_coeff")):
        return "ratio"
    return "count"


def _ode_counts(args, kwargs, out):
    return {"steps": len(out.t) - 1, "nfev": int(out.nfev)}


def _coeff_count(args, kwargs, out):
    n = out.C.shape[0]
    prov = getattr(out, "provenance", None)
    if prov is None:
        return {"coeffs": n * (n - 1)}
    return {"coeffs": sum(1 for j in range(n) for k in range(n)
                          if j != k and prov[j, k] == "monodromy-projection")}


def _maxdepth_hit(fn):
    """A call that stopped at max_depth with its error above the tolerance."""
    sig = inspect.signature(fn)

    def extra(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if "max_depth" not in a or a.get("depth", 0) < a["max_depth"]:
            return {"hits": 0}
        fine, err = out
        limit = a["tol"] * max(a["scale"], float(np.max(np.abs(fine))))
        return {"hits": int(err > limit)}

    return extra


EXTRAS = {
    "continuation.connection": lambda fn: _coeff_count,
    "laplace.quad": _maxdepth_hit,
}


class Tracer:
    """In-memory span recorder with the wrappers that feed it."""

    def __init__(self):
        self.names, self.ids = [], {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.nested = array.array("b")
        self.extra = {}
        self.stack = []
        self.active = []
        self.current_op = -1
        self.patches = []
        self.skipped = []

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return nid

    def _enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.nested.append(self.active[nid] > 0)
        self.active[nid] += 1
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _exit(self, idx, nid):
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.active[nid] -= 1

    def wrap(self, name, fn, extra=None):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            idx = self._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx, nid)
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, out)
            return out

        return wrapper

    def wrap_by_caller(self, suffix, fn, extra=None):
        """Span named after the calling program module, or laplace inside a column."""
        context = [self._id(n) for n in LAPLACE_CONTEXT]

        def wrapper(*args, **kwargs):
            if any(self.active[c] for c in context):
                layer = "laplace"
            else:
                module = sys._getframe(1).f_globals.get("__name__", "")
                layer = module.rsplit(".", 1)[-1] if module.startswith("isomonodromy") else "other"
            nid = self._id(f"{layer}.{suffix}")
            idx = self._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx, nid)
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, out)
            return out

        return wrapper

    # -- installing -------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items())
                if n == "isomonodromy" or n.startswith("isomonodromy.")] + [
            sys.modules["scipy.integrate"]]

    def _replace_everywhere(self, original, wrapper):
        for ns in self._namespaces():
            for key, value in list(vars(ns).items()):
                if value is original:
                    self.patches.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def install(self):
        """Wrap every target; return the originals still reachable (should be none)."""
        import scipy.integrate

        for mod in {m for m, _, _ in FUNCTIONS} | {m for m, _, _, _ in METHODS}:
            importlib.import_module(mod)
        originals = []
        for mod, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[mod], attr, None)
            if fn is None:
                self.skipped.append(f"{mod}.{attr}")
                continue
            extra = EXTRAS[name](fn) if name in EXTRAS else None
            self._replace_everywhere(fn, self.wrap(name, fn, extra))
            originals.append(fn)
        ode = scipy.integrate.solve_ivp
        self._replace_everywhere(ode, self.wrap_by_caller("ode", ode, _ode_counts))
        originals.append(ode)
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod], cls_name, None)
            if cls is None or meth not in vars(cls):
                self.skipped.append(f"{mod}.{cls_name}.{meth}")
                continue
            self.patches.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
        dense = scipy.integrate.OdeSolution
        self.patches.append((dense, "__call__", dense.__call__))
        dense.__call__ = self.wrap_by_caller("dense_eval", dense.__call__)
        cli_main = sys.modules["isomonodromy.cli"].main
        for cmd in CLI_COMMANDS:
            command = cli_main.commands.get(cmd)
            if command is None:
                self.skipped.append(f"cli {cmd}")
                continue
            self.patches.append((command, "callback", command.callback))
            command.callback = self.wrap(f"cli.{cmd}", command.callback)
        ids = {id(fn) for fn in originals}
        return [f"{ns.__name__}.{key}" for ns in self._namespaces()
                for key, value in vars(ns).items() if id(value) in ids]

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)
        self.patches.clear()

    # -- results ----------------------------------------------------------

    def write(self, path):
        """Spans as gzipped CSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")

    def layer_metrics(self):
        """Per-layer counts, busy and self seconds, keyed as in LAYER_METRICS."""
        k = len(self.names)
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        count = np.bincount(name, minlength=k)
        busy_arr = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_arr = np.bincount(name, weights=own, minlength=k)

        def calls(n):
            return int(count[self.ids[n]]) if n in self.ids else 0

        def busy(n):
            return float(busy_arr[self.ids[n]]) if n in self.ids else 0.0

        def own(n):
            return float(self_arr[self.ids[n]]) if n in self.ids else 0.0

        def extra(n, key):
            nid = self.ids.get(n)
            return sum(e.get(key, 0) for i, e in self.extra.items() if self.name[i] == nid)

        m = {
            "frobenius.rhs_calls": calls("frobenius.rhs"),
            "frobenius.rhs_s": busy("frobenius.rhs"),
            "frobenius.series_calls": calls("frobenius.series"),
            "frobenius.series_s": busy("frobenius.series"),
            "frobenius.levelt_s": busy("frobenius.levelt"),
            "continuation.solves": calls("continuation.ode"),
            "continuation.steps": extra("continuation.ode", "steps"),
            "continuation.ode_s": busy("continuation.ode"),
            "continuation.transport_calls": calls("continuation.transport"),
            "continuation.transport_s": busy("continuation.transport"),
            "continuation.loop_calls": calls("continuation.loop"),
            "continuation.loop_s": busy("continuation.loop"),
            "continuation.connection_s": busy("continuation.connection"),
            "continuation.coeffs": extra("continuation.connection", "coeffs"),
            "laplace.columns": calls("laplace.column"),
            "laplace.column_s": busy("laplace.column"),
            "laplace.panels": calls("laplace.panel"),
            "laplace.panel_s": busy("laplace.panel"),
            "laplace.quad_maxdepth_hits": extra("laplace.quad", "hits"),
            "laplace.ray_solves": calls("laplace.ode"),
            "laplace.ray_steps": extra("laplace.ode", "steps"),
            "laplace.ray_s": busy("laplace.ray"),
            "laplace.dense_evals": calls("laplace.dense_eval"),
            "laplace.dense_eval_s": busy("laplace.dense_eval"),
            "laplace.formal_calls": calls("laplace.formal"),
            "laplace.formal_s": busy("laplace.formal"),
            "stokes.formula_s": busy("stokes.formula"),
            "stokes.direct_self_s": own("stokes.direct"),
            "deformation.transport_calls": calls("deformation.transport"),
            "deformation.transport_s": busy("deformation.transport"),
            "deformation.steps": extra("deformation.ode", "steps"),
            "deformation.nfev": extra("deformation.ode", "nfev"),
            "deformation.omega_calls": calls("deformation.omega"),
            "deformation.integrability_s": busy("deformation.integrability"),
            "model.geometry_s": busy("model.geometry"),
            "cli.report_s": busy("cli.report"),
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = busy(f"cli.{cmd}")
        coeffs = m["continuation.coeffs"]
        m["continuation.solves_per_coeff"] = m["continuation.solves"] / coeffs if coeffs else 0.0
        for mod in MODULES:
            m[f"{mod}.self_s"] = float(sum(self_arr[i] for n, i in self.ids.items()
                                           if n.split(".", 1)[0] == mod))
        return m
