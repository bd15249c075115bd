"""Outside-in tracing of the bridgestab layers.

`Tracer.install()` replaces the public functions of each layer module with
timing wrappers.  Names are imported by name across the package
(`from .kernels import lse_matvec` in `schrodinger`, ...), so every module
global that holds an original function is rebound, and `uninstall()` puts
the originals back.  Nothing under `src/` changes.

Spans nest: a span's self time is its duration minus that of its direct
child spans, and a layer's self time is the sum over its spans.  Groups
(for example all W2 routines) count a duration only at their outermost
span, so nested members are not counted twice.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "bridgestab"
LAYERS = ("kernels", "schrodinger", "sobolev", "diagnostics", "dynamics",
          "measures", "cli")

# class methods traced besides the module-level public functions
_METHODS = {
    "kernels": [("GibbsKernel", "heat", True), ("GibbsKernel", "ou", True)],
    "schrodinger": [("SchrodingerSolution", "log_plan", False),
                    ("EOTSolution", "log_plan", False)],
}

# function name -> group whose outermost spans are summed into one time
_GROUPS = {
    "heat": "build", "ou": "build",
    "log_plan": "plan_entropy", "plan_symmetric_entropy": "plan_entropy",
    "plan_relative_entropy": "plan_entropy",
    "schrodinger_plan_entropy": "plan_entropy",
    "w2_atoms": "w2", "wasserstein2_1d": "w2",
    "wasserstein2_exact_small": "w2",
}

# the solver entry points whose results carry `converged` and `n_iter`
SOLVERS = {"solve", "eot_quadratic_direct"}

_CHECKS = ("corrector_check", "plan_stability_check", "cost_stability_check",
           "quadratic_eot_stability_check")


class Stat:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Per-function call counts and times, plus per-call work counters.

    ``only`` restricts the wrapping to the named functions; the untimed
    passes use it to count solver calls and non-converged solves.
    """

    def __init__(self, only: set[str] | None = None):
        self.only = only
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.iters: list[int] = []
        self.lse_shapes: dict[tuple[int, int], int] = defaultdict(int)
        self.plan_shapes: dict[tuple[int, int], int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._swaps: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self.holders: dict[str, list[str]] = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        key = (layer, name)
        groups = (f"layer:{layer}",) + ((_GROUPS[name],) if name in _GROUPS
                                       else ())
        hook = getattr(self, f"_after_{name}", None)
        stack, depth, stats, group_s = (self._stack, self._depth, self.stats,
                                        self.group_s)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = stats[key]
                st.calls += 1
                st.incl += dt
                st.self_s += dt - frame[0]
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        group_s[g] += dt
            if hook is not None:
                hook(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if (n == PACKAGE or n.startswith(PACKAGE + "."))
                and m is not None]

    def targets(self):
        """(layer, name, function) for every traced module-level function."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and (self.only is None or name in self.only)):
                    out.append((layer, name, obj))
        return out

    def install(self) -> None:
        modules = self._modules()
        for layer, name, fn in self.targets():
            wrapped = self._wrap(fn, layer, name)
            self._originals[id(fn)] = f"{layer}.{name}"
            holders = []
            for mod in modules:
                for gname, val in list(vars(mod).items()):
                    if val is fn:
                        self._swaps.append((mod, gname, fn))
                        setattr(mod, gname, wrapped)
                        holders.append(f"{mod.__name__}.{gname}")
            self.holders[f"{layer}.{name}"] = holders
        for layer, specs in _METHODS.items() if self.only is None else ():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for cls_name, meth, static in specs:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if static else raw
                wrapped = self._wrap(fn, layer, meth)
                self._swaps.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
                self.holders[f"{layer}.{cls_name}.{meth}"] = [
                    f"{mod.__name__}.{cls_name}.{meth}"]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._swaps):
            setattr(owner, name, original)
        self._swaps.clear()

    def unbound(self) -> list[str]:
        """Module globals that still hold an original traced function while
        the tracer is installed (a name the rebinding missed)."""
        return [f"{mod.__name__}.{gname} ({self._originals[id(val)]})"
                for mod in self._modules()
                for gname, val in vars(mod).items()
                if id(val) in self._originals]

    # -- per-call work counters ------------------------------------------

    def _after_lse_matvec(self, args, out) -> None:
        A, v = args[0], args[1]
        rows, cols = A.shape
        self.counters["lse_entries"] += rows * cols
        self.counters["lse_bytes"] += A.nbytes + v.nbytes + out.nbytes
        self.lse_shapes[(rows, cols)] += 1

    def _after_solve(self, args, out) -> None:
        self.iters.append(out.n_iter)
        self.counters["nonconverged"] += not out.converged

    def _after_eot_quadratic_direct(self, args, out) -> None:
        self.counters["eot_iters"] += out.n_iter
        self.counters["nonconverged"] += not out.converged

    def _after_log_plan(self, args, out) -> None:
        self.counters["plan_bytes"] += out.log_weights.nbytes
        self.plan_shapes[out.log_weights.shape] += 1

    # -- summaries ---------------------------------------------------------

    def solver_calls(self) -> int:
        return sum(self.calls("schrodinger", name) for name in SOLVERS)

    def calls(self, layer: str, name: str | None = None) -> int:
        return sum(s.calls for (ly, nm), s in self.stats.items()
                   if ly == layer and (name is None or nm == name))

    def incl(self, layer: str, name: str) -> float:
        st = self.stats.get((layer, name))
        return st.incl if st else 0.0

    def self_s(self, layer: str) -> float:
        return sum(s.self_s for (ly, _), s in self.stats.items()
                   if ly == layer)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
        c = self.counters
        lse_calls = self.calls("kernels", "lse_matvec")
        lse_s = self.incl("kernels", "lse_matvec")
        solve_calls = self.calls("schrodinger", "solve")
        solve_s = self.incl("schrodinger", "solve")
        iters = self.iters
        hm1_calls = self.calls("sobolev", "h_minus_one_norm")
        hm1_s = self.incl("sobolev", "h_minus_one_norm")
        return {
            "kernels.build_calls": self.calls("kernels", "heat")
            + self.calls("kernels", "ou"),
            "kernels.build_s": self.group_s["build"],
            "kernels.lse_calls": lse_calls,
            "kernels.lse_s": lse_s,
            "kernels.lse_us_per_call": _ratio(lse_s * 1e6, lse_calls),
            "kernels.lse_entries": c["lse_entries"],
            "kernels.lse_ns_per_entry": _ratio(lse_s * 1e9, c["lse_entries"]),
            "kernels.lse_bytes_computed": c["lse_bytes"],
            "kernels.apply_calls": self.calls("kernels", "apply_semigroup"),
            "kernels.self_s": self.self_s("kernels"),
            "schrodinger.solve_calls": solve_calls,
            "schrodinger.solve_s": solve_s,
            "schrodinger.nonconverged": c["nonconverged"],
            "schrodinger.iters": sum(iters),
            "schrodinger.iters_per_solve_p50": (statistics.median(iters)
                                                if iters else 0),
            "schrodinger.iters_per_solve_max": max(iters, default=0),
            "schrodinger.us_per_iter": _ratio(solve_s * 1e6, sum(iters)),
            "schrodinger.eot_calls": self.calls("schrodinger",
                                                "eot_quadratic_direct"),
            "schrodinger.eot_s": self.incl("schrodinger",
                                           "eot_quadratic_direct"),
            "schrodinger.eot_iters": c["eot_iters"],
            "schrodinger.log_plan_calls": self.calls("schrodinger",
                                                     "log_plan"),
            "schrodinger.plan_bytes_computed": c["plan_bytes"],
            "schrodinger.plan_entropy_s": self.group_s["plan_entropy"],
            "schrodinger.self_s": self.self_s("schrodinger"),
            "sobolev.hm1_calls": hm1_calls,
            "sobolev.hm1_s": hm1_s,
            "sobolev.hm1_ms_per_call": _ratio(hm1_s * 1e3, hm1_calls),
            "sobolev.w2_s": self.group_s["w2"],
            "sobolev.self_s": self.self_s("sobolev"),
            "diagnostics.check_calls": sum(self.calls("diagnostics", n)
                                           for n in _CHECKS),
            "diagnostics.self_s": self.self_s("diagnostics"),
            "dynamics.calls": self.calls("dynamics"),
            "dynamics.self_s": self.self_s("dynamics"),
            "measures.calls": self.calls("measures"),
            "measures.s": self.group_s["layer:measures"],
            "cli.self_s": self.self_s("cli"),
        }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0
