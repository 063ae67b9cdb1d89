"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the fglap layer modules (each
module's ``__all__``) and rebinds every module attribute that refers to the
original, so a call is traced wherever its caller looks the name up.
``YoungFunction.__call__``, ``.g`` and ``.slope_odd`` are patched on the
class.  Private helpers (``_subdifferential_residual``, ``_newton_polish``,
``_modular_scale``, ``crease_direction``...) are never wrapped: their cost is
self time of the public function that calls them.

Each wrapped call becomes a span (name, operation, parent, start, end) kept
in memory until the run ends.  Very frequent calls are folded into
per-parent aggregates.  A layer's self time is the duration of its calls
minus the time of the wrapped calls they make, with the tracer's own
bookkeeping excluded from both.

Limitation: code that calls a growth function's ``evaluate`` field directly
(``operator._energy_scaled`` does) bypasses the class methods, so that time
counts as self time of the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("young", "operator", "solver", "verify", "cli")

# calls made thousands of times per operation: aggregated per parent span
FOLDED = {
    "young.G",
    "young.g",
    "young.slope_odd",
    "young.inverse",
    "operator.apply_operator",
    "operator.energy",
    "operator.get_kernel",
}

_MIB = 1024.0 * 1024.0


# amount of work a call does, for the ``*.elems`` and ``*.pairs`` counts
def _elems(args, kwargs):
    return int(np.size(args[1]))


def _ordered_pairs(args, kwargs):
    n = args[0].grid.node_count
    return n * (n - 1)


def _unordered_pairs(args, kwargs):
    n = args[0].grid.node_count
    return n * (n - 1) // 2


WORK = {
    "young.G": _elems,
    "young.g": _elems,
    "young.slope_odd": _elems,
    "young.inverse": _elems,
    "operator.apply_operator": _ordered_pairs,
    "operator.energy": _unordered_pairs,
}


def kernel_nbytes(kern) -> int:
    """Computed bytes of the arrays a kernel object holds (not measured RSS)."""
    total = 0
    for value in vars(kern).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


class Tracer:
    def __init__(self):
        self.spans = []  # (id, operation, name, parent id, start, end)
        self.folded = {}  # (operation, parent id, name) -> [calls, seconds]
        self.operation = 0
        self._stack = []  # frames: [span id, child seconds]
        self._depth = Counter()  # active calls per name
        self.calls = Counter()
        self.seconds = Counter()  # calls not nested in a call of the same name
        self.work = Counter()
        self.self_s = Counter()
        self.solve_keys = set()
        self.counts = Counter()  # solver and kernel counters
        self.kernels = {}  # id -> computed bytes of every kernel returned
        self.kernel_build_s = 0.0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        import fglap.cli
        import fglap.verify
        from fglap.young import YoungFunction

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "fglap"]
        for layer in LAYERS:
            mod = sys.modules[f"fglap.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapper)
        for method, name in (("__call__", "G"), ("g", "g"), ("slope_odd", "slope_odd")):
            fn = vars(YoungFunction)[method]
            self._patch(YoungFunction, method, self._wrap(f"young.{name}", fn))

    def uninstall(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def _patch(self, obj, key, value):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def begin_operation(self):
        """Start a new operation: spans share its id, repeats reset."""
        self.operation += 1
        self.solve_keys.clear()

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        work = WORK.get(name)
        hooks = {
            "solver.solve_eigen": self._solve_eigen_hooks,
            "operator.get_kernel": self._get_kernel_hooks,
        }.get(name)
        before, after = hooks(fn) if hooks else (None, None)
        folded = name in FOLDED
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else None
            span_id = parent_id if folded else len(self.spans)
            if not folded:
                self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            token = before(args, kwargs) if before else None
            start = perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error, result = exc, None
            end = perf_counter()
            depth[name] -= 1
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            if outer:
                self.seconds[name] += duration
            if work:
                self.work[name] += work(args, kwargs)
            self.self_s[layer] += duration - frame[1]
            if after:
                after(token, result, error, duration)
            if folded:
                agg = self.folded.setdefault((self.operation, parent_id, name), [0, 0.0])
                agg[0] += 1
                agg[1] += duration
            else:
                self.spans[span_id] = (span_id, self.operation, name, parent_id, start, end)
            if parent:
                parent[1] += perf_counter() - entered
            if error is not None:
                raise error
            return result

        return wrapper

    # -- hooks for the solver and kernel counters --------------------------

    def _solve_eigen_hooks(self, fn):
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            yf, opts = a["yf"], a["opts"]
            key = (a["grid"].key, yf.label, yf.p_minus, yf.p_plus,
                   a["params"].s, a["mu"], opts.tol)
            if key in self.solve_keys:
                self.counts["repeat_calls"] += 1
            self.solve_keys.add(key)
            return opts.tol, self.calls["operator.apply_operator"]

        def after(token, result, error, duration):
            tol, applies_before = token
            if error is not None or not result.residual <= tol:
                self.counts["failed"] += 1
                return
            self.counts["iterations"] += result.iterations
            self.counts["converged_applies"] += (
                self.calls["operator.apply_operator"] - applies_before
            )

        return before, after

    def _get_kernel_hooks(self, fn):
        # a kernel object not returned before was built by this call; the
        # tracer is installed before the first get_kernel of the process
        def after(token, result, error, duration):
            if error is None and id(result) not in self.kernels:
                self.kernels[id(result)] = kernel_nbytes(result)
                self.counts["kernel_builds"] += 1
                self.kernel_build_s += duration

        return None, after

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values accumulated so far, by metric name."""
        c, s, w = self.calls, self.seconds, self.work
        iters = self.counts["iterations"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "solver.solve_eigen.calls": c["solver.solve_eigen"],
            "solver.solve_eigen.s": s["solver.solve_eigen"],
            "solver.solve_eigen.iterations": iters,
            "solver.solve_eigen.operator_calls_per_iter":
                self.counts["converged_applies"] / iters if iters else 0.0,
            "solver.solve_eigen.repeat_calls": self.counts["repeat_calls"],
            "solver.solve_eigen.failed": self.counts["failed"],
            "solver.solve_semilinear.calls": c["solver.solve_semilinear"],
            "solver.solve_semilinear.s": s["solver.solve_semilinear"],
            "solver.degiorgi_trace.s": s["solver.degiorgi_trace"],
            "operator.kernel_mib": sum(self.kernels.values()) / _MIB,
            "operator.get_kernel.calls": c["operator.get_kernel"],
            "operator.get_kernel.builds": self.counts["kernel_builds"],
            "operator.kernel_build_s": self.kernel_build_s,
            "young.embedding_composition.s": s["young.embedding_composition"],
        })
        for name in ("operator.apply_operator", "operator.energy"):
            out.update({f"{name}.calls": c[name], f"{name}.s": s[name],
                        f"{name}.pairs": w[name]})
        for name in ("operator.gagliardo_seminorm", "young.sobolev_conjugate",
                     "young.luxemburg_norm"):
            out.update({f"{name}.calls": c[name], f"{name}.s": s[name]})
        for name in ("young.inverse", "young.G", "young.g", "young.slope_odd"):
            out.update({f"{name}.elems": w[name], f"{name}.s": s[name]})
        out.update({"cli.run_command.s": s["cli.run_command"],
                    "verify.run_verify.s": s["verify.run_verify"]})
        return out

    def dump(self) -> dict:
        """Every span and folded aggregate, for writing out at the end."""
        return {
            "spans": [
                {"id": i, "operation": op, "name": n, "parent": p,
                 "start": a, "end": b}
                for i, op, n, p, a, b in self.spans
            ],
            "folded": [
                {"operation": op, "parent": p, "name": n, "calls": k, "seconds": t}
                for (op, p, n), (k, t) in self.folded.items()
            ],
        }
