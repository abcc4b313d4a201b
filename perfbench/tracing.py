"""Traced runs: time every call into the public functions of each tricomi
layer, from outside the package.

`Tracer.install` replaces each public function on every name a caller looks
it up by: the defining module, the package namespace, and each module that
bound it with `from ... import` (`eigensolver.area_l2_norm_sq`,
`cli.verify_star_shaped`) or calls it through its own globals
(`pohozaev.line_integral` inside `pohozaev`).  `restore` puts the originals
back.  A layer's self time is the time in its calls minus the time of the
traced calls they make into any layer; the `cli` layer is the remainder of
the operation's wall time.

The tracer keeps one call stack, so it assumes one operation in flight, as
the benchmark's closed loop guarantees.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from checks import IDENTITY_TOL

# Prefix of the stderr line on which a traced CLI process reports its trace.
TRACE_MARKER = "perfbench-trace "
LAYERS = ("geometry", "constants", "verifier", "pohozaev", "eigensolver")
# Public methods traced besides module-level functions: (layer, class, name).
METHODS = (("eigensolver", "Grid", "build"),
           ("geometry", "TricomiDomain", "membership_slack"))


def new_summary() -> dict:
    """Sums over traced operations; summaries of several runs add up."""
    return {"calls": defaultdict(int), "incl": defaultdict(float),
            "self": defaultdict(float), "assembles": 0, "unknowns": 0, "nnz": 0,
            "real_positive": 0, "requested": 0, "identity_rejected": 0,
            "lu_n": 0, "lu_s": 0.0, "lu_fill": 0.0}


def merge(into: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, dict):
            for k, v in value.items():
                into[key][k] += v
        else:
            into[key] += value


class Tracer:
    def __init__(self):
        self.summary = new_summary()
        self.operator = None     # last assembled operator, for lu_probe
        self._stack = []         # traced-child time of each open call
        self._patches = []       # (namespace, name, original)

    def _wrap(self, key, layer, fn, on_result=None):
        stack, summary = self._stack, self.summary
        calls, incl, self_s = summary["calls"], summary["incl"], summary["self"]

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                calls[key] += 1
                incl[key] += elapsed
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("tricomi.cli")
        hooks = {"eigensolver.assemble": self._on_assemble,
                 "eigensolver.solve_real_spectrum": self._on_solve,
                 "pohozaev.pohozaev_residual": self._on_identity}
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tricomi.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    key = f"{layer}.{name}"
                    replacement[fn] = self._wrap(key, layer, fn, hooks.get(key))
        for namespace in _tricomi_modules():
            for name, value in list(vars(namespace).items()):
                wrapper = replacement.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patch(namespace, name, wrapper)
        for layer, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(f"tricomi.{layer}"), cls_name)
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(f"{layer}.{cls_name}.{name}", layer,
                                                 original.__func__))
            else:
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
            self._patch(cls, name, wrapper)

    def _patch(self, namespace, name, wrapper) -> None:
        self._patches.append((namespace, name, vars(namespace)[name]))
        setattr(namespace, name, wrapper)

    def restore(self) -> None:
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches.clear()

    # -- values read from traced results ----------------------------------

    def _on_assemble(self, op, *args, **kwargs):
        s = self.summary
        s["assembles"] += 1
        s["unknowns"] += op.n
        s["nnz"] += op.matrix.nnz
        self.operator = op

    def _on_solve(self, result, op, count, *args, **kwargs):
        pairs, _ = result
        self.summary["real_positive"] += sum(1 for p in pairs if p.lam > 0)
        self.summary["requested"] += min(count, op.n - 2)

    def _on_identity(self, result, *args, **kwargs):
        if not result["relative_residual"] <= IDENTITY_TOL:
            self.summary["identity_rejected"] += 1

    def lu_probe(self) -> None:
        """Factor the last assembled operator as the shift-invert solve does
        (splu of A - sigma I in CSC), outside any timed operation."""
        if self.operator is None:
            return
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        from tricomi.eigensolver import solve_real_spectrum

        shift = inspect.signature(solve_real_spectrum).parameters["shift"].default
        A = self.operator.matrix.astype(float)
        self.operator = None
        shifted = (A - shift * sp.identity(A.shape[0], format="csr")).tocsc()
        start = perf_counter()
        lu = splu(shifted)
        elapsed = perf_counter() - start
        s = self.summary
        s["lu_n"] += 1
        s["lu_s"] += elapsed
        s["lu_fill"] += (lu.L.nnz + lu.U.nnz) / A.nnz


def _tricomi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tricomi" or name.startswith("tricomi."))]
