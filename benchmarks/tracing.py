"""Span tracing of the degamma layers, applied from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records one span per call: name, start, end, parent span and the
benchmark's current op id.  Replacing the module attribute also catches calls
made inside a module through the bare name (``core.degenerate_gamma`` calling
``nearest_pole``) and cross-module calls made through the module
(``core`` calling ``classical.log_gamma``).  Names a module bound with
``from ... import`` (``representations`` imports ``nearest_pole`` that way)
keep pointing at the original function, so their cost lands in the caller's
self time.

Spans live in flat arrays while the run lasts and are written out once, at
the end.  No layer has a queue or a second thread, so nothing here measures
waiting: a span's self time is all the busy time the layer spent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

# The package's modules in call order from the kernel outward.  ``errors``
# holds only exception classes and has nothing to wrap.
LAYERS = ("classical", "core", "representations", "quadrature", "verify", "cli")

PRODUCT_FUNCTIONS = (
    "weierstrass_gamma",
    "euler_limit_gamma",
    "degenerate_beta_product",
    "sine_product",
)
# The traced loop stops at the end of the first pass that reaches this many
# spans, which bounds the memory and the size of the span dump.
SPAN_BUDGET = 500_000

QUADRATURE_ENTRY_POINTS = (
    "direct_integral_gamma",
    "hankel_gamma",
    "hankel_gamma_reflected",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self.error = array("b")
        self.op_id = -1
        self.product_terms = 0
        self.quadrature_nodes = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._default_terms = 0

    def full(self) -> bool:
        return len(self.start) >= SPAN_BUDGET

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1,
                 op: int = -1, error: bool = False) -> int:
        """Append a finished span; used by tests to build synthetic trees."""
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        self.error.append(1 if error else 0)
        return len(self.start) - 1

    def wrap(self, name: str, fn):
        """A wrapper that records a span named ``name`` around each call of fn."""
        nid = self.intern(name)
        stack = self._stack
        clock = time.perf_counter
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, ops, errors = self.parent, self.op, self.error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            errors.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[idx] = 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _counting(self, layer: str, attr: str, fn):
        """Wrap fn so that the work it is handed is counted before the span."""
        traced = self.wrap(f"{layer}.{attr}", fn)
        if layer == "quadrature" and attr == "de_quadrature":
            def de_quadrature(f, *args, **kwargs):
                def counted(x, one_minus_x):
                    self.quadrature_nodes += len(x)
                    return f(x, one_minus_x)
                return traced(counted, *args, **kwargs)
            return functools.wraps(fn)(de_quadrature)
        if layer == "representations" and attr in PRODUCT_FUNCTIONS:
            signature = inspect.signature(fn)

            def product(*args, **kwargs):
                self.product_terms += _terms(
                    attr, signature.bind(*args, **kwargs), self._default_terms
                )
                return traced(*args, **kwargs)
            return functools.wraps(fn)(product)
        return traced

    def install(self, package) -> None:
        """Replace each layer's public functions by traced wrappers."""
        # product functions given no spec fall back to ProductSpec()
        self._default_terms = package.representations.ProductSpec().n_terms
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._counting(layer, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def write(self, path) -> None:
        """Write every span to a numpy ``.npz`` file, after the run."""
        np.savez(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            error=np.asarray(self.error),
        )


def _terms(attr: str, bound: inspect.BoundArguments, default_terms: int) -> int:
    """Product terms requested by one call, from the spec or count passed in."""
    if attr == "sine_product":
        return int(bound.arguments["n_terms"])
    spec = bound.arguments.get("spec")
    return default_terms if spec is None else int(spec.n_terms)


def self_times(tracer: Tracer) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Spans on one thread nest, so children of a span never overlap each other
    and the covered time is their summed duration.
    """
    own = np.asarray(tracer.end, dtype=float) - np.asarray(tracer.start, dtype=float)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    covered = np.zeros_like(own)
    child = parent >= 0
    np.add.at(covered, parent[child], own[child])
    return own - covered


def layer_metrics(tracer: Tracer, ops: int, rows: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``ops`` completed ops.

    ``rows`` is the number of table rows the ops emitted (0 outside
    table-sweep).  Calls and errors are per op; ``self_us``/``self_ms``/
    ``self_s`` are mean self time per call of that function; ``self_share``
    is the layer's share of the summed time of the top-level spans.
    """
    selfs = self_times(tracer)
    name_id = np.asarray(tracer.name_id, dtype=np.int64)
    n = len(tracer.names)
    calls = dict(zip(tracer.names, np.bincount(name_id, minlength=n).tolist()))
    self_by_name = dict(zip(tracer.names, np.bincount(name_id, selfs, n).tolist()))
    errors_by_name = np.bincount(name_id, np.asarray(tracer.error, dtype=float), n)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    errors_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, errors in zip(tracer.names, errors_by_name.tolist()):
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += self_by_name[name]
        errors_by_layer[layer] += errors
    own = np.asarray(tracer.end, dtype=float) - np.asarray(tracer.start, dtype=float)
    total = float(own[np.asarray(tracer.parent) < 0].sum())

    def per_op(count: float) -> float:
        return count / ops if ops else 0.0

    def per_call(name: str, scale: float) -> float:
        n = calls.get(name, 0)
        return scale * self_by_name.get(name, 0.0) / n if n else 0.0

    def share(layer: str) -> float:
        return self_by_layer[layer] / total if total else 0.0

    m: dict[str, float] = {}
    m["classical.log_gamma.calls_per_op"] = per_op(calls.get("classical.log_gamma", 0))
    m["classical.log_gamma.self_us"] = per_call("classical.log_gamma", 1e6)
    m["classical.self_share"] = share("classical")
    m["core.degenerate_gamma.calls_per_op"] = per_op(calls.get("core.degenerate_gamma", 0))
    m["core.degenerate_gamma.self_us"] = per_call("core.degenerate_gamma", 1e6)
    m["core.degenerate_beta.self_us"] = per_call("core.degenerate_beta", 1e6)
    m["core.self_share"] = share("core")
    m["core.errors_per_op"] = per_op(errors_by_layer["core"])
    m["cli.self_us_per_row"] = 1e6 * self_by_layer["cli"] / rows if rows else 0.0
    m["cli.self_share"] = share("cli")
    for fn in PRODUCT_FUNCTIONS:
        m[f"representations.{fn}.calls_per_op"] = per_op(calls.get(f"representations.{fn}", 0))
        m[f"representations.{fn}.self_ms"] = per_call(f"representations.{fn}", 1e3)
    m["representations.ns_per_term"] = (
        1e9 * self_by_layer["representations"] / tracer.product_terms
        if tracer.product_terms else 0.0
    )
    m["representations.self_share"] = share("representations")
    m["quadrature.de_quadrature.calls_per_op"] = per_op(calls.get("quadrature.de_quadrature", 0))
    m["quadrature.nodes_per_op"] = per_op(tracer.quadrature_nodes)
    for fn in QUADRATURE_ENTRY_POINTS:
        m[f"quadrature.{fn}.self_us"] = per_call(f"quadrature.{fn}", 1e6)
    m["quadrature.self_share"] = share("quadrature")
    m["verify.run_identity_suite.self_s"] = per_call("verify.run_identity_suite", 1.0)
    m["verify.self_share"] = share("verify")
    return m
