"""Layer tracing of maclane from outside the library.

`Tracer.install` wraps the public functions and methods (operators included)
of every module in `LAYERS`, and rebinds each wrapped function wherever a
module imported it by name, e.g. `q_expansion` in `chains` and `newton`.

* A span is recorded only when a call crosses into a layer: its caller is
  another layer or the benchmark.  Calls inside one layer stay in the
  enclosing span.  A layer's self time is the time of its spans minus the
  time of their child spans, and `<layer>.calls` counts its spans.
* The named counters in `COUNTERS` count every call of one function,
  whichever layer made it.
* Spans stay in memory and `write_spans` writes them once, at exit.

A function that returns a generator is timed up to the return only; the
work done while iterating counts toward the layer that iterates.
"""

from __future__ import annotations

import enum
import gzip
import importlib
import inspect
import itertools
import json
import time
from array import array

LAYERS = ("fppoly", "ffield", "base", "poly", "chains", "newton", "approach",
          "artin_schreier", "cli")

# underscore names that are public API all the same
DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__divmod__",
    "__floordiv__", "__mod__", "__eq__", "__call__", "__str__",
))

ELEM_OPS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
))

COUNTERS = {
    "poly.q_expansion": "poly.q_expansion_calls",
    "poly.Polynomial.__divmod__": "poly.divmod_calls",
    "chains.MacLaneChain.valuate": "chains.valuate_calls",
    "chains.MacLaneChain.truncate": "chains.truncate_calls",
    "chains.MacLaneChain.reduce": "chains.reduce_calls",
    "chains.MacLaneChain.lift_residual": "chains.lift_calls",
    "chains.MacLaneChain.augment": "chains.augment_calls",
    "chains.MacLaneChain.is_key_polynomial": "chains.key_tests",
    "newton.newton_polygon": "newton.polygon_calls",
    "approach.graded_factorization": "approach.factorization_calls",
    "approach.AugmentationTree.add_node": "approach.nodes",
    "base.BaseField.__eq__": "base.field_eq_calls",
    "fppoly.gcd": "fppoly.gcd_calls",
    "ffield.ff_factor": "ffield.factor_calls",
    "ffield.is_irreducible": "ffield.irreducible_tests",
    "artin_schreier.improve_witness": "artin_schreier.improvements",
}
COUNTERS.update({f"base.BaseElem.{name}": "base.elem_ops" for name in ELEM_OPS})


def _expansion_key(f, q):
    """Identity of an (f, key) pair for the distinct-expansion count."""
    return (f.field.kind, f.field.p,
            tuple(c.payload for c in f.coeffs), tuple(c.payload for c in q.coeffs))


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS.values(), 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.names = []
        # one row per span, filled when the span ends
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._ids = itertools.count()
        self._stack = [[None, -1, 0.0]]     # [layer, span id, child time]; root = benchmark
        self._op = [0]
        self._expansions = set()
        self.distinct_expansions = 0

    # -- operations ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.distinct_expansions += len(self._expansions)
        self._expansions.clear()
        self._op[0] = op_id

    def finish(self) -> None:
        self.begin_op(-1)

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        counter = COUNTERS.get(qualname)
        counts, calls, self_s = self.counts, self.calls, self.self_s
        stack, ids, op = self._stack, self._ids, self._op
        clock = time.perf_counter
        rows = (self.span_id.append, self.span_name.append, self.span_start.append,
                self.span_end.append, self.span_parent.append, self.span_op.append)
        name_idx = len(self.names)
        self.names.append(qualname)
        expansions = self._expansions if qualname == "poly.q_expansion" else None

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if expansions is not None:
                expansions.add(_expansion_key(*args[:2]))
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            frame = [layer, next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[2]
                parent[2] += dur
                add_id, add_name, add_start, add_end, add_parent, add_op = rows
                add_id(frame[1])
                add_name(name_idx)
                add_start(start)
                add_end(end)
                add_parent(parent[1])
                add_op(op[0])

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer of the imported maclane package, once."""
        package = importlib.import_module("maclane")
        modules = {layer: importlib.import_module(f"maclane.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, layer)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self._wrap(member.__func__, layer, qualname)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, layer, qualname))

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times, keyed by metric name."""
        out = dict(self.counts)
        calls = out["poly.q_expansion_calls"]
        out["poly.q_expansion_distinct"] = self.distinct_expansions
        out["poly.q_expansion_useful_ratio"] = self.distinct_expansions / calls if calls else 1.0
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped JSON lines: a header naming the fields,
        then one array per span.  Times are nanoseconds since the first span
        started; parent -1 is the benchmark."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        t0 = min(self.span_start, default=0.0)
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for i in order:
                fh.write(f"[{self.span_id[i]},{names[self.span_name[i]]},"
                         f"{round((self.span_start[i] - t0) * 1e9)},{round((self.span_end[i] - t0) * 1e9)},"
                         f"{self.span_parent[i]},{self.span_op[i]}]\n")
        return len(order)
