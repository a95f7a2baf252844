"""Span tracing of crsing's layers, installed from the benchmark's side.

A layer is one module of ``src/crsing``.  ``Tracer.install`` replaces every
public function of each layer module, and the public methods of its
classes, with a wrapper that records a span (id, parent id, name, start,
end) and the layer's self time: the span's duration minus the time its
child spans cover.  Names imported into other crsing modules with
``from .x import f`` are replaced as well, so internal calls are seen.

Scalar arithmetic (``GaussRational``, ``Monomial``, ``as_gauss``,
``parse_var``) is left unwrapped: it runs millions of times per second,
and its cost belongs to the self time of the layer that calls it.

Layer-specific counters are read at the same boundaries:

- ``linalg.*`` from the rows going into and out of ``rref_sparse``,
- ``extend.cr_matrix_builds`` from ``cr_equation_matrix``,
- ``extend.matching_solves`` from solves called by ``extend_homogeneous``,
- ``algebra.poly_mul_calls`` and ``algebra.substitute_w_s`` from ``Poly``,
- ``formal.steps`` from ``extend_homogeneous`` under ``formal_extend``,
- ``odecrit.brute_force_calls`` from ``brute_force_ode``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = (
    "linalg",
    "extend",
    "algebra",
    "manifold",
    "formal",
    "classify",
    "odecrit",
    "polyio",
    "cli",
)

COUNTERS = (
    "linalg.eliminations",
    "linalg.pivots",
    "linalg.nnz_in",
    "linalg.nnz_out",
    "linalg.coeff_bits_max",
    "extend.cr_matrix_builds",
    "extend.matching_solves",
    "algebra.poly_mul_calls",
    "algebra.substitute_w_s",
    "formal.steps",
    "odecrit.brute_force_calls",
)

# spans kept and written to a trace file; the totals cover every span
SPAN_LIMIT = 200000
# scalar helpers whose cost stays with the caller
_SKIP_CLASSES = {"algebra.GaussRational", "algebra.Monomial"}
_SKIP_FUNCTIONS = {"algebra.as_gauss", "algebra.parse_var"}
# operators of Poly that do polynomial work
_POLY_DUNDERS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
)


def metric_names():
    names = []
    for layer in LAYERS:
        names += ["%s.self_s" % layer, "%s.calls" % layer]
    return names + list(COUNTERS)


def _coeff_bits(rows):
    best = 0
    for row in rows:
        for c in row.values():
            for part in (c.re, c.im):
                best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    """Records spans and per-layer totals while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # (id, parent, name, start, end), the first SPAN_LIMIT
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = []  # [span id, name, child seconds]
        self._next_id = 0
        self._formal_depth = 0

    # -- installing ----------------------------------------------------

    def install(self, package="crsing"):
        modules = {
            layer: importlib.import_module("%s.%s" % (package, layer)) for layer in LAYERS
        }
        everywhere = [importlib.import_module(package)] + [
            importlib.import_module("%s.%s" % (package, name))
            for name in LAYERS + ("verify",)
        ]
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                key = "%s.%s" % (layer, name)
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and key not in _SKIP_FUNCTIONS:
                    if not inspect.isgeneratorfunction(obj):
                        replaced[id(obj)] = (obj, self._wrap(layer, key, obj))
                elif inspect.isclass(obj) and key not in _SKIP_CLASSES:
                    self._wrap_methods(layer, key, obj)
        for mod in everywhere:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, layer, key, cls):
        for name, obj in list(vars(cls).items()):
            wanted = not name.startswith("_") or (
                key == "algebra.Poly" and name in _POLY_DUNDERS
            )
            if wanted and inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, name, self._wrap(layer, "%s.%s" % (key, name), obj))

    # -- recording -----------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        on_exit = _ON_EXIT.get(name.split(".", 1)[1].replace("Poly.__rmul__", "Poly.__mul__"))

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            formal = name == "formal.formal_extend"
            if formal:
                tracer._formal_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if formal:
                    tracer._formal_depth -= 1
                dur = end - start
                tracer.self_s[layer] += dur - frame[2]
                tracer.calls[layer] += 1
                if parent is not None:
                    parent[2] += dur
                if sid < SPAN_LIMIT:
                    tracer.spans.append(
                        (sid, parent[0] if parent is not None else None, name, start, end)
                    )
            if on_exit is not None:
                on_exit(tracer, args, result, dur, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- reporting -----------------------------------------------------

    def metrics(self, ops, speed):
        """Every per-layer metric, as a mean per operation; the bit size is
        a maximum over the run.  Times are multiplied by ``speed``, the
        run's reference-speed time over its raw time."""
        out = {}
        for layer in LAYERS:
            out["%s.self_s" % layer] = (self.self_s[layer] * speed / ops, "s")
            out["%s.calls" % layer] = (self.calls[layer] / ops, "count")
        for name in COUNTERS:
            value = self.counts[name]
            if name == "linalg.coeff_bits_max":
                out[name] = (value, "bits")
            elif name.endswith("_s"):
                out[name] = (value * speed / ops, "s")
            else:
                out[name] = (value / ops, "count")
        return out

    def write(self, path, ops, op_seconds):
        """Write the kept spans and the totals."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "operations": ops,
                    "op_seconds": op_seconds,
                    "span_fields": ["id", "parent", "name", "start", "end"],
                    "spans_recorded": self._next_id,
                    "spans": self.spans,
                    "self_s": self.self_s,
                    "calls": self.calls,
                    "counts": self.counts,
                },
                fh,
            )


def _rref_exit(tracer, args, result, dur, parent):
    rows, pivots = result
    c = tracer.counts
    c["linalg.eliminations"] += 1
    c["linalg.pivots"] += len(pivots)
    c["linalg.nnz_in"] += sum(len(r) for r in args[0])
    c["linalg.nnz_out"] += sum(len(r) for r in rows)
    c["linalg.coeff_bits_max"] = max(c["linalg.coeff_bits_max"], _coeff_bits(rows))


def _solve_exit(tracer, args, result, dur, parent):
    if parent is not None and parent[1] == "extend.extend_homogeneous":
        tracer.counts["extend.matching_solves"] += 1


def _extend_exit(tracer, args, result, dur, parent):
    if tracer._formal_depth:
        tracer.counts["formal.steps"] += 1


def _count(name):
    def on_exit(tracer, args, result, dur, parent):
        tracer.counts[name] += 1

    return on_exit


def _substitute_exit(tracer, args, result, dur, parent):
    tracer.counts["algebra.substitute_w_s"] += dur


_ON_EXIT = {
    "rref_sparse": _rref_exit,
    "solve_many_sparse": _solve_exit,
    "extend_homogeneous": _extend_exit,
    "cr_equation_matrix": _count("extend.cr_matrix_builds"),
    "Poly.__mul__": _count("algebra.poly_mul_calls"),
    "Poly.substitute_w": _substitute_exit,
    "brute_force_ode": _count("odecrit.brute_force_calls"),
}
