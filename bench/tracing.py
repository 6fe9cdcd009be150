"""Per-layer tracing of symgraph, installed from outside the package.

Each layer's public functions are wrapped at the module attributes through
which the other layers and the benchmark call them (``symgraph.wave.distance``,
``symgraph.spectral.sphere``, ``symgraph.checks.abel``, ...), not in their
home module, so a layer's calls to itself stay unwrapped.  ``AlgebraicValue``
and ``ReducedWord`` arithmetic are wrapped at class level.  Nothing under
``src/`` changes, and the wrappers are installed only while a traced request
runs.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the frames it encloses, and it is charged to the
frame's layer.  Hot leaves (``distance``, ring operations, each ``next`` of a
sphere or ball walk, word products) are counted and timed into their layer
but leave no span record; every other call leaves a span (name, layer,
start, end, parent span, request) kept in memory and written out at the end.

Work done inside ``VertexFun`` and ``RadialSeq`` methods is charged to the
calling layer: they are containers, not layers.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("algebraic", "words", "boundary", "transforms", "spectral", "wave", "checks", "cli")

# Counted and timed, but recorded as no span.  Value: the counter, or None.
_HOT = {
    ("words", "distance"): "words.distance.calls",
    ("words", "parse_word"): None,
    ("boundary", "busemann"): "boundary.busemann.calls",
    ("boundary", "sphere_horocycle_count"): "boundary.horocycle_count.calls",
    ("algebraic", "q_half_power"): "algebraic.ring_ops",
    ("algebraic", "sqrt_q"): "algebraic.ring_ops",
    ("algebraic", "parse_value"): None,
}
_COUNTED = {
    ("wave", "wave_direct"): "wave.direct.calls",
    ("wave", "wave_closed_at"): "wave.closed.calls",
    ("spectral", "phi_oracle"): "spectral.phi_oracle.calls",
}
# Wrapped in their home module too: only called from there (the quadrature),
# imported lazily inside a function (the horocycle counts, by ``cli``), or
# called by the benchmark through it (``cli.main``).
_HOME = {("spectral", "gauss_legendre_adaptive"), ("boundary", "sphere_horocycle_count"),
         ("cli", "main")}
_RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "inverse")


class Tracer:
    """Counters, per-layer self time and spans for the requests of one run."""

    def __init__(self, sg):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self._child: list[float] = []
        self._parents: list = []
        self._request = -1
        self._origin = perf_counter()
        self._patches: list = []
        self._plan(sg)

    # -- wrappers ----------------------------------------------------------------

    def _frame(self, fn, layer: str, counter: str | None, span: str | None, post=None):
        counts, self_s, child = self.counts, self.self_s, self._child
        parents, spans, inclusive = self._parents, self.spans, self.inclusive_s
        origin = self._origin

        def wrapped(*args, **kwargs):
            if counter:
                counts[counter] += 1
            child.append(0.0)
            if span:
                span_id = len(spans)
                spans.append(None)
                parents.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                self_s[layer] += elapsed - child.pop()
                child[-1] += elapsed
                if span:
                    parents.pop()
                    spans[span_id] = (span_id, parents[-1], self._request, span, layer,
                                      round((start - origin) * 1e6), round((end - origin) * 1e6))
                    inclusive[span] += elapsed
            if post is not None:
                post(result)
            return result

        return wrapped

    def _generator(self, fn, layer: str, counter: str | None):
        counts, self_s, child = self.counts, self.self_s, self._child

        def walk(iterator):
            while True:
                child.append(0.0)
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    self_s[layer] += elapsed - child.pop()
                    child[-1] += elapsed
                if counter:
                    counts[counter] += 1
                yield item

        def wrapped(*args, **kwargs):
            return walk(fn(*args, **kwargs))

        return wrapped

    def _counted(self, fn, counter: str):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _quadrature(self, fn, error_type):
        counts = self.counts

        def wrapped(integrand, *args, **kwargs):
            counts["spectral.quad.calls"] += 1

            def level(nodes):
                counts["spectral.quad.levels"] += 1
                counts["spectral.quad.nodes"] += len(nodes)
                return integrand(nodes)

            try:
                return fn(level, *args, **kwargs)
            except error_type:
                counts["spectral.quad.failures"] += 1
                raise

        return wrapped

    def _count_field_values(self, field) -> None:
        self.counts["wave.field_values"] += sum(len(f.data) for f in field.fields.values())

    # -- patch plan ----------------------------------------------------------------

    def _plan(self, sg) -> None:
        modules = {layer: getattr(sg, layer) for layer in LAYERS}
        namespaces = [sg, *modules.values()]
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn, sg)
                for ns in namespaces:
                    if ns is module and (layer, name) not in _HOME:
                        continue
                    if getattr(ns, name, None) is fn:
                        self._patches.append((ns, name, wrapper, fn, False))
        for suite, fn in list(sg.checks.SUITES.items()):
            wrapper = self._frame(fn, "checks", None, f"checks.{suite}")
            self._patches.append((sg.checks.SUITES, suite, wrapper, fn, True))
        value = sg.algebraic.AlgebraicValue
        for name in _RING_OPS:
            self._patch_class(value, name, self._frame(getattr(value, name), "algebraic",
                                                       "algebraic.ring_ops", None))
        for name in ("__eq__", "__float__", "__str__"):
            self._patch_class(value, name, self._frame(getattr(value, name), "algebraic", None, None))
        self._patch_class(value, "__init__",
                          self._counted(value.__init__, "algebraic.values_created"))
        word = sg.words.ReducedWord
        self._patch_class(word, "__mul__", self._frame(word.__mul__, "words", "words.products", None))
        self._patch_class(word, "__invert__", self._frame(word.__invert__, "words", None, None))

    def _patch_class(self, cls, name: str, wrapper) -> None:
        self._patches.append((cls, name, wrapper, cls.__dict__[name], False))

    def _wrap(self, layer: str, name: str, fn, sg):
        if inspect.isgeneratorfunction(fn):
            counter = "words.vertices_enumerated" if layer == "words" else None
            return self._generator(fn, layer, counter)
        if (layer, name) in _HOT:
            return self._frame(fn, layer, _HOT[layer, name], None)
        if name == "gauss_legendre_adaptive":
            fn = self._quadrature(fn, sg.spectral.QuadratureError)
        counter = "transforms.calls" if layer == "transforms" else _COUNTED.get((layer, name))
        post = self._count_field_values if name == "wave_direct" else None
        return self._frame(fn, layer, counter, f"{layer}.{name}", post)

    # -- installation ----------------------------------------------------------------

    @contextmanager
    def request(self, index: int):
        """Install the wrappers for one request, as its root frame."""
        self._request = index
        self._child.append(0.0)
        self._parents.append(None)
        for owner, name, wrapper, _, item in self._patches:
            if item:
                owner[name] = wrapper
            else:
                setattr(owner, name, wrapper)
        try:
            yield
        finally:
            for owner, name, _, original, item in reversed(self._patches):
                if item:
                    owner[name] = original
                else:
                    setattr(owner, name, original)
            self._child.pop()
            self._parents.pop()

    def write_spans(self, path) -> None:
        fields = ("id", "parent", "request", "name", "layer", "start_us", "end_us")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")
