"""In-memory span tracer that wraps the program's public functions.

The program is not edited.  Instead, `Tracer.install` replaces each
traced function at every module binding that holds it (the defining
module's own global, which intra-module calls go through, and every
`from ... import` copy in the other modules), so each call crosses a
wrapper no matter which module makes it.  `uninstall` puts the
originals back.

A span is (name, start, end, parent, op): parent is the index of the
enclosing span (-1 for none) and op the benchmark operation it belongs
to.  Spans stay in memory and are written out by `write_spans`.  A
layer's self time is its span time minus the time of its child spans;
calls are single-threaded, so children never overlap.

Besides spans, wrappers count work where it happens: circuits emitted,
2-separations yielded, budget nodes ticked inside a call, closure rounds
and added points.  `gf2.rank_bits` is too hot and too small for a span;
it gets a call counter only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span.  Calls and self time are
# recorded for all of them; `_extra` adds the per-function counters.
SPANNED = (
    ("theta3.cli", "main"),
    ("theta3.construct", "cycle_matroid"),
    ("theta3.construct", "complete_graph_mapping"),
    ("theta3.construct", "projective_mapping"),
    ("theta3.construct", "two_sum"),
    ("theta3.matroid", "circuits"),
    ("theta3.matroid", "connected_components"),
    ("theta3.theta", "is_theta3_closed"),
    ("theta3.theta", "theta3_closure"),
    ("theta3.decompose", "canonical_tree_decomposition"),
    ("theta3.decompose", "classify_theta3"),
)
# Generators: each next() is its own span, creation is only counted.
GENERATORS = (("theta3.matroid", "exact_two_separations"),)
COUNTED = (("theta3.gf2", "rank_bits"),)
# Every module whose globals may hold a binding of a traced function.
MODULES = (
    "theta3",
    "theta3.budget",
    "theta3.gf2",
    "theta3.matroid",
    "theta3.construct",
    "theta3.theta",
    "theta3.decompose",
    "theta3.cli",
)
LAYERS = ("cli", "construct", "matroid", "theta", "decompose")
COUNTERS = (
    "matroid.circuits.emitted",
    "matroid.exact_two_separations.yielded",
    "theta.is_theta3_closed.nodes",
    "theta.theta3_closure.nodes",
    "theta.theta3_closure.rounds",
    "theta.theta3_closure.added",
    "decompose.canonical_tree_decomposition.vertices",
    "decompose.classify_theta3.in_class",
    "gf2.rank_bits.calls",
    "budget.nodes",
)


def short_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._op_self: dict[str, float] = defaultdict(float)
        self.op = -1
        self.budget = None
        # open spans: [name, start, child seconds, span index]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- op boundaries -----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.budget = None

    def end_op(self, scale: float = 1.0) -> None:
        """Close the op; its self times are scaled by `scale` as they are added."""
        if self.budget is not None:
            self.counts["budget.nodes"] += self.budget.nodes
        self.budget = None
        for name, seconds in self._op_self.items():
            self.self_s[name] += seconds * scale
        self._op_self.clear()

    def _nodes(self) -> int:
        return self.budget.nodes if self.budget is not None else 0

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, index = frame
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self._op_self[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (name, start, end, self.spans[index][3], self.op)

    def _extra(self, name: str, result, nodes: int) -> None:
        """Per-function counters; result is None when the call raised."""
        c = self.counts
        if name in ("theta.is_theta3_closed", "theta.theta3_closure"):
            c[name + ".nodes"] += nodes
        if result is None:
            return
        if name == "matroid.circuits":
            c[name + ".emitted"] += len(result)
        elif name == "theta.theta3_closure":
            final, trace = result
            c[name + ".rounds"] += len(trace.rounds)
            c[name + ".added"] += final.size - trace.initial.size
        elif name == "decompose.canonical_tree_decomposition":
            c[name + ".vertices"] += len(result.vertices)
        elif name == "decompose.classify_theta3":
            c[name + ".in_class"] += bool(result.in_class)
        elif name == "construct.complete_graph_mapping":
            c[name + ".hits"] += result is not None

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer._nodes()
            frame = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
                tracer._extra(name, result, tracer._nodes() - before)
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".created"] += 1
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    frame = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    tracer.counts[name + ".yielded"] += 1
                    yield item

            return stepped()

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding, plus cli.Budget."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace: dict[int, object] = {}
        for group, make in (
            (SPANNED, self._span_wrapper),
            (GENERATORS, self._generator_wrapper),
            (COUNTED, self._counter_wrapper),
        ):
            for module, func in group:
                original = getattr(sys.modules[module], func)
                replace[id(original)] = make(short_name(module, func), original)
        for module in MODULES:
            mod = sys.modules[module]
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        # The CLI builds one Budget per invocation; keep a handle on it so
        # the wrappers can read its node count.
        cli = sys.modules["theta3.cli"]
        budget_cls = cli.Budget

        def make_budget(*args, **kwargs):
            self.budget = budget_cls(*args, **kwargs)
            return self.budget

        self._saved.append((cli, "Budget", budget_cls))
        cli.Budget = make_budget

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure, under the same names on every workload."""
        out: dict[str, float] = {}
        for module, func in SPANNED + GENERATORS:
            name = short_name(module, func)
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        gen = short_name(*GENERATORS[0])
        # a generator's spans are its next() steps; its calls are creations
        out[gen + ".calls"] = self.counts.get(gen + ".created", 0)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                s for n, s in self.self_s.items() if n.startswith(layer + ".")
            )
        cgm = "construct.complete_graph_mapping"
        calls = self.calls.get(cgm, 0)
        out[cgm + ".hit_frac"] = self.counts.get(cgm + ".hits", 0) / calls if calls else 0.0
        closure = "theta.theta3_closure"
        rounds = self.counts.get(closure + ".rounds", 0)
        added = self.counts.get(closure + ".added", 0)
        out[closure + ".added_per_round"] = added / rounds if rounds else 0.0
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
