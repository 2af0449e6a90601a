"""Traced run: spans around teichkit's public functions, from the outside.

`Tracer.install` replaces every public function, and every public method
and ``__init__`` of every public class, defined in the layer modules with a
wrapper.  A function imported by name into another module (``transport``
lives in snakes, surface and cli) is replaced in each namespace that holds
it.  teichkit itself is not edited.

While an op runs, each wrapped call records a span (name, start, end,
parent, op id).  Hot leaf functions (LEAVES) keep aggregated counters
instead, and calls made inside them are not traced.  A span's self time is
its duration minus the time covered by its child spans and leaf calls.  Work
the tracer does for itself inside an op (bit lengths, transport keys) is
charged to ``bench``, as is harness time outside any layer.
"""

import functools
import importlib
import inspect
import json
import time
from fractions import Fraction

LAYERS = (
    "linalg", "snakes", "surface", "flags", "fatgraph", "laurent",
    "confluence", "halfplane", "scene", "encode", "cli",
)

# Short metric names for a few methods; of the dunders only these are traced.
ALIASES = {
    "laurent.LaurentPoly.__mul__": "laurent.mul",
    "laurent.LaurentPoly.__rmul__": "laurent.mul",
    "fatgraph.FatGraph.holonomy": "fatgraph.holonomy",
    "scene.Scene.from_json": "scene.from_json",
}

# Called thousands of times per op: counted, not spanned.  det and adjugate
# recurse through det; as leaves only their outermost call counts.
LEAVES = {
    "linalg.mat_mul", "linalg.det", "linalg.adjugate", "laurent.mul",
    "encode.scalar_from_json", "encode.scalar_to_json",
}

# Functions whose results get their largest numerator/denominator bit length.
BITS = {"snakes.transport", "linalg.mat_mul", "fatgraph.holonomy"}

OP_SPAN = "bench.op"


def out_bits(x):
    """Largest numerator or denominator bit length in a (nested) result."""
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, (tuple, list)):
        return max((out_bits(y) for y in x), default=0)
    entries = getattr(x, "entries", None)
    if callable(entries):
        return out_bits(entries())
    return 0


def _transport_key(args):
    n, which, assignment = args
    return n, which, frozenset(assignment.values.items())


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, leaf/bench child s]
        self.stack = []  # indices of open spans
        self.leaf_depth = 0
        self.leaf = {}  # name -> [calls, seconds]
        self.bits = {}  # name -> largest out_bits
        self.falses = {}  # name -> calls that returned False
        self.transport_keys = set()
        self.overhead_s = 0.0
        self.op_id = None

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id
        self.stack.append(self._open(OP_SPAN, -1))

    def end_op(self):
        self._close(self.stack.pop())
        self.op_id = None

    def _open(self, name, parent):
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, 0.0])
        idx = len(self.spans) - 1
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()

    def _after(self, name, args, out, parent):
        """Tracer bookkeeping on a result, charged to bench, not to the parent."""
        t0 = time.perf_counter()
        if name in BITS:
            self.bits[name] = max(self.bits.get(name, 0), out_bits(out))
        if name == "snakes.transport":
            self.transport_keys.add(_transport_key(args))
        dt = time.perf_counter() - t0
        self.spans[parent][5] += dt
        self.overhead_s += dt

    def wrap(self, name, fn):
        tracer = self
        if name in LEAVES:
            stats = self.leaf.setdefault(name, [0, 0.0])

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if tracer.op_id is None or tracer.leaf_depth:
                    return fn(*args, **kwargs)
                tracer.leaf_depth += 1
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    tracer.leaf_depth -= 1
                    parent = tracer.stack[-1]
                    tracer.spans[parent][5] += dt
                    stats[0] += 1
                    stats[1] += dt
                if name in BITS:
                    tracer._after(name, args, out, parent)
                return out

            return leaf

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.op_id is None or tracer.leaf_depth:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            idx = tracer._open(name, parent)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.stack.pop()
            if out is False:
                tracer.falses[name] = tracer.falses.get(name, 0) + 1
            if name in BITS:
                tracer._after(name, args, out, parent)
            return out

        return span

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the layers' public names in place, in every namespace holding them."""
        modules = [importlib.import_module(f"teichkit.{m}") for m in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj, wrapped)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _install_methods(self, layer, cls, wrapped):
        for attr, obj in list(vars(cls).items()):
            qual = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__":
                qual = f"{layer}.{cls.__name__}"
            elif attr.startswith("_") and qual not in ALIASES:
                continue
            kind = type(obj)
            fn = obj.__func__ if kind in (classmethod, staticmethod) else obj
            if not inspect.isfunction(fn):
                continue
            if fn not in wrapped:
                wrapped[fn] = self.wrap(ALIASES.get(qual, qual), fn)
            new = wrapped[fn]
            setattr(cls, attr, kind(new) if kind in (classmethod, staticmethod) else new)

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines after one header line of counters."""
        header = {
            "leaf": self.leaf, "bits": self.bits, "falses": self.falses,
            "overhead_s": self.overhead_s,
        }
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans):
    """Self seconds per span: duration minus child spans and extra child time.

    `spans` rows are (name, start, end, parent index or -1, op id, extra s),
    where extra is time of children that are not spans (leaf calls, tracer
    bookkeeping).
    """
    covered = [s[5] for s in spans]
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_of(name):
    return name.split(".", 1)[0]


def per_layer(tracer):
    """Aggregate the traced run into `<layer>.<function>.<stat>` metrics.

    Returns (metrics, traced op seconds, accounted seconds); the last two
    agree when every microsecond of op time is charged to exactly one layer
    or to bench.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s = {}, {}
    for s, t in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
    for name, (n, t) in tracer.leaf.items():
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + t
    op_s = sum(s[2] - s[1] for s in spans if s[0] == OP_SPAN)

    layer_s = dict.fromkeys(LAYERS, 0.0)
    bench_s = tracer.overhead_s
    for name, t in self_s.items():
        if name == OP_SPAN:
            bench_s += t
        else:
            layer_s[layer_of(name)] += t
    metrics = {f"{layer}.self_s": t for layer, t in layer_s.items()}
    metrics["bench.self_s"] = bench_s
    for name, t in self_s.items():
        if name != OP_SPAN:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = t
    for name, b in tracer.bits.items():
        metrics[f"{name}.out_bits_max"] = b
    gp = "flags.general_position"
    metrics[f"{gp}.reject_ratio"] = tracer.falses.get(gp, 0) / calls.get(gp, 1)
    tr = "snakes.transport"
    metrics[f"{tr}.distinct_ratio"] = len(tracer.transport_keys) / calls.get(tr, 1)
    accounted = sum(layer_s.values()) + bench_s
    return metrics, op_s, accounted
