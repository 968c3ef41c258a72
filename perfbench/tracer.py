"""Outside-in tracing: timing wrappers around parahiggs' public functions.

The wrappers live here, in the benchmark, not in the program.  `Tracer.install`
wraps every public module-level function of the listed modules plus a few
arithmetic methods, and rebinds each wrapped object wherever a parahiggs module
(or a module-level dict such as the CLI handler table) refers to it, so a call
is caught where it is made.  `Tracer.uninstall` puts every original back.

Each call records a span (id, name, start, end, parent id, op id); the first
MAX_SPANS spans are kept in memory for the span dump and later ones are only
counted.  Per-function statistics cover every call.  Self time is a span's
duration minus the durations of its child spans, which also holds for
recursion because every call is its own frame on the stack.  Size probes run
outside the span and their cost is removed from the parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

LAYERS = ("poly", "bipoly", "linalg", "groups", "higgs", "curves", "dimensions", "cli")

# Arithmetic methods that the per-layer metrics name; dunders are reported
# without underscores (RationalFunction.__truediv__ -> RationalFunction.div).
METHODS = {
    "poly.RationalFunction": ("make", "__add__", "__mul__", "__truediv__"),
    "poly.UniPoly": ("__mul__",),
}
_DUNDER_NAMES = {"__add__": "add", "__mul__": "mul", "__truediv__": "div"}

MAX_SPANS = 400_000


# -- operand sizes ------------------------------------------------------------


def q_bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def poly_size(p) -> tuple[int, int]:
    """(degree, max coefficient bits) of a UniPoly; the zero polynomial is (-1, 0)."""
    return p.degree, max((q_bits(c) for c in p.coeffs), default=0)


def rf_size(x) -> tuple[int, int]:
    """(degree, bits) of a RationalFunction or scalar, over numerator and denominator."""
    if not hasattr(x, "num"):
        return 0, q_bits(x)
    dn, bn = poly_size(x.num)
    dd, bd = poly_size(x.den)
    return max(dn, dd), max(bn, bd)


def matrix_size(mat) -> dict:
    deg = bits = 0
    for row in mat:
        for x in row:
            d, b = rf_size(x)
            deg, bits = max(deg, d), max(bits, b)
    return {"rank": len(mat), "deg": deg, "bits": bits}


def _in_matrix(args):
    s = matrix_size(args[0])
    return {"in_rank": s["rank"], "in_tdeg_max": s["deg"], "in_deg_max": s["deg"], "in_bits_max": s["bits"]}


def _in_field(args):
    return _in_matrix((args[0].matrix,))


def _in_two_rf(args):
    sizes = [rf_size(x) for x in args[:2]]
    return {"in_deg_max": max(s[0] for s in sizes), "in_bits_max": max(s[1] for s in sizes)}


def _in_two_poly(args):
    sizes = [poly_size(p) for p in args[:2]]
    return {"in_deg_max": max(s[0] for s in sizes), "in_bits_max": max(s[1] for s in sizes)}


def _in_one_poly(args):
    deg, bits = poly_size(args[0])
    return {"in_deg_max": deg, "in_bits_max": bits}


def _out_poly(result):
    deg, bits = poly_size(result)
    return {"out_deg_max": deg, "out_bits_max": bits}


def _out_smoothness(result):
    return {"disc_certified": int(result.disc_squarefree)}


INPUT_PROBES = {
    "linalg.char_poly": _in_matrix,
    "linalg.kernel_basis": _in_matrix,
    "higgs.so_odd_reduce": _in_field,
    "poly.RationalFunction.div": _in_two_rf,
    "poly.poly_gcd": _in_two_poly,
    "poly.rational_roots": _in_one_poly,
}
OUTPUT_PROBES = {
    "bipoly.discriminant_x": _out_poly,
    "curves.smoothness_check": _out_smoothness,
}
# Probe values kept as sums over calls rather than maxima.
SUMMED = {"disc_certified"}


# -- tracer -------------------------------------------------------------------


class Stat:
    __slots__ = ("calls", "returns", "self_s", "values")

    def __init__(self):
        self.calls = 0
        self.returns = 0
        self.self_s = 0.0
        self.values: dict[str, int] = {}

    def fold(self, values: dict, op_values: dict, name: str) -> None:
        for key, v in values.items():
            if key in SUMMED:
                self.values[key] = self.values.get(key, 0) + v
            elif v > self.values.get(key, v - 1):
                self.values[key] = v
            op_key = (name, key)
            if v > op_values.get(op_key, v - 1):
                op_values[op_key] = v


class Tracer:
    """Records spans and per-function statistics for wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # span columns: id, name index, start, end, parent id (-1 = none), op id
        self.span_id = array("q")
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self.op = -1
        self.op_calls: Counter = Counter()
        self.op_values: dict = {}
        self.op_covered_s = 0.0
        self._open_layer_spans = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack.clear()  # a deadline can cut an earlier op inside a wrapper
        self.op_calls = Counter()
        self.op_values = {}
        self.op_covered_s = 0.0
        self._open_layer_spans = 0

    def end_op(self) -> tuple[Counter, dict, float]:
        """Close the current op.

        Returns its call counts, its per-op probe values, and the seconds it
        spent inside outermost spans of layers other than `cli` (the covered
        time; cli.main's own argparse and I/O work is the uncovered rest).
        """
        self.op = -1
        return self.op_calls, self.op_values, self.op_covered_s

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return a timing wrapper for fn that records spans under `name`."""
        stat = self.stats.setdefault(name, Stat())
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_idx = self._name_index[name]
        in_probe = INPUT_PROBES.get(name)
        out_probe = OUTPUT_PROBES.get(name)
        clock = self.clock
        stack = self._stack
        tracer = self
        is_layer = not name.startswith("cli.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe_cost = 0.0
            if in_probe is not None:
                t = clock()
                stat.fold(in_probe(args), tracer.op_values, name)
                probe_cost += clock() - t
            span = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            if is_layer:
                tracer._open_layer_spans += 1
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if is_layer:
                    tracer._open_layer_spans -= 1
                    if tracer._open_layer_spans == 0:
                        tracer.op_covered_s += duration
                stat.calls += 1
                stat.self_s += duration - frame[1]
                tracer.op_calls[name] += 1
                tracer._record(span, name_idx, start, end, parent)
                if ok and out_probe is not None:
                    t = clock()
                    stat.fold(out_probe(result), tracer.op_values, name)
                    probe_cost += clock() - t
                if stack:
                    stack[-1][1] += duration + probe_cost
            stat.returns += 1
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _record(self, span, name_idx, start, end, parent) -> None:
        if len(self.span_id) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self.span_id.append(span)
        self.span_name.append(name_idx)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_op.append(self.op)

    def install(self, package: str) -> None:
        """Wrap the public functions of `package.<layer>` and rebind them everywhere."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for owner_name, attrs in METHODS.items():
            layer, cls_name = owner_name.split(".")
            cls = getattr(modules[layer], cls_name, None)
            for attr in attrs:
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:  # gone from the program: its metrics read zero
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self.wrap(f"{owner_name}.{_DUNDER_NAMES.get(attr, attr)}", fn)
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr, raw, staticmethod(wrapper))
                else:
                    # aliases such as __rmul__ = __mul__ share the function object
                    for alias, value in list(vars(cls).items()):
                        if value is fn:
                            self._patch(cls, alias, fn, wrapper)

        package_modules = [
            m for n, m in list(sys.modules.items()) if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, value, wrappers[id(value)][1])
                elif isinstance(value, dict):  # e.g. the CLI's handler table
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, item, wrappers[id(item)][1], item=True)

    def _patch(self, owner, attr, original, replacement, item: bool = False) -> None:
        if item:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, item))

    def uninstall(self) -> None:
        """Restore every rebound name to the original object."""
        while self._patches:
            owner, attr, original, item = self._patches.pop()
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every kept span as gzipped JSON: names plus span rows."""
        rows = [
            [self.span_id[k], self.span_name[k], self.span_start[k], self.span_end[k], self.span_parent[k], self.span_op[k]]
            for k in range(len(self.span_id))
        ]
        doc = {
            "columns": ["id", "name", "start", "end", "parent", "op"],
            "names": self.names,
            "spans": rows,
            "spans_dropped": self.spans_dropped,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
