"""Opt-in tracing of nonarch from outside the package.

``Tracer.install`` replaces the public functions of every layer module, the
methods and properties of the public classes defined there, and every name
that re-imports one of them (``series.binom_fractional``,
``poles.seminorm``, ``nonarch.theta_product``, ...) with timing wrappers;
``uninstall`` puts the originals back.  Nothing inside ``src/`` changes, and
an untraced run never installs a wrapper (``count_wrapped`` proves it).

Each wrapped call is a frame.  A frame whose caller is in another layer (or
in the benchmark) is a *span*: name, start, end, parent span and job id are
kept in arrays in memory and written out when the run ends.  Self time is
kept per function: a frame's duration minus the durations of the wrapped
calls it made.  Summed over a layer this equals span duration minus child
span durations.

Time is read from a virtual clock that stops while the tracer does its own
bookkeeping (stack, span arrays, counters), so self times approach the
untraced ones; the call of the wrapper itself is not excluded.
"""

from __future__ import annotations

import enum
import types
from array import array
from time import perf_counter_ns

LAYERS = ("padic", "series", "berkovich", "torsor", "poles", "currents",
          "skeleton", "cli")

MARK = "__perfbench_wrapped__"

# class attributes that are not wrapped: representation, frozen-dataclass
# guards and hashing are not work of the layer
_SKIP = {"__repr__", "__str__", "__setattr__", "__delattr__", "__hash__",
         "__init_subclass__", "__class_getitem__", "__format__"}

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
         "__rmul__", "__truediv__", "__rtruediv__", "inverse", "__pow__")
RENDER = ("padic.PadicNumber.unit_digits", "padic.PadicNumber.to_json",
          "padic.padic_digit_string")


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


class Tracer:
    def __init__(self):
        self.names = []       # function id -> "layer.Class.attr" or "layer.func"
        self.layer = []       # function id -> layer index
        self.calls = []
        self.self_ns = []
        self.stack = []       # frames [child_ns, layer, span index]
        self.paused = 0       # ns the virtual clock has been stopped
        self.job = -1
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.bits_max = 0
        self.bits_sum = 0
        self.bits_count = 0
        self.degree_max = 0
        self.matrix_entries = 0
        self.entry_bits_max = 0
        self.ladder_levels = 0
        self._patched = []    # (owner, attribute, original) for uninstall
        self._by_name = {}

    # -- clock and counters --------------------------------------------

    def now(self) -> int:
        """Virtual time in ns: wall time minus tracer bookkeeping."""
        return perf_counter_ns() - self.paused

    def fid(self, name: str) -> int:
        return self._by_name[name]

    def total_self_ns(self, layer: str) -> int:
        li = LAYERS.index(layer)
        return sum(ns for ns, lay in zip(self.self_ns, self.layer) if lay == li)

    def total_calls(self, layer: str) -> int:
        li = LAYERS.index(layer)
        return sum(c for c, lay in zip(self.calls, self.layer) if lay == li)

    # -- wrapping ---------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self.layer.append(LAYERS.index(layer))
        self.calls.append(0)
        self.self_ns.append(0)
        self._by_name[name] = fid
        return fid

    def wrap(self, fn, name: str, layer: str, hook=None):
        """Timing wrapper for ``fn``; ``hook(args, result)`` runs with the
        clock stopped after a successful call."""
        fid = self._register(name, layer)
        li = LAYERS.index(layer)
        tr = self
        stack = self.stack
        fids, parents, jobs = self.span_fid, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            e0 = perf_counter_ns()
            if stack:
                top = stack[-1]
                span = top[2]
                boundary = top[1] != li
            else:
                span = -1
                boundary = True
            if boundary:
                fids.append(fid)
                parents.append(span)
                jobs.append(tr.job)
                starts.append(0)
                ends.append(0)
                span = len(fids) - 1
            frame = [0, li, span]
            stack.append(frame)
            e1 = perf_counter_ns()
            tr.paused += e1 - e0
            start = e1 - tr.paused
            if boundary:
                starts[span] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                x0 = perf_counter_ns()
                end = x0 - tr.paused
                stack.pop()
                dur = end - start
                self_ns[fid] += dur - frame[0]
                calls[fid] += 1
                if stack:
                    stack[-1][0] += dur
                if boundary:
                    ends[span] = end
                tr.paused += perf_counter_ns() - x0
            if hook is not None:
                h0 = perf_counter_ns()
                hook(args, result)
                tr.paused += perf_counter_ns() - h0
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _arith_hook(self, args, result):
        rat = getattr(result, "rat", None)
        if rat is None:
            return
        b = _bits(rat) + _bits(result.pi_part)
        self.bits_sum += b
        self.bits_count += 1
        if b > self.bits_max:
            self.bits_max = b

    def _series_init_hook(self, args, result):
        d = len(args[0].coeffs) - 1
        if d > self.degree_max:
            self.degree_max = d

    def _matrix_hook(self, args, result):
        for row in result:
            self.matrix_entries += len(row)
            for e in row:
                b = _bits(e.rat) + _bits(e.pi_part)
                if b > self.entry_bits_max:
                    self.entry_bits_max = b

    def _ladder_hook(self, args, result):
        self.ladder_levels += len(result.table)

    def _hook_for(self, layer, cls, attr):
        if layer == "padic" and cls == "PadicNumber" and attr in ARITH:
            return self._arith_hook
        if layer == "series" and cls == "BoundedSeries" and attr == "__init__":
            return self._series_init_hook
        if layer == "poles" and cls == "PoleFamily" and attr == "matrix":
            return self._matrix_hook
        if layer == "currents" and attr == "ladder_ord":
            return self._ladder_hook
        return None

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr in _SKIP or (attr.startswith("_") and not attr.startswith("__")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = self._hook_for(layer, cls.__name__, attr)
            if isinstance(obj, property):
                if obj.fget is None:
                    continue
                new = property(self.wrap(obj.fget, name, layer, hook),
                               obj.fset, obj.fdel, obj.__doc__)
            elif isinstance(obj, classmethod):
                new = classmethod(self.wrap(obj.__func__, name, layer, hook))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self.wrap(obj.__func__, name, layer, hook))
            elif isinstance(obj, types.FunctionType):
                new = self.wrap(obj, name, layer, hook)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self, package):
        """Wrap every layer module of ``package`` (the imported nonarch)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    hook = self._hook_for(layer, None, attr)
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer, hook)
                elif isinstance(obj, type) and not issubclass(obj, (enum.Enum,
                                                                    BaseException)):
                    self._wrap_class(obj, layer)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    self._patch(mod, attr, replaced[id(obj)])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def spans(self):
        return zip(self.span_fid, self.span_start, self.span_end,
                   self.span_parent, self.span_job)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for fid, start, end, parent, job in self.spans():
                fh.write(f"{self.names[fid]}\t{start}\t{end}\t{parent}\t{job}\n")

    def layer_self_ns_from_spans(self):
        """Per-layer self time recomputed from the spans alone: span duration
        minus the duration of its child spans."""
        child = [0] * len(self.span_fid)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(LAYERS, 0)
        for i, fid in enumerate(self.span_fid):
            out[LAYERS[self.layer[fid]]] += (self.span_end[i] - self.span_start[i]
                                             - child[i])
        return out

    def _span_has_ancestor(self, i, fid):
        parent = self.span_parent[i]
        while parent >= 0:
            if self.span_fid[parent] == fid:
                return True
            parent = self.span_parent[parent]
        return False

    def metrics(self):
        """Per-layer metric values, named as in BENCHMARK.json."""
        def calls(name):
            return self.calls[self.fid(name)] if name in self._by_name else 0

        def self_s(*names):
            return sum(self.self_ns[self.fid(n)] for n in names
                       if n in self._by_name) / 1e9

        render = {self.fid(n) for n in RENDER}
        render_ns = sum(e - s for f, s, e, _, _ in self.spans() if f in render)
        root, ladder = self.fid("series.series_p_power_root"), self.fid("currents.ladder_ord")
        ladder_roots = sum(1 for i, f in enumerate(self.span_fid)
                           if f == root and self._span_has_ancestor(i, ladder))
        return {
            "padic.ops": sum(calls(f"padic.PadicNumber.{a}") for a in ARITH),
            "padic.new": calls("padic.PadicNumber.__init__"),
            "padic.self_s": self.total_self_ns("padic") / 1e9,
            "padic.operand_bits_max": self.bits_max,
            "padic.operand_bits_mean": self.bits_sum / self.bits_count
            if self.bits_count else 0.0,
            "padic.render_s": render_ns / 1e9,
            "series.mul.calls": calls("series.BoundedSeries.mul"),
            "series.mul.self_s": self_s("series.BoundedSeries.mul"),
            "series.root.calls": calls("series.series_p_power_root"),
            "series.root.self_s": self_s("series.series_p_power_root"),
            "series.inverse.self_s": self_s("series.BoundedSeries.inverse"),
            "series.degree_max": self.degree_max,
            "torsor.radius_numeric.calls": calls("torsor.splitting_logradius_numeric"),
            "torsor.self_s": self.total_self_ns("torsor") / 1e9,
            "currents.theta.calls": calls("currents.theta_product"),
            "currents.theta.self_s": self_s("currents.theta_product"),
            "currents.ladder.self_s": self_s("currents.ladder_ord"),
            "currents.ladder.roots_per_level": ladder_roots / self.ladder_levels
            if self.ladder_levels else 0.0,
            "currents.self_s": self.total_self_ns("currents") / 1e9,
            "poles.order_set.self_s": self_s("poles.order_set"),
            "poles.find_order.self_s": self_s("poles.find_nonppower_order"),
            "poles.matrix.self_s": self_s("poles.PoleFamily.matrix",
                                          "poles.PoleFamily.expansion_row"),
            "poles.matrix_entries": self.matrix_entries,
            "poles.entry_bits_max": self.entry_bits_max,
            "berkovich.calls": self.total_calls("berkovich"),
            "berkovich.self_s": self.total_self_ns("berkovich") / 1e9,
            "skeleton.retract.calls": calls("skeleton.retract"),
            "skeleton.self_s": self.total_self_ns("skeleton") / 1e9,
            "cli.dispatch.calls": calls("cli.dispatch"),
            "cli.self_s": self.total_self_ns("cli") / 1e9,
        }

    def layer_table(self):
        """Calls and self time of every layer."""
        return {layer: {"calls": self.total_calls(layer),
                        "self_s": self.total_self_ns(layer) / 1e9}
                for layer in LAYERS}


def count_wrapped(package) -> int:
    """Number of tracing wrappers currently reachable from the layer
    modules of ``package``; 0 in an untraced run."""
    def wrapped(obj):
        if isinstance(obj, property):
            obj = obj.fget
        elif isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        return hasattr(obj, MARK)

    count = 0
    for mod in [getattr(package, layer) for layer in LAYERS] + [package]:
        for obj in vars(mod).values():
            count += wrapped(obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                count += sum(wrapped(v) for v in vars(obj).values())
    return count
