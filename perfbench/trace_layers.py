"""Span tracer for the benchmark's traced runs.

`Tracer` wraps public functions of the cyclrc layers from outside the
package, records one span (name, start, end, parent) per call in memory, and
turns the spans plus a few per-call counters into the per-layer table.  The
package binds names with `from .x import y`, so a wrapper is patched into
every cyclrc module that holds the original object, and every patched
binding is restored on exit.

Span names are the per-layer metric prefixes: all calls that report into
one metric share a name (for example `rank` and `nullspace` trace as
`linalg.rref`, the six field kernels as `field.<class>`), and a call nested
inside a span of its own name is not counted again.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

LAYER_MODULES = (
    "cyclrc", "cyclrc.field", "cyclrc.linalg", "cyclrc.poly", "cyclrc.bounds",
    "cyclrc.cyclic", "cyclrc.locality", "cyclrc.constructions", "cyclrc.golden",
    "cyclrc.selfcheck", "cyclrc.cli",
)

FIELD_ADD = ("vadd", "vsub", "vneg")
FIELD_MUL = ("vmul", "vdiv_nz", "vpow_gen")
FIELD_CLASSES = ("binary", "prime", "oddext")
KERNEL_SPANS = frozenset(f"field.{cls}" for cls in FIELD_CLASSES)
DISTANCE_METHODS = ("exhaustive", "zero_core", "low_weight", "sandwich")

# (module, function, span name); bounds functions all report as one layer
FUNCTIONS = (
    ("cyclrc.field", "field_create", "field.field_create"),
    ("cyclrc.linalg", "rref", "linalg.rref"),
    ("cyclrc.linalg", "rank", "linalg.rref"),
    ("cyclrc.linalg", "nullspace", "linalg.rref"),
    ("cyclrc.linalg", "mat_mul", "linalg.mat_mul"),
    ("cyclrc.linalg", "mat_vec", "linalg.mat_mul"),
    ("cyclrc.linalg", "batch_rank", "linalg.batch_rank"),
    ("cyclrc.linalg", "batch_det", "linalg.batch_det"),
    ("cyclrc.linalg", "batch_nullvec", "linalg.batch_nullvec"),
    ("cyclrc.poly", "product_from_roots", "poly.product_from_roots"),
    ("cyclrc.bounds", "units_mod", "bounds"),
    ("cyclrc.bounds", "bch_lower", "bounds"),
    ("cyclrc.bounds", "betti_sala_lower", "bounds"),
    ("cyclrc.bounds", "singleton_like", "bounds"),
    ("cyclrc.bounds", "subgroup_coset_in", "bounds"),
    ("cyclrc.bounds", "exact_dual_distance", "bounds"),
    ("cyclrc.cyclic", "code_from_defining_set", "cyclic.code_from_defining_set"),
    ("cyclrc.cyclic", "min_distance", "cyclic.min_distance"),
    ("cyclrc.cyclic", "min_weight_word", "cyclic.min_weight_word"),
    ("cyclrc.cyclic", "has_weight_at_most", "cyclic.has_weight_at_most"),
    ("cyclrc.locality", "locality_from_product", "locality.locality_from_product"),
    ("cyclrc.locality", "anchor_dual_word", "locality.anchor_dual_word"),
    ("cyclrc.locality", "run_code_distance", "locality.run_code_distance"),
    ("cyclrc.locality", "check_delta_independence", "locality.check_delta_independence"),
    ("cyclrc.locality", "punctured_distance_at_least", "locality.punctured_distance_at_least"),
    ("cyclrc.locality", "verify_locality_exhaustive", "locality.verify_locality_exhaustive"),
    ("cyclrc.constructions", "build", "constructions.build"),
    ("cyclrc.constructions", "validate", "constructions.validate"),
    ("cyclrc.golden", "crosscheck_distance", "golden.crosscheck_distance"),
    ("cyclrc.cli", "cmd_construct", "cli.cmd_construct"),
    ("cyclrc.cli", "cmd_verify", "cli.cmd_verify"),
)


def field_class(F) -> str:
    if F.p == 2:
        return "binary"
    return "prime" if F.m == 1 else "oddext"


def self_times(names, start, end, parent) -> dict:
    """Self time per span name: duration minus the time its children cover.

    Spans are columns indexed alike; `parent[i]` is the index of the span
    that was open when span i started, or -1.  Calls are sequential, so
    children of one span never overlap and their durations add up.
    """
    n = len(names)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict = {}
    for i in range(n):
        out[names[i]] = out.get(names[i], 0.0) + (end[i] - start[i]) - child[i]
    return out


class Tracer:
    """Context manager that installs the layer wrappers and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, fn, args, kwargs, observe=None):
        """Run fn inside a span; observe(args, result, duration, outer) after."""
        nid = self._nid(name)
        stack = self._stack
        parent = stack[-1] if stack else -1
        outer = parent < 0 or self.span_name[parent] != nid
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        stack.append(idx)
        t0 = self.clock()
        self.span_start.append(t0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.span_end[idx] = t1
            stack.pop()
        if outer:
            self.add(name + ".calls")
            self.add(name + ".outer_s", t1 - t0)
        if observe is not None:
            observe(args, result, t1 - t0, outer)
        return result

    # -- installation -------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname in LAYER_MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _function_wrapper(self, name: str, fn, observe):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return wrapper

    def _kernel_wrapper(self, kernel: str, fn):
        group = "add_elems" if kernel in FIELD_ADD else "mul_elems"

        def wrapper(F, *args):
            name = "field." + field_class(F)

            def observe(_a, result, _dt, outer):
                if outer:
                    self.add(f"{name}.{group}", getattr(result, "size", 1))
            return self.call(name, fn, (F,) + args, {}, observe)
        return wrapper

    def install(self) -> None:
        for modname in LAYER_MODULES:
            importlib.import_module(modname)
        field_spec = sys.modules["cyclrc.field"].FieldSpec
        for kernel in FIELD_ADD + FIELD_MUL:
            fn = vars(field_spec)[kernel]
            self._patches.append((field_spec, kernel, fn))
            setattr(field_spec, kernel, self._kernel_wrapper(kernel, fn))
        for modname, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[modname], attr)
            observe = getattr(self, "_observe_" + attr, None)
            self._patch_everywhere(fn, self._function_wrapper(name, fn, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- per-call counters --------------------------------------------------

    def _observe_batch_rank(self, args, result, _dt, _outer):
        self.add("linalg.batch_rank.mats", len(args[1]))

    def _observe_batch_det(self, args, result, _dt, _outer):
        self.add("linalg.batch_det.mats", len(args[1]))

    def _observe_batch_nullvec(self, args, result, _dt, _outer):
        self.add("linalg.batch_nullvec.mats", len(args[1]))
        self.add("linalg.batch_nullvec.rows", result.shape[0])
        self.add("linalg.batch_nullvec.zero_rows", int((result == 0).all(axis=1).sum()))

    def _observe_min_distance(self, _args, result, dt, outer):
        if not outer:
            return
        method = result.method if result.method in DISTANCE_METHODS else "sandwich"
        self.add(f"cyclic.min_distance.{method}.calls")
        self.add(f"cyclic.min_distance.{method}.s", dt)
        if result.exact is not None:
            self.add("cyclic.min_distance.exact")

    def _observe_exact_dual_distance(self, _args, result, _dt, _outer):
        self.add("bounds.exact_dual_distance.calls")
        if result is not None:
            self.add("bounds.exact_dual_distance.fired")

    def _observe_anchor_dual_word(self, _args, result, _dt, outer):
        if outer and result[3]:
            self.add("locality.anchor_dual_word.exact")

    # -- output -------------------------------------------------------------

    def raw(self) -> dict:
        """Additive per-process totals: self time per span name and counters."""
        names = [self.names[i] for i in self.span_name]
        selfs = self_times(names, self.span_start, self.span_end, self.span_parent)
        out = {f"{k}.self_s": v for k, v in selfs.items()}
        out.update(self.counts)
        out["trace.spans"] = len(names)
        out["trace.kernel_spans"] = sum(1 for name in names if name in KERNEL_SPANS)
        return out

    def spans(self) -> dict:
        """Spans as columns, times relative to the first span start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "name": list(self.span_name),
            "start": [round(t - t0, 9) for t in self.span_start],
            "end": [round(t - t0, 9) for t in self.span_end],
            "parent": list(self.span_parent),
        }


# per-layer metrics read straight off the summed raw totals
DIRECT = tuple(
    f"field.{cls}.{stat}" for cls in FIELD_CLASSES for stat in ("add_elems", "mul_elems", "self_s")
) + (
    "linalg.batch_nullvec.calls", "linalg.batch_nullvec.mats", "linalg.batch_nullvec.self_s",
    "linalg.batch_det.mats", "linalg.batch_det.self_s",
    "linalg.batch_rank.calls", "linalg.batch_rank.mats", "linalg.batch_rank.self_s",
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.mat_mul.self_s",
    "cyclic.min_distance.calls", "cyclic.min_distance.self_s",
) + tuple(
    f"cyclic.min_distance.{method}.{stat}" for method in DISTANCE_METHODS for stat in ("calls", "s")
) + tuple(
    f"cyclic.{fn}.{stat}"
    for fn in ("min_weight_word", "has_weight_at_most", "code_from_defining_set")
    for stat in ("calls", "self_s")
) + (
    "poly.product_from_roots.self_s", "bounds.self_s",
    "locality.locality_from_product.calls", "locality.locality_from_product.self_s",
    "locality.anchor_dual_word.calls", "locality.anchor_dual_word.self_s",
    "locality.run_code_distance.self_s", "locality.check_delta_independence.self_s",
    "locality.punctured_distance_at_least.calls", "locality.punctured_distance_at_least.self_s",
    "locality.verify_locality_exhaustive.calls", "locality.verify_locality_exhaustive.self_s",
    "constructions.build.calls", "constructions.build.self_s", "constructions.validate.self_s",
    "golden.crosscheck_distance.self_s", "cli.cmd_construct.self_s", "cli.cmd_verify.self_s",
    "trace.overhead_s",
)
# per-layer ratios: metric -> (numerator, denominator) raw keys
RATIOS = {
    "linalg.batch_nullvec.degenerate_frac": ("linalg.batch_nullvec.zero_rows",
                                             "linalg.batch_nullvec.rows"),
    "cyclic.min_distance.exact_frac": ("cyclic.min_distance.exact", "cyclic.min_distance.calls"),
    "bounds.exact_dual_distance.fired_frac": ("bounds.exact_dual_distance.fired",
                                              "bounds.exact_dual_distance.calls"),
    "locality.anchor_dual_word.exact_frac": ("locality.anchor_dual_word.exact",
                                             "locality.anchor_dual_word.calls"),
}


def overhead_s(raw: dict, calls: int = 10000) -> float:
    """Estimated CPU time the wrappers added to the traced call of `raw`.

    The wrapper cost per span is calibrated on no-op functions in this
    process, for field kernels and for other functions apart, and
    multiplied by the number of spans of each kind.  Unlike traced minus
    untraced time, the estimate does not carry the pass-to-pass noise of
    the workload, and it never reads negative.
    """
    probe = Tracer()

    def noop(*_args):
        return None

    class Binary:
        p, m = 2, 1

    def per_call(fn, *args) -> float:
        c0 = time.process_time()
        for _ in range(calls):
            fn(*args)
        return (time.process_time() - c0) / calls

    bare = per_call(noop, Binary)
    kernel = per_call(probe._kernel_wrapper("vadd", noop), Binary) - bare
    other = per_call(probe._function_wrapper("noop", noop, None), Binary) - bare
    kernels = raw["trace.kernel_spans"]
    return max(kernel, 0.0) * kernels + max(other, 0.0) * (raw["trace.spans"] - kernels)


def layer_table(raw: dict) -> dict:
    """Per-layer metrics from summed raw totals; layers never called read 0."""
    table = {key: raw.get(key, 0) for key in DIRECT}
    table["field.field_create.s"] = raw.get("field.field_create.outer_s", 0)
    for key, (num, den) in RATIOS.items():
        table[key] = raw[num] / raw[den] if raw.get(den) else 0.0
    return table


def merge_raw(raws) -> dict:
    """Sum the raw totals of several traced processes."""
    out: dict = {}
    for raw in raws:
        for k, v in raw.items():
            out[k] = out.get(k, 0) + v
    return out
