"""Tracing from outside the program, for the traced benchmark run.

`Tracer` wraps bernalg's public functions (in every module namespace that
imported them by name) and the methods of its classes.  Each call records
a span (name, start, end, parent) in memory; a layer's self time is the
time in its spans minus the time covered by their child spans.  The
benchmark's own bookkeeping (repeat detection, no-op tests) runs in spans
of the pseudo layer `bench`, so it counts against no layer.

`FractionCounter` counts `fractions.Fraction` operations.  It is installed
only around item calls of a pass of its own, so its wrappers inflate no
span time and the benchmark's checks are not counted.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import time
from fractions import Fraction

MODULES = ("fields", "linalg", "algebra", "identities", "bernstein",
           "nilpotence", "report", "fileformat", "cli", "families")
CLASSES = {"linalg": ("Matrix", "Subspace"), "algebra": ("CommAlgebra",),
           "bernstein": ("BaricAlgebra",)}
# dunder methods that do the class's work and so are traced too
TRACED_DUNDERS = ("__init__", "__eq__", "__matmul__", "__sub__")

QUARTIC = ("bernstein", "square_square_zero")
CUBIC = ("cube_weight", "cube_zero", "jacobi")

# (metric, span names whose durations it sums)
INCLUSIVE = {
    "algebra.chain_full_s": ("algebra.power_chain[full]", "algebra.full_power_terms"),
    "algebra.chain_first_order_s": ("algebra.power_chain[principal]",
                                    "algebra.power_chain[plenary]"),
    "identities.quartic_s": tuple(f"identities.check_identity[{i}]" for i in QUARTIC),
    "identities.cubic_s": tuple(f"identities.check_identity[{i}]" for i in CUBIC),
    "identities.jordan_s": ("identities.check_identity[jordan]",),
    "bernstein.classify_s": ("bernstein.classify",),
    "nilpotence.certificate_s": ("nilpotence.decompose_nilpotent_ideal",),
    "nilpotence.mult_closure_s": ("nilpotence.mult_closure_nilpotent",),
    "nilpotence.fixed_subspace_s": ("nilpotence.greatest_fixed_subspace",),
}
# (metric, span names whose calls it counts)
CALLS = {
    "linalg.plus.calls": ("linalg.Subspace.plus",),
    "linalg.kernel.calls": ("linalg.Matrix.kernel",),
    "algebra.mul_coords.calls": ("algebra.CommAlgebra.mul_coords",),
    "algebra.subspace_product.calls": ("algebra.CommAlgebra.subspace_product",),
    "identities.check_identity.calls": INCLUSIVE["identities.quartic_s"]
    + INCLUSIVE["identities.cubic_s"] + INCLUSIVE["identities.jordan_s"],
    "bernstein.peirce.calls": ("bernstein.peirce",),
    "fileformat.parse.calls": ("fileformat.parse",),
    "cli.main.calls": ("cli.main",),
}
SELF_LAYERS = ("linalg", "algebra", "identities", "bernstein", "nilpotence",
               "report", "fileformat", "cli", "families")
FRACTION_OPS = {"eq": ("__eq__",), "bool": ("__bool__",),
                "mul": ("__mul__", "__rmul__"),
                "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
                "div": ("__truediv__", "__rtruediv__")}


def per_layer_names() -> list:
    """Every per-layer metric the traced run emits."""
    names = [f"fields.{op}.calls" for op in FRACTION_OPS]
    names += [f"{layer}.self_s" for layer in SELF_LAYERS]
    names += list(INCLUSIVE) + list(CALLS)
    names += ["linalg.subspace.calls", "linalg.subspace.rows", "linalg.plus.noop_share",
              "algebra.subspace_product.repeat_share",
              "identities.check_identity.repeats"]
    return names


class Tracer:
    """Span recorder over bernalg's public surface."""

    def __init__(self):
        self.names = []           # span name per name id
        self.layers = []          # layer per name id
        self._ids = {}
        self._restore = []        # (owner, attribute, original)
        self.reset_pass()
        self.bench_id = self._name_id("bench.bookkeeping", "bench")

    # -- recording ------------------------------------------------------

    def reset_pass(self):
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.counts = {"subspace_calls": 0, "subspace_rows": 0, "plus_noop": 0,
                       "product_repeats": 0, "identity_repeats": 0}
        self.begin_item()

    def begin_item(self):
        """Repeats are counted within one item."""
        self._keys = {}
        self._products_seen = set()
        self._identities_seen = set()

    def _name_id(self, name, layer):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _bookkeeping(self, fn, *args):
        """Run a hook inside a `bench` span, so that no layer pays for it."""
        idx = self._open(self.bench_id)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, layer, pre=None, post=None, name_of=None):
        nid = self._name_id(name, layer)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                args = tracer._bookkeeping(pre, args)
            idx = tracer._open(nid if name_of is None else name_of(args, kwargs))
            tracer.start[idx] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.stack.pop()
            if post is not None:
                tracer._bookkeeping(post, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- hooks ----------------------------------------------------------

    def _subspace_init(self, args):
        if len(args) < 2:
            return args
        self_, vectors, *rest = args
        vectors = list(vectors)
        if vectors:
            self.counts["subspace_calls"] += 1
            self.counts["subspace_rows"] += len(vectors)
        return (self_, vectors, *rest)

    def _plus_post(self, args, result):
        if result.rows == args[0].rows:
            self.counts["plus_noop"] += 1

    def _key(self, s):
        hit = self._keys.get(id(s))
        if hit is None:
            hit = (s, (s.ambient_dim, hash(s.rows)))
            self._keys[id(s)] = hit
        return hit[1]

    def _product_pre(self, args):
        a, s1, s2 = args[:3]
        k1, k2 = self._key(s1), self._key(s2)
        key = (id(a),) + ((k1, k2) if k1 <= k2 else (k2, k1))
        if key in self._products_seen:
            self.counts["product_repeats"] += 1
        self._products_seen.add(key)
        return args

    def _identity_pre(self, args):
        a, ident = args[0], args[1]
        weight = args[2] if len(args) > 2 else None
        key = (id(a), ident.value, None if weight is None else tuple(weight))
        if key in self._identities_seen:
            self.counts["identity_repeats"] += 1
        self._identities_seen.add(key)
        return args

    # -- installation ---------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"bernalg.{m}") for m in MODULES}
        hooks = {
            "algebra.power_chain": dict(name_of=self._chain_name()),
            "identities.check_identity": dict(pre=self._identity_pre,
                                              name_of=self._identity_name()),
            "linalg.Subspace.__init__": dict(pre=self._subspace_init),
            "linalg.Subspace.plus": dict(post=self._plus_post),
            "algebra.CommAlgebra.subspace_product": dict(pre=self._product_pre),
        }
        originals = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = self._wrap(obj, name, layer, **hooks.get(name, {}))
            for cls_name in CLASSES.get(layer, ()):
                self._install_class(getattr(mod, cls_name), layer, hooks)
        package = importlib.import_module("bernalg")
        for owner in list(mods.values()) + [package]:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    self._set(owner, attr, originals[id(obj)])

    def _install_class(self, cls, layer, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            opts = hooks.get(name, {})
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer, **opts)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, layer, **opts)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, layer, **opts))

    def _chain_name(self):
        ids = {k: self._name_id(f"algebra.power_chain[{k}]", "algebra")
               for k in ("full", "principal", "plenary")}

        def name_of(args, kwargs):
            kind = args[2] if len(args) > 2 else kwargs.get("kind")
            return ids.get(kind, ids["full"])
        return name_of

    def _identity_name(self):
        ids = {i: self._name_id(f"identities.check_identity[{i}]", "identities")
               for i in QUARTIC + CUBIC + ("jordan",)}

        def name_of(args, kwargs):
            ident = args[1] if len(args) > 1 else kwargs["ident"]
            return ids[ident.value]
        return name_of

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since reset_pass()."""
        n = len(self.nid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_by_layer = dict.fromkeys(SELF_LAYERS, 0.0)
        dur_by_name = [0.0] * len(self.names)
        calls_by_name = [0] * len(self.names)
        for i in range(n):
            k = self.nid[i]
            dur = self.end[i] - self.start[i]
            dur_by_name[k] += dur
            calls_by_name[k] += 1
            layer = self.layers[k]
            if layer in self_by_layer:
                self_by_layer[layer] += dur - child[i]

        def total(names, values):
            return sum(values[self._ids[x]] for x in names if x in self._ids)

        out = {f"{layer}.self_s": v for layer, v in self_by_layer.items()}
        for metric, names in INCLUSIVE.items():
            out[metric] = total(names, dur_by_name)
        for metric, names in CALLS.items():
            out[metric] = total(names, calls_by_name)
        c = self.counts
        out["linalg.subspace.calls"] = c["subspace_calls"]
        out["linalg.subspace.rows"] = c["subspace_rows"]
        out["linalg.plus.noop_share"] = c["plus_noop"] / max(out["linalg.plus.calls"], 1)
        out["algebra.subspace_product.repeat_share"] = (
            c["product_repeats"] / max(out["algebra.subspace_product.calls"], 1))
        out["identities.check_identity.repeats"] = c["identity_repeats"]
        return out

    def write_spans(self, path: str):
        """Write the current pass's spans as gzipped TSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in range(len(self.nid)):
                fh.write(f"{i}\t{self.names[self.nid[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\n")


class FractionCounter:
    """Counts Fraction operations while installed."""

    def __init__(self):
        self.counts = dict.fromkeys(FRACTION_OPS, 0)
        self._wrappers = {}
        for op, dunders in FRACTION_OPS.items():
            for dunder in dunders:
                self._wrappers[dunder] = (vars(Fraction)[dunder], self._counting(op, vars(Fraction)[dunder]))

    def _counting(self, op, fn):
        counts = self.counts

        def counted(*args):
            counts[op] += 1
            return fn(*args)
        return counted

    def __enter__(self):
        for dunder, (_, counted) in self._wrappers.items():
            setattr(Fraction, dunder, counted)
        return self

    def __exit__(self, *exc):
        for dunder, (orig, _) in self._wrappers.items():
            setattr(Fraction, dunder, orig)
        return False

    def metrics(self) -> dict:
        return {f"fields.{op}.calls": n for op, n in self.counts.items()}
