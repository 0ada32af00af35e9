"""Outside-in tracer for one tcalc CLI job.

    python3 tracer.py SRC TRACE_OUT ARGV...

Runs `tcalc.cli.main(ARGV)` with the package imported from SRC after
wrapping, from outside the package:

- every public function of every `tcalc.*` module,
- the `__init__`, `validate`, `homology`, `__mul__` and `extend_to` methods
  of every public class,
- and a bare call counter on `FieldSpec.coerce`.

Modules bind many of these names at import time (`from .sparse import
solve`), so after wrapping, every alias in every tcalc module is rebound to
the wrapper; function-local imports read the patched module attribute.

Spans are aggregated in memory by (parent span, span) and written to
TRACE_OUT as JSON when `main` returns.  A span's self time is its duration
minus the durations of the wrapped calls directly inside it, so the self
times of all spans add up to the `cli.main` span.  Nothing is written to
stdout, which stays byte-identical to an untraced run.
"""

import functools
import json
import sys
import time
import types

MODULES = ("chain", "classify", "cli", "coalgebras", "comonads",
           "equivariant", "fields", "operads", "perms", "serialize",
           "sparse", "tower", "trees")
METHODS = ("__init__", "validate", "homology", "__mul__", "extend_to")


def field_tag(field):
    return "q" if field.p == 0 else ("f2" if field.p == 2 else "fp")


class Tracer:
    def __init__(self):
        self.stack = [["", 0.0]]  # [span name, time inside child spans]
        self.depth = {}           # tag -> open spans carrying it
        self.spans = {}           # (parent, name) -> [calls, total, self]
        self.outer = {}           # tag -> time in outermost spans of tag
        self.layer_self = {}      # module -> self seconds
        self.counts = {}

    def wrap(self, fn, name, layer, tag):
        """A wrapper recording one span per call of `fn`."""
        stack, depth, spans = self.stack, self.depth, self.spans
        outer, layer_self = self.outer, self.layer_self
        clock = time.perf_counter
        layer_self.setdefault(layer, 0.0)

        def traced(*args, **kwargs):
            parent = stack[-1]
            rec = [name, 0.0]
            stack.append(rec)
            d = depth.get(tag, 0)
            depth[tag] = d + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[tag] = d
                stack.pop()
                parent[1] += dt
                own = dt - rec[1]
                layer_self[layer] += own
                if d == 0:
                    outer[tag] = outer.get(tag, 0.0) + dt
                s = spans.get((parent[0], name))
                if s is None:
                    spans[(parent[0], name)] = [1, dt, own]
                else:
                    s[0] += 1
                    s[1] += dt
                    s[2] += own

        return functools.update_wrapper(traced, fn)

    def wrap_echelon(self, init):
        """`Echelon.__init__`, also timed by the matrix's field and counted
        when it runs under `tower.conormalized_level`."""
        counts, depth = self.counts, self.depth
        clock = time.perf_counter

        def echelon_init(ech, m, *args, **kwargs):
            if depth.get("tower.conormalized_level"):
                counts["echelon_under_conormalized"] = \
                    counts.get("echelon_under_conormalized", 0) + 1
            t0 = clock()
            try:
                return init(ech, m, *args, **kwargs)
            finally:
                key = "echelon_s." + field_tag(m.field)
                counts[key] = counts.get(key, 0.0) + (clock() - t0)

        return echelon_init

    def count_coerce(self, field_cls):
        counts = self.counts
        counts["coerce_calls"] = 0
        coerce = field_cls.coerce

        def counted(self, x):
            counts["coerce_calls"] += 1
            return coerce(self, x)

        field_cls.coerce = counted

    def install(self, package):
        """Wrap the public callables of every tcalc module and rebind every
        alias of them."""
        mods = {m: sys.modules["%s.%s" % (package, m)] for m in MODULES}
        replaced = {}  # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            modname = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != modname:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif isinstance(obj, types.FunctionType) or hasattr(
                        obj, "cache_info"):
                    name = "%s.%s" % (layer, attr)
                    replaced[id(obj)] = (obj, self.wrap(obj, name, layer,
                                                        name))
        for mod in [sys.modules[package]] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self.count_coerce(mods["fields"].FieldSpec)

    def _wrap_class(self, cls, layer):
        for meth in METHODS:
            fn = cls.__dict__.get(meth)
            if fn is None or not callable(fn):
                continue
            if cls.__name__ == "Echelon" and meth == "__init__":
                fn = self.wrap_echelon(fn)
            name = "%s.%s.%s" % (layer, cls.__name__, meth)
            setattr(cls, meth, self.wrap(fn, name, layer,
                                         "%s.%s" % (layer, meth)))

    def dump(self, path, main_s):
        doc = {"main_s": main_s, "layer_self": self.layer_self,
               "outer": self.outer, "counts": self.counts,
               "spans": [[p, n, c, t, s]
                         for (p, n), (c, t, s) in sorted(self.spans.items())]}
        with open(path, "w") as f:
            json.dump(doc, f)


def main():
    src, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import tcalc.cli
    tracer = Tracer()
    tracer.install("tcalc")
    rc = 1
    try:
        rc = tcalc.cli.main(argv)
    finally:
        tracer.dump(out, tracer.outer.get("cli.main", 0.0))
    sys.exit(rc)


if __name__ == "__main__":
    main()
