"""Per-layer spans around sepclass's public functions, installed from outside.

The wrappers replace module attributes at run time; nothing inside the
package changes.  ``theorems``, ``bases`` and ``cli`` import functions such
as ``gaussian``, ``g_poly``, ``monomial``, ``basis_gf``, ``refined_gf`` and
``is_member`` by name, so each wrapper is installed in every ``sepclass``
module that holds the original.  ``Series.__rmul__`` is its own class
attribute and gets its own wrapper.

Spans are aggregated in memory per name (calls, inclusive seconds, self
seconds).  A span's self time is its duration minus the durations of the
spans it encloses; a layer's self time is the sum over its spans.  Calls
that are only counted (``is_member``, ``is_basis_member``) add no span, so
their time, and the tracer's own bookkeeping, lands in the enclosing span.
"""

import sys
import time

LAYERS = ("series", "objects", "bases", "theorems", "cli")


class Tracer:
    def __init__(self):
        self.spans = {}         # name -> [calls, inclusive_s, self_s]
        self.counts = {}
        self.gauss_args = set()
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result) runs outside the timing."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}, named as in
        BENCHMARK.json."""
        out = {}
        for name in ("series.div_one_minus", "series.mul", "series.add",
                     "series.gaussian", "series.g_poly",
                     "objects.enumerate_members", "bases.enumerate_basis"):
            out[f"{name}.calls"] = (self.spans.get(name, [0])[0], "count")
        for name in ("series.div_one_minus", "series.mul", "series.add",
                     "series.gaussian", "series.g_poly", "objects.refined_gf",
                     "objects.enumerate_members", "objects.all_overpartitions",
                     "bases.basis_gf", "bases.enumerate_basis",
                     "theorems.closed_form_gf", "theorems.basis_driven_gf",
                     "theorems.compare_routes", "cli.run", "cli.emit"):
            out[f"{name}.s"] = (self.spans.get(name, [0, 0.0])[1], "s")
        counts = self.counts
        for name in ("series.div_one_minus.terms_out",
                     "objects.all_overpartitions.items",
                     "objects.is_member.calls", "bases.enumerate_basis.items",
                     "bases.is_basis_member.calls"):
            out[name] = (counts.get(name, 0), "count")
        out["cli.emit.bytes"] = (counts.get("cli.emit.bytes", 0), "bytes")
        out["series.gaussian.distinct_args"] = (len(self.gauss_args), "count")
        checked = counts.get("objects.member_candidates", 0)
        out["objects.member_yield"] = (
            counts.get("objects.members_kept", 0) / checked if checked
            else 0.0, "ratio")
        checked = counts.get("bases.is_basis_member.calls", 0)
        out["bases.basis_yield"] = (
            counts.get("bases.enumerate_basis.items", 0) / checked if checked
            else 0.0, "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(
                stats[2] for name, stats in self.spans.items()
                if name.split(".")[0] == layer), "s")
        return out

    def dump(self):
        """Aggregated spans and counters, for the trace output file."""
        return {"spans": {name: {"calls": n, "s": inc, "self_s": own}
                          for name, (n, inc, own) in self.spans.items()},
                "counts": dict(self.counts),
                "gaussian_distinct_args": len(self.gauss_args)}


def _replace(original, wrapper):
    """Install wrapper wherever a sepclass module binds original."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sepclass" and not mod_name.startswith("sepclass."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the layer entry points of an imported sepclass package."""
    from sepclass import bases, cli, objects, series, theorems

    t = tracer
    cls = series.Series

    def terms_out(args, result):
        t.count("series.div_one_minus.terms_out", len(result.terms))
    cls.div_one_minus = t.span("series.div_one_minus", cls.div_one_minus,
                               terms_out)
    cls.__mul__ = t.span("series.mul", cls.__mul__)
    cls.__rmul__ = t.span("series.mul", cls.__rmul__)
    cls.__add__ = t.span("series.add", cls.__add__)

    gaussian = series.gaussian

    def gaussian_args(A, B, k, trunc, *rest, **kwargs):
        t.gauss_args.add((A, B, k, trunc))
        return gaussian(A, B, k, trunc, *rest, **kwargs)
    _replace(gaussian, t.span("series.gaussian", gaussian_args))
    _replace(series.g_poly, t.span("series.g_poly", series.g_poly))
    # monomial is only timed, so that its cost counts as series time
    _replace(series.monomial, t.span("series.monomial", series.monomial))

    enumerate_members = objects.enumerate_members

    def members_with_yield(*args, **kwargs):
        before = t.counts["objects.is_member.calls"]
        result = enumerate_members(*args, **kwargs)
        checked = t.counts["objects.is_member.calls"] - before
        if checked:
            t.count("objects.member_candidates", checked)
            t.count("objects.members_kept", len(result))
        return result
    _replace(objects.is_member,
             t.counter("objects.is_member.calls", objects.is_member))
    _replace(enumerate_members,
             t.span("objects.enumerate_members", members_with_yield))
    _replace(objects.all_overpartitions,
             t.span("objects.all_overpartitions", objects.all_overpartitions,
                    lambda args, result: t.count(
                        "objects.all_overpartitions.items", len(result))))
    _replace(objects.refined_gf,
             t.span("objects.refined_gf", objects.refined_gf))

    _replace(bases.is_basis_member,
             t.counter("bases.is_basis_member.calls", bases.is_basis_member))
    _replace(bases.enumerate_basis,
             t.span("bases.enumerate_basis", bases.enumerate_basis,
                    lambda args, result: t.count(
                        "bases.enumerate_basis.items", len(result))))
    _replace(bases.basis_gf, t.span("bases.basis_gf", bases.basis_gf))

    for name in ("closed_form_gf", "basis_driven_gf", "compare_routes"):
        original = getattr(theorems, name)
        _replace(original, t.span(f"theorems.{name}", original))

    _replace(cli.emit, t.span("cli.emit", cli.emit,
                              lambda args, result: t.count(
                                  "cli.emit.bytes", len(result))))
    _replace(cli.run, t.span("cli.run", cli.run))
