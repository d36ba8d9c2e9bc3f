"""Per-layer tracing of equicurve from outside the package.

``Tracer.install`` replaces public functions and methods of the poly, linalg,
gb, localdim, curveinv, family and cli modules with timing wrappers. Modules
import each other with ``from .x import y``, so a function is replaced at every
module attribute that holds it, not only where it is defined.

Three kinds of wrapper, by how often the function runs:

- ``count``: calls only (``Polynomial.leading_monomial`` runs ~150k times
  per corpus pass; timing it would distort every other figure);
- ``timed``: calls and time, charged to the enclosing frame as child time, so
  that the enclosing span's self time excludes it;
- ``span``: as ``timed``, and also records a span (entry id, name, parent span,
  start, duration, self time, attributes) kept in memory until the pass ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = ("poly", "linalg", "gb", "localdim", "curveinv", "family", "cli")


class _Frame:
    __slots__ = ("name", "span_id", "child")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child = 0.0


def _std_basis_layer(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["order"]
    if order.kind.startswith("elimination"):
        return "gb.std_basis.elim"
    return "gb.std_basis.global" if order.is_global else "gb.std_basis.local"


class Tracer:
    """Counters and spans for one worker process; ``entry`` names the entry
    whose work is being recorded."""

    def __init__(self):
        self.entry = None
        self.stack = []
        self.spans = []
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.failed = Counter()
        self.counters = Counter()
        self._seen_bases = set()

    def start_entry(self, entry_id):
        self.entry = entry_id
        self._seen_bases = set()

    # -- wrappers ------------------------------------------------------------

    def count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name, fn, record_span=False, layer=None, on_result=None):
        """Wrap fn; ``layer(args, kwargs)`` may refine the name per call and
        ``on_result(name, args, kwargs, result)``, run after each call that
        returns, updates counters and returns the span's attributes."""
        stack, spans = self.stack, self.spans
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nm = layer(args, kwargs) if layer else name
            parent = stack[-1] if stack else None
            frame = _Frame(nm, len(spans) if record_span else None)
            if record_span:
                spans.append(None)  # reserve the id so children can refer to it
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = clock() - start
                stack.pop()
                if parent is not None:
                    parent.child += dur
                calls[nm] += 1
                seconds[nm] += dur
                self_seconds[nm] += dur - frame.child
                if not ok:
                    self.failed[nm] += 1
                attrs = on_result(nm, args, kwargs, result) if ok and on_result else {}
                if record_span:
                    spans[frame.span_id] = (
                        self.entry, nm, parent.name if parent else None,
                        parent.span_id if parent else None,
                        start, dur, dur - frame.child, attrs,
                    )
            return result

        return wrapper

    def span(self, name, fn, **kw):
        return self.timed(name, fn, record_span=True, **kw)

    # -- result hooks --------------------------------------------------------

    def _std_basis_attrs(self, name, args, kwargs, result):
        ideal = args[0]
        key = (ideal.ring, ideal.gens, result.order.kind)
        if key in self._seen_bases:
            self.counters["gb.std_basis.repeats"] += 1
        self._seen_bases.add(key)
        if name == "gb.std_basis.elim":
            self.counters["gb.std_basis.elim.out_size"] += len(result.basis)
        return {"order": result.order.kind, "in": len(ideal.gens), "out": len(result.basis)}

    def _rowspace_added(self, name, args, kwargs, result):
        if result:
            self.counters["linalg.rowspace.add.independent"] += 1
        return {}

    def _rowspace_created(self, name, args, kwargs, result):
        # The constructor's own frame is already popped: the top is its caller.
        if self.stack and self.stack[-1].name == "curveinv.delta_reduced":
            self.counters["curveinv.rowspaces"] += 1
        return {}

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the traced functions in the imported equicurve package."""
        mods = {m: importlib.import_module(f"equicurve.{m}") for m in MODULES}
        pkg = importlib.import_module("equicurve")
        sites = list(mods.values()) + [pkg]

        def patch_function(mod, attr, wrapped):
            original = getattr(mods[mod], attr)
            wrapper = wrapped(original)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)

        def patch_method(mod, cls, attr, wrapped):
            klass = getattr(mods[mod], cls)
            setattr(klass, attr, wrapped(getattr(klass, attr)))

        patch_method("poly", "Polynomial", "leading_monomial",
                     lambda f: self.count("poly.leading_monomial", f))
        patch_method("poly", "Polynomial", "term_mul", lambda f: self.timed("poly.term_mul", f))
        patch_function("poly", "parse_poly", lambda f: self.timed("poly.parse_poly", f))

        patch_method("linalg", "RowSpace", "__init__", lambda f: self.timed(
            "linalg.rowspace.init", f, on_result=self._rowspace_created))
        patch_method("linalg", "RowSpace", "add", lambda f: self.timed(
            "linalg.rowspace.add", f, on_result=self._rowspace_added))
        patch_method("linalg", "RowSpace", "contains",
                     lambda f: self.timed("linalg.rowspace.contains", f))

        patch_function("gb", "std_basis", lambda f: self.span(
            "gb.std_basis", f, layer=_std_basis_layer, on_result=self._std_basis_attrs))
        patch_function("gb", "ideal_intersect", lambda f: self.span("gb.ideal_intersect", f))

        patch_function("localdim", "vdim", lambda f: self.span("localdim.vdim", f))
        patch_function("localdim", "hs_multiplicity_of_param",
                       lambda f: self.span("localdim.hs_multiplicity_of_param", f))
        patch_function("localdim", "is_cohen_macaulay",
                       lambda f: self.span("localdim.is_cohen_macaulay", f))
        patch_function("localdim", "epsilon_from_decomposition",
                       lambda f: self.span("localdim.epsilon", f))
        patch_method("localdim", "PrimaryDecomposition", "verify_against",
                     lambda f: self.span("localdim.verify_decomposition", f))
        patch_method("localdim", "PrimaryDecomposition", "intersection",
                     lambda f: self.span("localdim.intersection", f))

        patch_function("curveinv", "invariants", lambda f: self.span("curveinv.invariants", f))
        patch_function("curveinv", "delta_reduced",
                       lambda f: self.span("curveinv.delta_reduced", f))

        patch_function("family", "classify", lambda f: self.span("family.classify", f))
        patch_function("family", "specialize_fiber",
                       lambda f: self.span("family.specialize_fiber", f))
        patch_function("family", "pullback_ideal", lambda f: self.span("family.pullback_ideal", f))

        patch_function("cli", "analyze_manifest", lambda f: self.span("cli.analyze_manifest", f))

    # -- summary -------------------------------------------------------------

    def hs_ladder_steps(self) -> int:
        """vdim calls made directly by hs_multiplicity_of_param."""
        return sum(
            1 for s in self.spans
            if s[1] == "localdim.vdim" and s[2] == "localdim.hs_multiplicity_of_param"
        )

    def totals(self) -> dict:
        """Raw per-pass sums, merged across passes by run.py."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.seconds.items():
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self.self_seconds[name]
        for name, n in self.failed.items():
            out[f"{name}.failed"] = n
        out.update(self.counters)
        out["localdim.hs_ladder_steps"] = self.hs_ladder_steps()
        return out
