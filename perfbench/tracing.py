"""Per-layer spans for the jordanlab modules, recorded from outside the library.

``Tracer.installed()`` replaces each traced function in every jordanlab
module namespace that binds it, and each traced method on its class, so
internal calls between modules are caught too; leaving the block restores
the originals.  A span records its calls, its inclusive time and the time
covered by child spans; self time is the difference.  The hooks that count
matmul entry bits and accepted span adds run outside the span they count,
and their time is left out of every enclosing span.  Spans only record
while ``Tracer.enabled`` is set, which the benchmark holds exactly around
each timed library call.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" names a method.
SPANS = {
    "cli.run": ("cli", "run"),
    "polynomials.rational_roots": ("polynomials", "rational_roots"),
    "polynomials.squarefree_part": ("polynomials", "squarefree_part"),
    "polynomials.poly_ext_gcd": ("polynomials", "poly_ext_gcd"),
    "matrices.matmul": ("matrices", "QMatrix.__matmul__"),
    "matrices.qmatrix_init": ("matrices", "QMatrix.__post_init__"),
    "matrices.rank": ("matrices", "rank"),
    "matrices.nullspace_basis": ("matrices", "nullspace_basis"),
    "matrices.inverse": ("matrices", "inverse"),
    "matrices.char_poly": ("matrices", "char_poly"),
    "matrices.is_nilpotent": ("matrices", "is_nilpotent"),
    "matrices.poly_at_matrix": ("matrices", "poly_at_matrix"),
    "matrices.int_normalized": ("matrices", "int_normalized"),
    "matrices.span_add": ("matrices", "SpanBuilder.add"),
    "matrices.span_basis": ("matrices", "SpanBuilder.basis_vectors"),
    "freealg.normal_form": ("freealg", "normal_form"),
    "freealg.reduce_poly": ("freealg", "reduce_poly"),
    "freealg.multiply": ("freealg", "multiply"),
    "freealg.apply_automorphism": ("freealg", "apply_automorphism"),
    "reps.rep_verify": ("reps", "RepPair.__post_init__"),
    "reps.conjugate": ("reps", "conjugate"),
    "reps.fiber_basis": ("reps", "fiber_basis"),
    "reps.evaluate": ("reps", "evaluate"),
    "reps.faithful_witness": ("reps", "faithful_witness"),
    "imagealg.image_algebra": ("imagealg", "image_algebra"),
    "imagealg.radical_basis": ("imagealg", "radical_basis"),
    "imagealg.idempotents": ("imagealg", "idempotents"),
    "imagealg.quiver": ("imagealg", "quiver"),
    "imagealg.ideal_codim": ("imagealg", "ideal_codim"),
    "strata.census": ("strata", "census"),
    "strata.decompose": ("strata", "decompose"),
    "strata.jacobian_rank": ("strata", "jacobian_rank"),
    "sampling.rand_rep": ("sampling", "rand_rep"),
}

# Counters kept beside the spans; bits_max merges by maximum, the rest by sum.
COUNTERS = ("freealg.rewrite_steps", "matrices.span_add.accepted",
            "matrices.bits_max", "reps.fiber_basis.misses")


def _bits(value) -> int:
    if type(value) is Fraction:
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = dict.fromkeys(SPANS, 0)
        self.inclusive = dict.fromkeys(SPANS, 0.0)
        self.children = dict.fromkeys(SPANS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # Time spent in the counting hooks so far; every open span leaves it out.
        self.hidden = 0.0
        self._open: list = []  # child time accumulated by each open span

    def _span(self, name: str, fn, after=None):
        tracer = self
        open_spans = self._open

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            hidden = tracer.hidden
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (tracer.hidden - hidden)
                tracer.calls[name] += 1
                tracer.inclusive[name] += elapsed
                tracer.children[name] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if after is not None:
                began = perf_counter()
                after(result)
                tracer.hidden += perf_counter() - began
            return result

        for attr in ("__name__", "__qualname__", "__doc__", "cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _count_call(self, name: str, fn):
        counters = self.counters
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after(self, name: str):
        counters = self.counters
        if name == "matrices.matmul":
            def after(result):
                bits = max(map(_bits, result.entries), default=0)
                if bits > counters["matrices.bits_max"]:
                    counters["matrices.bits_max"] = bits
            return after
        if name == "matrices.span_add":
            def after(result):
                if result:
                    counters["matrices.span_add.accepted"] += 1
            return after
        return None

    @contextmanager
    def installed(self):
        """Wrap every traced name in the loaded jordanlab modules."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "jordanlab" or key.startswith("jordanlab.")]
        restore = []

        def patch(target, attr, value):
            restore.append((target, attr, getattr(target, attr)))
            setattr(target, attr, value)

        for name, (modname, attr) in SPANS.items():
            module = importlib.import_module("jordanlab." + modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, self._span(name, cls.__dict__[method], self._after(name)))
                continue
            original = getattr(module, attr)
            traced = self._span(name, original, self._after(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patch(m, key, traced)
        rewrite = importlib.import_module("jordanlab.freealg").RewriteSystem
        patch(rewrite, "leftmost_match",
              self._count_call("freealg.rewrite_steps", rewrite.leftmost_match))
        fiber_basis = importlib.import_module("jordanlab.reps").fiber_basis
        misses = fiber_basis.cache_info().misses
        try:
            yield self
        finally:
            self.counters["reps.fiber_basis.misses"] += fiber_basis.cache_info().misses - misses
            for target, attr, value in reversed(restore):
                setattr(target, attr, value)

    # -- aggregation -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "children": dict(self.children), "counters": dict(self.counters)}

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process."""
        for table in ("calls", "inclusive", "children"):
            mine = getattr(self, table)
            for name, value in snap[table].items():
                mine[name] += value
        for name, value in snap["counters"].items():
            if name == "matrices.bits_max":
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value

    def scale(self, factor: float) -> None:
        """Multiply every span time by a speed factor."""
        for table in (self.inclusive, self.children):
            for name in table:
                table[name] *= factor

    def counts(self) -> dict:
        """Every count the benchmark expects to repeat exactly for one seed."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counters)
        return out
