"""Span tracing of kakeyalab layers from outside the package.

Every public function defined in a kakeyalab module is wrapped, at every
name it is bound to (``verify`` does ``from .harmonic import
fourier_forward``, the package ``__init__`` re-exports most names), so a
call through any of them opens a span.  Functions are found by walking
the modules, so the tracer keeps working when a later change deletes or
adds one.  ``lru_cache`` functions open a span only when they miss.  The
``ring`` layer (its functions and ``RingContext.rank``/``unrank``) is
counted without spans: ``rank`` runs over a million times in one search
pass at full size, and geometry calls ``crt_combine_scalar`` hundreds of
thousands of times, so a span each would swamp the pass.

Spans stay in memory (one list per span: name, start, end, parent index,
work item) and are written out once, by :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))

# Modules whose functions are counted, not spanned.
COUNT_MODULES = ("ring",)
# Methods traced as spans / counted only.  A missing one is skipped.
METHOD_SPANS = ("harmonic.Spectrum.correlations",)
METHOD_COUNTS = ("ring.RingContext.rank", "ring.RingContext.unrank")
# The transforms get one span name per lane, read from the argument.
LANE_SPLIT = ("harmonic.fourier_forward", "harmonic.fourier_inverse")
# Counters read off a traced function's result.
RESULT_COUNTS = {
    "search.exact_min_kakeya": ("search.exact.optimal", lambda cert: int(cert.optimal)),
    "serialize.reports_to_json": ("serialize.report_bytes", lambda text: len(text.encode())),
}

# Per-layer metric stem -> the spans whose time and calls it sums.  A span
# nested inside another span of the same group counts once, through the
# outer one.  Groups whose functions no longer exist read 0.
GROUPS = {
    "harmonic.fourier_forward.exact": ("harmonic.fourier_forward.exact",),
    "harmonic.fourier_forward.float": ("harmonic.fourier_forward.float",),
    "harmonic.fourier_inverse.exact": ("harmonic.fourier_inverse.exact",),
    "harmonic.fourier_inverse.float": ("harmonic.fourier_inverse.float",),
    "harmonic.correlations": ("harmonic.Spectrum.correlations",),
    "harmonic.xray_all": ("harmonic.xray_all",),
    "harmonic.band_project": ("harmonic.band_project",),
    "harmonic.xray_transform": ("harmonic.xray_transform",),
    "harmonic.induce_to_modulus": ("harmonic.induce_to_modulus",),
    "cyclotomic.reduce": ("cyclotomic.reduce_mod_cyclotomic",),
    "maximal.line_maximal": ("maximal.line_maximal",),
    "maximal.flat_maximal": ("maximal.flat_maximal",),
    "maximal.constants": ("maximal.appendix_constant", "maximal.chain_constant",
                          "harmonic.band_constant"),
    "geometry.enumerate": ("geometry.enumerate_proj", "geometry.enumerate_grassmannian"),
    "geometry.quotient_chart": ("geometry.quotient_chart",),
    "geometry.flat_points": ("geometry.flat_points",),
    "search.greedy": ("search.greedy_kakeya",),
    "search.exact": ("search.exact_min_kakeya",),
    "search.certify": ("search.certify",),
    "verify.radiusN": ("verify.verify_radius_lemma",),
    "verify.plancherel": ("verify.verify_plancherel",),
    "verify.xray-l2": ("verify.verify_xray_l2",),
    "verify.freqbound": ("verify.verify_freqbound",),
    "verify.divisor-reduction": ("verify.verify_divisor_reduction",),
    "verify.projmax": ("verify.verify_projmax",),
    "verify.rounding": ("verify.verify_rounding",),
    "verify.maxest": ("verify.verify_maxest",),
    "verify.main-theorem": ("verify.verify_main_theorem",),
    "verify.besicovitch": ("verify.verify_besicovitch", "verify.verify_besicovitch_suite"),
    "verify.random_density": ("verify.random_density",),
    "serialize.reports_to_json": ("serialize.reports_to_json",),
    "cli.main": ("cli.main",),
}


def kakeyalab_modules() -> dict[str, object]:
    """Short name -> module, for every kakeyalab submodule but ``__main__``."""
    import kakeyalab

    return {info.name: importlib.import_module(f"kakeyalab.{info.name}")
            for info in pkgutil.iter_modules(kakeyalab.__path__)
            if info.name != "__main__"}


def clear_caches() -> None:
    """Empty every lru_cache in the package, as a fresh process would have it."""
    for mod in kakeyalab_modules().values():
        for obj in vars(mod).values():
            if not isinstance(obj, _LRU_TYPE):  # maybe under a Tracer wrapper
                obj = getattr(obj, "__wrapped__", None)
            if isinstance(obj, _LRU_TYPE) and obj.__module__ == mod.__name__:
                obj.cache_clear()


class Tracer:
    """In-memory spans and counters, split by phase ("setup" or "pass")."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (phase, name) -> amount
        self.phase = "setup"
        self.item = "setup"
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def add(self, name: str, amount=1) -> None:
        self.counts[(self.phase, name)] += amount

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        lane = name in LANE_SPLIT
        counter, measure = RESULT_COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(f"{name}.{args[0].lane}" if lane else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                self.add(counter, measure(result))
            return result
        return traced

    def _cached_wrapper(self, name: str, fn):
        in_tables = name.startswith("tables.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if fn.cache_info().misses == misses:
                # a hit runs no code, so this span is still the last one
                self.spans.pop()
                if in_tables:
                    self.add("tables.hits")
            elif in_tables:
                self.add("tables.misses")
                if isinstance(result, np.ndarray):
                    self.add("tables.bytes", result.nbytes)
            return result
        return traced

    def _count_wrapper(self, name: str, fn):
        key = f"{name.split('.', 1)[0]}.{fn.__name__}.calls"
        counts, tracer = self.counts, self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(tracer.phase, key)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every public kakeyalab function at every name bound to it."""
        modules = kakeyalab_modules()
        wrappers: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if isinstance(obj, _LRU_TYPE):
                    wrappers[id(obj)] = self._cached_wrapper(name, obj)
                elif inspect.isfunction(obj) and short in COUNT_MODULES:
                    wrappers[id(obj)] = self._count_wrapper(name, obj)
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = self._span_wrapper(name, obj)
        for spec, make in ((METHOD_SPANS, self._span_wrapper),
                           (METHOD_COUNTS, self._count_wrapper)):
            for dotted in spec:
                short, cls_name, meth = dotted.split(".")
                cls = getattr(modules.get(short), cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, make(dotted, vars(cls)[meth]))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "kakeyalab" or n.startswith("kakeyalab.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def metrics(self, passes: int) -> dict[str, float]:
        """Each metric is its set-up amount plus its mean amount per pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        group_of = {span: stem for stem, names in GROUPS.items() for span in names}

        def has_ancestor(i: int, pred) -> bool:
            j = spans[i][3]
            while j >= 0:
                if pred(spans[j][0]):
                    return True
                j = spans[j][3]
            return False

        # summed separately per phase, so whole counts stay whole
        sums = {"setup": Counter(), "pass": Counter()}
        for i, (name, start, end, _, item) in enumerate(spans):
            acc = sums["setup" if item.startswith("setup") else "pass"]
            dur = end - start
            acc[f"{name.split('.', 1)[0]}.self_s"] += dur - child_time[i]
            stem = group_of.get(name)
            if stem is not None:
                acc[f"{stem}.calls"] += 1
                if not has_ancestor(i, lambda n: group_of.get(n) == stem):
                    acc[f"{stem}.s"] += dur
            if name.startswith("tables.") and not has_ancestor(
                    i, lambda n: n.startswith("tables.")):
                acc["tables.build_s"] += dur
        for (phase, name), amount in self.counts.items():
            sums[phase][name] += amount

        names = {f"{stem}.{kind}" for stem in GROUPS for kind in ("s", "calls")}
        names |= {f"{short}.self_s" for short in kakeyalab_modules()}
        names |= {"tables.build_s", "tables.hits", "tables.misses", "tables.bytes",
                  "ring.rank.calls", "ring.unrank.calls", "search.exact.optimal",
                  "serialize.report_bytes"}
        names |= set(sums["setup"]) | set(sums["pass"])
        out = {name: sums["setup"][name] + sums["pass"][name] / max(passes, 1)
               for name in names}
        exact_calls = out["search.exact.calls"]
        out["search.exact.optimal_share"] = (out.pop("search.exact.optimal") / exact_calls
                                             if exact_calls else 0.0)
        out["verify.densities"] = out["verify.random_density.calls"]
        return out
