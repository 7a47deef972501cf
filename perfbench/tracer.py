"""Spans and counters recorded from outside the program.

Tracer.install() rebinds pbelyi's public functions, in every module that
imported them, to wrappers: layer entry points get a timed span, hot
kernels (element and polynomial arithmetic) only a call count.
uninstall() puts every original back.  Nothing under src/ changes.
"""

import json
import sys
import time
from collections import Counter
from importlib import import_module

from pbelyi.field import FieldElement, FiniteField
from pbelyi.poly import Polynomial
from pbelyi.ratmap import RationalMap

NAME, START, END, PARENT, OP, NESTED = range(6)

CONSTRUCTIONS = (
    "tame_power_map",
    "tame_normalize_small",
    "collapse_map",
    "tame_reduce_recursive",
    "fp_span_of_conjugates",
    "wild_h_tower",
    "wild_phi",
    "wild_belyi_compose",
    "tame_pipeline",
)

# (class, method, counter); counted, never timed
KERNELS = (
    (FieldElement, "__mul__", "field.mul.calls"),
    (FieldElement, "__rmul__", "field.mul.calls"),
    (FieldElement, "inverse", "field.inverse.calls"),
    (FieldElement, "__pow__", "field.pow.calls"),
    (FiniteField, "__init__", "field.fields_built"),
    (Polynomial, "__mul__", "poly.mul.calls"),
    (Polynomial, "__rmul__", "poly.mul.calls"),
    (Polynomial, "__divmod__", "poly.divmod.calls"),
    (Polynomial, "gcd", "poly.gcd.calls"),
    (RationalMap, "__init__", "ratmap.maps_built"),
    (RationalMap, "evaluate", "ratmap.evaluate.calls"),
)


def _verify_span(module_name):
    if module_name == "pbelyi.search":
        return "search.gate"
    if module_name == "pbelyi.constructions":
        return "constructions.reverify"
    return "ramification.verify"


class Tracer:
    """Spans [name, start, end, parent, op, nested] and counters, in memory."""

    def __init__(self, extra_modules=()):
        self.spans = []
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.max_roots_n = 0
        self.op = -1
        self.extra_modules = tuple(extra_modules)
        self._undo = []

    # -- spans

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, self.open[name] > 0])
        self.stack.append(idx)
        self.open[name] += 1
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self.stack.pop()
        self.open[span[NAME]] -= 1

    # -- wrappers

    def _timed(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fields_built(self, fn):
        counts, open_ = self.counts, self.open

        def wrapper(*args, **kwargs):
            counts["field.fields_built"] += 1
            if open_["ramification.analyze"]:
                counts["ramification.fields_built"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin("search.enumerate")
                try:
                    f = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.counts["search.candidates"] += 1
                yield f

        return wrapper

    def _note_roots(self, f, *args, **kwargs):
        self.max_roots_n = max(self.max_roots_n, f.field.n)

    def _note_count(self, curve, m=1, *args, **kwargs):
        self.counts["counting.elements_scanned"] += curve.q ** m

    def _modules(self):
        mods = [m for name, m in sys.modules.items() if name == "pbelyi" or name.startswith("pbelyi.")]
        return mods + list(self.extra_modules)

    def _rebind(self, fn, make):
        """Replace fn in every module namespace that holds it."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, make(mod.__name__))

    def install(self):
        for cls, method, name in KERNELS:
            fn = cls.__dict__.get(method)
            if fn is None:  # the alias or method is gone; nothing to count
                continue
            self._undo.append((cls, method, fn))
            wrapped = self._fields_built(fn) if name == "field.fields_built" else self._counted(name, fn)
            setattr(cls, method, wrapped)
        # the package rebinds some submodule names (pbelyi.factor is a function)
        R, F, C, S, M, FA, CO = (
            import_module("pbelyi." + name)
            for name in ("ramification", "field", "constructions", "search", "ratmap", "factor", "counting")
        )
        for fn in (R.verify_tame_belyi, R.verify_wild_belyi):
            self._rebind(fn, lambda mod, fn=fn: self._timed(_verify_span(mod), fn))
        timed = [
            (S.minimal_belyi_degree, "search.minimal_belyi_degree", None),
            (R.analyze, "ramification.analyze", None),
            (M.wronskian, "ratmap.wronskian", None),
            (FA.factor, "factor.factor", None),
            (FA.roots, "factor.roots", self._note_roots),
            (F.embed, "field.embed", None),
            (CO.count_points, "counting.count_points", self._note_count),
        ]
        timed += [(getattr(C, name), "constructions." + name, None) for name in CONSTRUCTIONS]
        for fn, name, note in timed:
            self._rebind(fn, lambda mod, fn=fn, name=name, note=note: self._timed(name, fn, note))
        enum = S.enumerate_candidates
        self._rebind(enum, lambda mod: self._enumerate(enum))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results

    def busy(self, name):
        """Time inside outermost spans of this name."""
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name and not s[NESTED])

    def self_time(self, names):
        """Span time minus the time direct child spans cover, over the names."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return sum(s[END] - s[START] - child[i] for i, s in enumerate(self.spans) if s[NAME] in names)

    def calls(self, name):
        return sum(1 for s in self.spans if s[NAME] == name)

    def write(self, path):
        """One JSON array per span, times in microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["name", "start_us", "end_us", "parent", "op"]}) + "\n")
            for s in self.spans:
                row = [s[NAME], round((s[START] - t0) * 1e6, 1), round((s[END] - t0) * 1e6, 1), s[PARENT], s[OP]]
                out.write(json.dumps(row) + "\n")
