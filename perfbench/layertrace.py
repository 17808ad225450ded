"""Per-layer spans and counters for the kstab benchmark.

The tracer wraps kstab's public functions from outside the package, so
the program itself carries no tracing code.  Every binding of a wrapped
function object in any kstab module is replaced: a call made through a
name imported with ``from .exactcore import double_integral`` is seen as
well as one made through ``exactcore.double_integral``.

Each wrapped call records a span ``[name, start, end, parent, item]``.
A layer's self time is the time of its spans minus the time of their
child spans.  A few hot entry points are counted without a span, because
a span around them would cost more than the call itself.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

MODULES = ("cli", "runner", "toric", "_linalg", "exactcore", "zariski",
           "functionals", "invariants", "formulas", "githm")

# cli only parses arguments and prints, so it shares the runner's layer.
LAYER_OF = {"cli": "runner", "_linalg": "linalg"}

LAYERS = ("runner", "toric", "linalg", "exactcore", "zariski", "functionals",
          "invariants", "formulas", "githm")

# Public functions called once per coefficient or per serialized value;
# their time stays with the caller.
UNSPANNED = frozenset({"exactcore.rat", "exactcore.rat_str", "runner.encode"})

# Public methods that do a layer's work (the others are accessors).
METHODS = {
    "toric.ToricModel": ("intersection_product", "intersection_form",
                         "curve", "pair_curve_divisor", "nef_check",
                         "effective_check", "effective_coordinates",
                         "triple_intersection_distinct"),
    "functionals.FlagCase": ("inner",),
}

# Hot internals that are counted but get no span.
COUNTED = {
    "exactcore.Poly.__mul__": "exactcore.poly_mul",
    "toric.ToricModel._monomial_uncached": "toric.monomial_computed",
    "zariski._scan": "zariski._scan",
    "zariski._verify_chambers": "zariski._verify_chambers",
}

# Counted internals whose _SplitRequest means the scan split its u-interval.
SPLIT_SOURCES = ("zariski._scan", "zariski._verify_chambers")

# Outcomes counted from a wrapped call: name -> (counter, predicate).
OUTCOMES = {
    "_linalg.solve": ("_linalg.solve.inconsistent", lambda r: r is None),
}

# The call that starts one case; its label tags every span below it.
ITEM_ENTRY = "runner.run_case"


def _item_of(source) -> str:
    if isinstance(source, dict):
        return source.get("label", "<dict>")
    return Path(source).stem


def load_modules() -> dict:
    return {m: importlib.import_module(f"kstab.{m}") for m in MODULES}


class Tracer:
    """Collects spans and call counts while installed.

    ``calls`` counts per ``(item, name)``; ``spans`` holds the spans of
    the calls made since the last ``reset``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.item = None
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)
        is_entry = name == ITEM_ENTRY

        def wrapper(*args, **kwargs):
            if is_entry:
                self.item = _item_of(args[0])
            item = self.item
            calls[item, name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if outcome is not None and outcome[1](result):
                calls[item, outcome[0]] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        calls = self.calls
        split = name in SPLIT_SOURCES

        def wrapper(*args, **kwargs):
            calls[self.item, name] += 1
            if not split:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "_SplitRequest":
                    calls[self.item, "zariski.split"] += 1
                raise

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, scopes, original, wrapper):
        for scope in scopes:
            for attr, value in list(vars(scope).items()):
                if value is original:
                    self._undo.append((scope, attr, value))
                    setattr(scope, attr, wrapper)

    def _targets(self, mods):
        for mname, mod in mods.items():
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                name = f"{mname}.{fname}"
                if (fname.startswith("_") or fn.__module__ != mod.__name__
                        or name in UNSPANNED
                        or inspect.isgeneratorfunction(fn)):
                    continue
                yield name, fn, self._span
        for qual, methods in METHODS.items():
            mname, cname = qual.split(".")
            cls = getattr(mods[mname], cname)
            for meth in methods:
                yield f"{mname}.{meth}", vars(cls)[meth], self._span
        for qual, counter in COUNTED.items():
            mname, *path = qual.split(".")
            obj = mods[mname]
            for p in path:
                obj = vars(obj)[p] if isinstance(obj, type) else getattr(obj, p)
            yield counter, obj, self._count

    @contextmanager
    def installed(self, mods=None):
        """Wrap every target while the block runs, then restore."""
        mods = mods or load_modules()
        scopes = list(mods.values())
        scopes += [v for m in mods.values() for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
        try:
            for name, fn, make in list(self._targets(mods)):
                self._rebind(scopes, fn, make(name, fn))
            yield self
        finally:
            while self._undo:
                scope, attr, value = self._undo.pop()
                setattr(scope, attr, value)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.calls.clear()
        self.item = None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Layer self times, inclusive time per name, and call counts in
        total and per item, as plain JSON-able dicts."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            mod = name.split(".", 1)[0]
            self_s[LAYER_OF.get(mod, mod)] += (end - start) - child[i]
            inclusive[name] += end - start
        totals: Counter = Counter()
        per_item: dict = {}
        for (item, name), n in self.calls.items():
            totals[name] += n
            per_item.setdefault(str(item), {})[name] = n
        return {"self": self_s, "inclusive": dict(inclusive),
                "totals": dict(totals), "per_item": per_item}
