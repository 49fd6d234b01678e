"""Spans and counters around linkrep's public calls, installed from outside.

`Tracer.install` replaces every public function of the layer modules, in
every linkrep namespace that binds it, with a wrapper that records a span
(id, name, start, end, parent id, query id).  Spans stay in memory until
`write`.  `field` is only counted: its scalar and matrix products run
~10^5 times per search, too often for a span each.  `uninstall` restores
every binding.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# layer modules, in the order of the package's dependencies
LAYERS = ("rotation", "diagram", "conditions", "search", "obstructions", "sldfile", "cli")
# (module, class, method) products counted, never timed
COUNTED = (
    ("field", "ExactScalar", "__mul__", "field.scalar_mul_count"),
    ("field", "Matrix3", "__mul__", "field.matmul_count"),
    ("rotation", "RotationElement", "__mul__", "rotation.product_count"),
)
GROUP_BUILD = tuple(
    f"rotation.{f}"
    for f in ("generate_group", "octahedral_group", "tetrahedral_group", "icosahedral_group", "preset_group")
)

Span = Tuple[int, str, float, float, Optional[int], object]  # id, name, start, end, parent, query


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.query: object = None
        self.counts: Counter = Counter()
        # query -> Counter of the search counters, for the per-query table
        self.per_query: Dict[object, Counter] = defaultdict(Counter)
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._cells: Dict[str, List[int]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, on_call=None, after=None):
        """`name` is a span name, or a function of the call's arguments
        returning one."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            span_name = name(args, kwargs) if callable(name) else name
            if on_call:
                on_call()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span_name, start, end, parent, self.query))
            if after:
                after(result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        cell = self._cells.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(self_, other):
            cell[0] += 1
            return fn(self_, other)

        return wrapper

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        self.per_query[self.query][key] += n

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"linkrep.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = self._special(layer, name, obj) or self._spanned(f"{layer}.{name}", obj)
        search = sys.modules["linkrep.search"]
        candidates = self._spanned(
            "conditions.check_relators",
            search.check_relators,
            on_call=lambda: self._bump("search.candidates"),
        )
        namespaces = [sys.modules["linkrep"]] + modules
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if ns is search and name == "check_relators":
                    # calls from inside enumerate_valid_decorations: candidates
                    self._patch(ns, name, candidates)
                elif id(obj) in wrappers:
                    self._patch(ns, name, wrappers[id(obj)])
        for mod_name, cls_name, method, key in COUNTED:
            cls = getattr(importlib.import_module(f"linkrep.{mod_name}"), cls_name)
            self._patch(cls, method, self._counted(key, vars(cls)[method]))

    def _special(self, layer: str, name: str, fn):
        if (layer, name) == ("search", "enumerate_valid_decorations"):
            return self._spanned(
                "search.enumerate_valid_decorations",
                fn,
                after=lambda sols: self._bump("search.solutions", len(sols)),
            )
        if (layer, name) == ("search", "count_classes"):
            return self._spanned(
                lambda a, k: f"search.count_classes[{(a[2] if len(a) > 2 else k['opts']).dedup}]",
                fn,
            )
        return None

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
            cell[0] = 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> duration minus the part of it that child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, start, end, _, _ in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Tuple[Dict[str, float], Counter]:
    own = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, name, *_ in spans:
        seconds[name] += own[sid]
        calls[name] += 1
    return seconds, calls


def layer_metrics(spans: Sequence[Span], counts: Counter) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit)."""
    seconds, calls = self_time_by_name(spans)

    def s(*names: str) -> float:
        return sum(seconds.get(n, 0.0) for n in names)

    def layer(prefix: str) -> float:
        return sum(v for n, v in seconds.items() if n.startswith(prefix + "."))

    candidates, solutions = counts["search.candidates"], counts["search.solutions"]
    out = {
        "field.matmul_count": (counts["field.matmul_count"], "count"),
        "field.scalar_mul_count": (counts["field.scalar_mul_count"], "count"),
        "rotation.group_build_s": (s(*GROUP_BUILD), "s"),
        "rotation.product_count": (counts["rotation.product_count"], "count"),
        "rotation.to_perm_s": (s("rotation.rotation_to_perm"), "s"),
        "search.enumerate_self_s": (s("search.enumerate_valid_decorations"), "s"),
        "search.candidates": (candidates, "count"),
        "search.solutions": (solutions, "count"),
        "search.verify_yield": (solutions / candidates if candidates else 0.0, "ratio"),
        "search.count_classes_so3_s": (s("search.count_classes[so3_canonical]"), "s"),
        "search.count_classes_group_s": (s("search.count_classes[group_conjugacy]"), "s"),
        "search.count_classes_none_s": (s("search.count_classes[none]"), "s"),
        "search.canonical_class_s": (s("search.canonical_class"), "s"),
    }
    for check in ("relators", "sw", "genus0", "selfint"):
        out[f"conditions.{check}_s"] = (s(f"conditions.check_{check}"), "s")
        out[f"conditions.{check}_count"] = (calls[f"conditions.check_{check}"], "count")
    out.update(
        {
            "diagram.validate_count": (calls["diagram.validate"], "count"),
            "diagram.validate_s": (s("diagram.validate"), "s"),
            "diagram.ribbon_genus_s": (s("diagram.ribbon_genus"), "s"),
            "obstructions.bundle_profile_s": (s("obstructions.bundle_profile"), "s"),
            "obstructions.divisibility_s": (
                s(
                    "obstructions.divisibility_obstruction",
                    "obstructions.connected_sum_obstruction",
                    "obstructions.pontryagin_square_diag",
                ),
                "s",
            ),
            "sldfile.parse_s": (s("sldfile.parse"), "s"),
            "sldfile.serialize_s": (s("sldfile.serialize"), "s"),
        }
    )
    for name in LAYERS:
        out[f"{name}.self_s"] = (layer(name), "s")
    return out
