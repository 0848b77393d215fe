"""Spans around the benchmark's calls into each layer of gamma2cat.

A layer is a module of the package.  The benchmark calls the package only
through an :class:`Api`; a traced ``Api`` wraps each public function in a
span that records its name, layer, start, end and parent.  A few public
functions are reached only through another one (``ko_level``, ``kt_level``
and ``ko_phi`` inside ``ko_gamma``/``kt_gamma``; ``segal_map`` and
``two_equivalence_check`` inside ``special_check``;
``generated_kt_truncation`` inside ``bounded_unit_target``), so the traced
run also rebinds those module attributes to the same wrappers.  The untraced
run patches nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("twocat", "monoidal", "gamma", "ktheory", "inversek", "adjunction", "cli")

# The public function each workload calls, by layer.
API = {
    "twocat": ("validate_two_category",),
    "monoidal": ("promote",),
    "gamma": ("validate_gamma", "special_check", "very_special_check", "e_construction",
              "validate_espan", "e_adjunction_check", "validate_transformation_gamma"),
    "ktheory": ("ko_gamma", "ko_level", "kt_level"),
    "inversek": ("validate_p_truncation",),
    "adjunction": ("triangle_P", "triangle_K", "bounded_unit_target", "unit_map",
                   "lambda_of"),
    "cli": ("resolve_fixture",),
}

# Module attributes the traced run rebinds, so that calls made inside the
# package through that module's namespace reach the wrapper.
NESTED = (("ktheory", "ko_level"), ("ktheory", "kt_level"), ("ktheory", "ko_phi"),
          ("ktheory", "generated_kt_truncation"),
          ("gamma", "segal_map"), ("gamma", "two_equivalence_check"))

# Per-layer time metrics: the summed duration of the outermost spans with
# one of these names.  A generated truncation's span holds its closure under
# the transition maps and those maps (also in ``ktheory.transition_s``) as
# well as its level builds.
SPAN_TIMES = {
    "ktheory.level_build_s": ("ko_level", "kt_level", "generated_kt_truncation"),
    "ktheory.transition_s": ("ko_phi",),
    "twocat.validate_s": ("validate_two_category",),
    "twocat.equivalence_s": ("two_equivalence_check",),
    "gamma.validate_s": ("validate_gamma",),
    "gamma.special_s": ("special_check",),
    "gamma.espan_s": ("e_construction", "validate_espan", "e_adjunction_check"),
    "inversek.p_trunc_s": ("validate_p_truncation",),
    "adjunction.triangle_s": ("triangle_P", "triangle_K"),
    "cli.fixture_load_s": ("resolve_fixture",),
    "monoidal.promote_s": ("promote",),
}

# Per-layer instance counts: the summed ``checked`` of the reports returned.
INSTANCES = {
    "twocat.validate_instances": ("validate_two_category",),
    "gamma.validate_instances": ("validate_gamma",),
    "gamma.espan_instances": ("validate_espan", "e_adjunction_check"),
    "inversek.p_trunc_instances": ("validate_p_truncation",),
    "adjunction.triangle_instances": ("triangle_P", "triangle_K"),
}


def _module(layer: str):
    return importlib.import_module(f"gamma2cat.{layer}")


class Tracer:
    """Spans kept in memory: ``[name, layer, parent, start, end]`` each,
    with ``parent`` the index of the enclosing span or ``None``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn):
        """``fn`` with a span around each call, in the layer defining it."""
        if getattr(fn, "__traced__", False):
            return fn
        name, layer = fn.__name__, fn.__module__.rpartition(".")[2]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, layer, parent, self.clock(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                self._stack.pop()
            self._count(name, out)
            return out

        traced.__traced__ = True
        return traced

    def _count(self, name: str, out) -> None:
        # Counts are taken as each call returns, so the traced run keeps no
        # more of the package's results alive than the untraced one.
        if name in ("ko_level", "kt_level"):
            self._count_level(out)
        elif name == "generated_kt_truncation":
            for level in out.levels:
                self._count_level(level)
        for metric, names in INSTANCES.items():
            if name in names:
                self.counts[metric] += out.checked

    def _count_level(self, level) -> None:
        self.counts["ktheory.table_entries"] += (
            len(level.vcomp_table) + len(level.hcomp1_table) + len(level.hcomp2_table))
        self.counts["ktheory.level_cells"] += sum(level.counts())


class Api:
    """The package's public functions by name; traced when given a tracer."""

    def __init__(self, tracer: Tracer | None = None):
        if tracer is not None:
            for layer, name in NESTED:
                mod = _module(layer)
                setattr(mod, name, tracer.wrap(getattr(mod, name)))
        for layer, names in API.items():
            mod = _module(layer)
            for name in names:
                fn = getattr(mod, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(fn))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, (_, _, parent, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][3], spans[c][4]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _outermost_time(spans, names) -> float:
    total = 0.0
    for name, _, parent, start, end in spans:
        if name not in names:
            continue
        p = parent
        while p is not None and spans[p][0] not in names:
            p = spans[p][2]
        if p is None:
            total += end - start
    return total


def pool_sizes() -> dict[str, int]:
    """Sizes of the package's process-global intern pools and caches."""
    kt, ik, adj = _module("ktheory"), _module("inversek"), _module("adjunction")
    return {
        "ktheory.interned_cells": sum(len(c._pool) for c in
                                      (kt.SubsetSystem, kt.SystemMap, kt.SystemTwoCell)),
        "ktheory.cache_entries": len(kt._REINDEX_CACHE) + len(kt._REINDEX_MAP_CACHE)
                                 + len(kt._COMPOSE_CACHE),
        "inversek.interned_cells": sum(len(c._pool) for c in
                                       (ik.AMorphism, ik.GrothObj, ik.GrothOne, ik.GrothTwo)),
        "adjunction.eta_cache_entries": len(adj._ETA_CACHE) + len(adj._ETA_PHI_CACHE),
    }


def summarize(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run, from its spans and counts."""
    spans = tracer.spans
    out: dict[str, float] = {}
    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((s for s, sp in zip(selfs, spans) if sp[1] == layer), 0.0)
    for metric, names in SPAN_TIMES.items():
        out[metric] = _outermost_time(spans, names)
    counts = tracer.counts
    for metric in ("ktheory.table_entries", "ktheory.level_cells", *INSTANCES):
        out[metric] = counts[metric]
    cells = counts["ktheory.level_cells"]
    out["ktheory.entries_per_cell"] = counts["ktheory.table_entries"] / cells if cells else 0.0
    out.update(pool_sizes())
    return out
