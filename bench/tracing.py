"""Spans around the calls into each fanram module, recorded from outside.

fanram imports functions by name, so each wrapper replaces the name that the
calling module looks up: `cli.check_free`, `search.check_free` and
`colorings.check_free` are three patches of one function. Spans are kept in
memory (name, start, end, parent span, operation id) and written out when
the run ends. The anchored containment check runs once per DFS node, so its
calls are rolled up into one record per parent span instead of one span
each.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("cli", "search", "patterns", "colorings", "graphs", "graph6", "io", "cache")


class Tracer:
    def __init__(self, fanram_modules: dict):
        self.m = fanram_modules
        self.spans: list[tuple] = []
        self.rollups: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.stack: list[list] = []
        self.next_id = 0
        self.op = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stats_objects: list = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        # an exception that escaped a wrapper mid-unwind cannot leave frames
        # behind for the next operation
        self.stack.clear()

    def _call(self, name, layer, fn, args, kwargs, keep):
        parent = self.stack[-1][0] if self.stack else -1
        span_id = self.next_id
        self.next_id += 1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.stack and self.stack[-1] is frame:
                self.stack.pop()
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.calls[name] += 1
            self.seconds[name] += duration
            self.self_s[layer] += duration - frame[1]
            if keep:
                self.spans.append((span_id, name, start, end, parent, self.op))
            else:
                rollup = self.rollups[(name, parent, self.op)]
                rollup[0] += 1
                rollup[1] += duration

    def wrap(self, name: str, layer: str, fn, keep: bool = True, hit=None):
        tracer = self

        def traced(*args, **kwargs):
            result = tracer._call(name, layer, fn, args, kwargs, keep)
            if hit is not None and hit(result):
                tracer.hits[name] += 1
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        m = self.m
        cli, search, patterns = m["cli"], m["search"], m["patterns"]
        colorings, graphs = m["colorings"], m["graphs"]
        io, cache = m["io"], m["cache"]

        def patch(owners, attr, name, layer, **kw):
            fn = getattr(owners[0], attr)
            wrapped = self.wrap(name, layer, fn, **kw)
            for owner in owners:
                self._patch(owner, attr, wrapped)

        patch([cli], "main", "cli.main", "cli")
        patch([search], "ramsey_number", "search.ramsey_number", "search")
        patch([search], "star_critical", "search.star_critical", "search")
        patch([search], "exists_free_coloring", "search.order", "search")
        patch([search], "_seed_coloring", "search.seed", "search")
        patch([search], "_max_free_extension", "search.extension", "search")
        patch([patterns], "contains_target", "patterns.contains_target", "patterns")
        patch([cli, search, colorings], "check_free", "colorings.check_free", "colorings")
        patch([cli], "load_certificate", "colorings.load_certificate", "colorings")
        patch([cli, colorings, io, patterns], "encode", "graph6.encode", "graph6")
        patch([colorings, io, patterns], "decode", "graph6.decode", "graph6")
        patch([io], "load_coloring", "io.load_coloring", "io")
        patch([cli], "cache_lookup", "cache.lookup", "cache", hit=lambda r: r is not None)
        patch([cli], "cache_store", "cache.store", "cache")
        patch([graphs.Graph], "__post_init__", "graphs.validate", "graphs")

        # one wrapper per target kind, so the kind costs nothing to find
        kinds = {
            patterns.Clique: "clique",
            patterns.Fan: "fan",
            patterns.Matching: "matching",
        }
        anchored = search._new_containment
        wrapped = {
            kind: self.wrap(f"patterns.anchored.{kind}", "patterns", anchored,
                            keep=False, hit=bool)
            for kind in ("clique", "fan", "matching", "other")
        }

        def new_containment(rows, n, target, u, v):
            return wrapped[kinds.get(type(target), "other")](rows, n, target, u, v)

        self._patch(search, "_new_containment", new_containment)

        record_from_obj = cache.record_from_obj

        def counted_record(obj):
            self.counts["cache.records_parsed"] += 1
            return record_from_obj(obj)

        self._patch(cache, "record_from_obj", counted_record)

        stats_class = search.SearchStats

        def new_stats(*args, **kwargs):
            stats = stats_class(*args, **kwargs)
            self.stats_objects.append(stats)
            return stats

        self._patch(search, "SearchStats", new_stats)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counters, so a round's figures are a difference."""
        nodes = sum(s.nodes for s in self.stats_objects)
        prunes = sum(s.red_prunes + s.blue_prunes for s in self.stats_objects)
        iso = sum(s.iso_prunes for s in self.stats_objects)
        snap = {"search.nodes": nodes, "search.prunes": prunes, "search.iso_prunes": iso}
        for name in list(self.calls):
            snap[f"{name}.calls"] = self.calls[name]
            snap[f"{name}.s"] = self.seconds[name]
            snap[f"{name}.hits"] = self.hits[name]
        for layer in LAYERS:
            snap[f"{layer}.self_s"] = self.self_s[layer]
        snap.update(self.counts)
        return snap

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
            for (name, parent, op), (calls, seconds) in self.rollups.items():
                fh.write(json.dumps({"name": name, "rollup_calls": calls,
                                     "seconds": seconds, "parent": parent,
                                     "op": op}) + "\n")
