"""Span recording around tiermem's stage functions, from outside the library.

`TieredMemory.ingest_frame` and `retrieve` look their stage functions up in
the `tiermem.tiers` and `tiermem.retrieval` module namespaces at call time,
so replacing those names with timing wrappers traces every stage without
touching the library. Only the traced benchmark process calls `install`.

A span is [name, start_ns, end_ns, parent index, request id, attributes].
Spans stay in memory and are written out once, at the end of the run.
Counts are taken at the same boundaries as the spans: from the arguments
before the clock starts, from the result after it stops. A count that needs
a walk over the tiers (forget's tokens scanned) runs inside its own span,
so it lands in that stage's time rather than in the caller's self time.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def start(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.request, attrs])
        self._stack.append(index)
        self.spans[index][1] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def annotate(self, index: int, attrs: dict) -> None:
        span = self.spans[index]
        span[5] = {**(span[5] or {}), **attrs}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request,
                                     "attrs": attrs or {}}) + "\n")


def _wrap(tracer: Tracer, owner, attr: str, name: str, inside=None, after=None) -> None:
    """Replace owner.attr with a function that records one span per call."""
    fn = getattr(owner, attr)

    def traced(*args, **kwargs):
        index = tracer.start(name)
        try:
            if inside is not None:
                tracer.annotate(index, inside(*args))
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            tracer.annotate(index, after(result, *args))
        return result

    setattr(owner, attr, traced)


def _tokens(entries) -> int:
    return sum(e.token_count for e in entries)


def _forget_scan(mem) -> dict:
    # selective_forget sorts the whole long tier once the budget overflows,
    # and the mid tier too if evicting all of long does not suffice.
    overflow = mem.total_tokens - mem.config.token_budget
    if overflow <= 0:
        return {"scanned": 0}
    long_tokens = _tokens(mem.long)
    return {"scanned": long_tokens + (_tokens(mem.mid) if overflow > long_tokens else 0)}


def install(tm, tracer: Tracer) -> None:
    """Wrap the stages `ingest_frame` and `retrieve` call, plus the entry points."""
    tiers, retrieval = tm.tiers, tm.retrieval
    _wrap(tracer, tiers.TieredMemory, "ingest_frame", "tiers.ingest_frame")
    _wrap(tracer, tiers.TieredMemory, "freeze", "tiers.freeze")
    _wrap(tracer, tiers.TieredMemory, "thaw", "tiers.thaw")
    _wrap(tracer, tiers, "encode_tokens", "tiers.encode_tokens",
          after=lambda r, *a: {"tokens": len(r)})
    # ingest_frame calls pooled_max_sim_units only to decide the scene boundary.
    _wrap(tracer, tiers, "pooled_max_sim_units", "tiers.scene_boundary")
    _wrap(tracer, tiers, "temporal_semantic_prune", "tiers.temporal_semantic_prune",
          after=lambda r, frame, *a: {"tokens_in": frame.token_count,
                                      "tokens_kept": r.token_count,
                                      "spared": int(frame.scene_boundary)})
    _wrap(tracer, tiers, "spatial_semantic_select", "tiers.spatial_semantic_select",
          after=lambda r, frame, *a: {"tokens_in": frame.token_count,
                                      "tokens_kept": r.token_count})
    _wrap(tracer, tiers, "selective_forget", "tiers.selective_forget",
          inside=_forget_scan, after=lambda r, *a: {"evicted": r.count})
    _wrap(tracer, retrieval, "retrieve", "retrieval.retrieve")
    _wrap(tracer, retrieval, "gate_check", "retrieval.gate_check")
    _wrap(tracer, retrieval, "score_candidates", "retrieval.score_candidates",
          after=lambda r, snap, *a: {"candidates": len(r),
                                     "tokens": _tokens(snap.mid) + _tokens(snap.long)})
    _wrap(tracer, retrieval, "adaptive_select", "retrieval.adaptive_select",
          after=lambda r, *a: {"selected": len(r)})


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed attributes."""
    out: dict[str, dict] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, _, _, attrs = span
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "min": {}})
        agg["calls"] += 1
        agg["s"] += (end - start) / 1e9
        agg["self_s"] += self_ns / 1e9
        for key, value in (attrs or {}).items():
            agg[key] = agg.get(key, 0) + value
            agg["min"][key] = min(agg["min"].get(key, value), value)
    return out
