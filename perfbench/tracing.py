"""In-memory span tracer and the timing wrappers of the traced run.

Spans are recorded only while a :class:`Tracer` is installed. Installing
replaces the attributes that callers actually resolve at call time (module
globals and class attributes of the ``emodub`` package) with thin wrappers;
uninstalling puts the originals back, so an untraced op runs the package's
own code with nothing in between.

Each span is ``[name, start_ns, end_ns, parent_index, request_id, fields]``.
Spans nest strictly (the package is single-threaded per call), so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns

NAME, START, END, PARENT, REQUEST, FIELDS = range(6)


class Tracer:
    """Collects spans in memory; :meth:`write_jsonl` dumps them at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: str | None = None
        self.installed = False
        self._wrappers: list[tuple[object, str, object, object]] | None = None

    def open(self, name: str, fields: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, _now(), None, parent, self.request, fields])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, fields: dict | None = None):
        index = self.open(name, fields)
        try:
            yield index
        finally:
            self.close(index)

    def install(self) -> None:
        """Put the wrappers of :func:`_patch_points` in place (built once)."""
        if self._wrappers is None:
            self._wrappers = [
                (owner, attr, owner.__dict__[attr], make(owner.__dict__[attr]))
                for owner, attr, make in _patch_points(self)
            ]
        for owner, attr, _original, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._wrappers or ():
            setattr(owner, attr, original)
        self.installed = False

    def write_jsonl(self, path: str, origin_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, fields in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start - origin_ns,
                            "end_ns": end - origin_ns,
                            "parent": parent,
                            "request": request,
                            "fields": fields or {},
                        }
                    )
                    + "\n"
                )


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _patch_points(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced layer boundary.

    The owner is the namespace the *caller* resolves the name in: for
    example ``evaluate_purity`` looks up ``retrieve_all`` in
    ``emodub.synthetic``, and ``toy_forward`` looks up ``aggregate`` in
    ``emodub.head``.
    """
    from emodub import autodiff, graph, head, library, retrieval, sweeps, synthetic

    def plain(name):
        return lambda fn: _timed(tracer, name, fn)

    def load(fn):
        @functools.wraps(fn)
        def wrapper(path):
            with tracer.span("library.load", {"bytes_read": os.path.getsize(path)}):
                return fn(path)

        return wrapper

    pools: dict[int, tuple] = {}

    def candidate_pool(lib, query, specific: bool) -> int:
        """Records a channel scan scores: the library, or the query speaker's
        records, minus the excluded ids. Per-speaker counts are computed once
        per library object, which is kept alive so its id is not reused."""
        if id(lib) not in pools:
            per_speaker: dict = defaultdict(int)
            for rec in lib.records:
                per_speaker[rec.speaker_id] += 1
            pools[id(lib)] = (lib, per_speaker)
        per_speaker = pools[id(lib)][1]
        pool = per_speaker.get(query.speaker_id, 0) if specific else len(lib.records)
        for rid in query.exclude_ids:
            idx = lib.id_index.get(rid)
            if idx is not None and (not specific or lib.records[idx].speaker_id == query.speaker_id):
                pool -= 1
        return pool

    def channel_scan(fn):
        @functools.wraps(fn)
        def wrapper(lib, query, channel, k, metric=retrieval.Metric.COSINE,
                    mode=retrieval.Mode.SPEAKER_AGNOSTIC):
            pool = candidate_pool(lib, query, mode is retrieval.Mode.SPEAKER_SPECIFIC)
            with tracer.span(f"retrieval.channel.{channel}", {"candidates": pool}):
                return fn(lib, query, channel, k, metric, mode)

        return wrapper

    def gae(fn):
        @functools.wraps(fn)
        def wrapper(graph_, params, with_attention=False):
            with tracer.span(f"graph.gae_encode.{graph_.stage.value}"):
                return fn(graph_, params, with_attention)

        return wrapper

    retrieve_all = plain("retrieval.retrieve_all")
    progressive = plain("graph.progressive_encode")
    uniform = plain("rng.uniform_init")
    return [
        (library, "load_library", load),
        (library, "save_library", plain("library.save")),
        (library, "read_jsonl", plain("library.read_jsonl")),
        (library.FootageLibrary, "subsample", plain("library.subsample")),
        (retrieval, "retrieve_all", retrieve_all),
        (synthetic, "retrieve_all", retrieve_all),
        (head, "retrieve_all", retrieve_all),
        (retrieval, "retrieve_modality", channel_scan),
        (sweeps, "evaluate_purity", plain("synthetic.evaluate_purity")),
        (sweeps, "sweep_metric", plain("sweeps.sweep_metric")),
        (sweeps, "sweep_topk", plain("sweeps.sweep_topk")),
        (sweeps, "sweep_scale", plain("sweeps.sweep_scale")),
        (graph, "progressive_encode", progressive),
        (head, "progressive_encode", progressive),
        (graph, "gae_encode", gae),
        (head, "aggregate", plain("head.aggregate")),
        (head, "cross_attention", plain("autodiff.cross_attention")),
        (head, "conv1d", plain("autodiff.conv1d")),
        (head, "toy_loss", plain("autodiff.forward")),
        (autodiff.Tensor, "backward", plain("autodiff.backward")),
        (autodiff.AdamState, "step", plain("autodiff.adam_step")),
        (autodiff, "uniform_init", uniform),
        (graph, "uniform_init", uniform),
    ]


# --- analysis ---------------------------------------------------------------


def self_times_ns(spans: list[list]) -> list[int]:
    """Span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def coverage(spans: list[list], root: str) -> float:
    """Share of the ``root`` spans' wall time that their named children cover."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    total = covered = 0
    for i, s in enumerate(spans):
        if s[NAME] == root:
            total += s[END] - s[START]
            covered += child_ns[i]
    return covered / total if total else 0.0


def per_layer(spans: list[list]) -> dict[str, dict]:
    """Per span name: median self time per call, and the recorded field values."""
    selfs = self_times_ns(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    fields: dict[str, dict] = defaultdict(lambda: defaultdict(list))
    for s, self_ns in zip(spans, selfs):
        by_name[s[NAME]].append(self_ns)
        for key, value in (s[FIELDS] or {}).items():
            fields[s[NAME]][key].append(value)
    return {
        name: {
            "self_median_ns": statistics.median(values),
            "fields": {k: v for k, v in fields[name].items()},
        }
        for name, values in by_name.items()
    }
