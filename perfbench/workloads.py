"""The benchmark workloads: inputs, set-up, one op, and output checks.

Every workload is a closed loop with one client. The runner calls
``prepare`` once (untimed input generation from the seed, the large
inputs written by a child process), then
``before(i)`` (untimed) and ``op(i)`` (timed) per op, ``check(i, out)``
after each op, and ``finish`` at the end. ``setup`` runs several times,
spread evenly over the op loop (timed, the ``setup_s`` metric); each set-up
replaces the previous one's state, after ``reset``, and is followed by
``arm`` (untimed bookkeeping for the checks). The loop ends on a multiple
of ``cycle`` ops. A check raises :class:`CheckError`; the runner counts
that op as failed.

The package is driven only through its public modules, resolved as module
attributes at call time so the traced run's wrappers see the same calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import struct
from dataclasses import dataclass

import numpy as np

from emodub import autodiff, graph, head, library, retrieval, rng, sweeps, synthetic


class CheckError(Exception):
    """An output of the program differs from what the benchmark expects."""


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the defaults are the benchmark's."""

    setups: int = 5
    # query-10k
    query_n: int = 10_000
    encode_dim: int = 256
    oracle_every: int = 8
    # train-256 (the train-toy fixture at dim 256)
    train_dim: int = 256
    train_length: int = 8
    train_mel: int = 16
    train_lib: int = 24
    train_epoch: int = 200
    # sweep-mix
    ingest_n: int = 10_000
    sweep_n: int = 200
    sweep_metric_k: tuple[int, ...] = (1, 8)
    sweep_fractions: tuple[float, ...] = (0.25, 0.5, 1.0)


VEC_DIM = 8
CLUSTERS = 4
SPEAKERS = 4
# Retrieval width of query-10k, of the train-toy fixture, and of the
# sweep_topk and sweep_scale cells.
TOP_K = 3
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def clustered_records(seed: int, n: int, separation: float) -> list[tuple]:
    """Labeled clustered records drawn from numpy's generator.

    The benchmark makes its inputs itself, so they do not depend on the
    package's own generator. Record ids are distinct random 40-bit values,
    so no code can assume that an id equals a position. Each record is
    ``(record_id, movie, speaker, label, 5 x VEC_DIM vectors)``.
    """
    g = np.random.default_rng([seed, n])
    ids = g.permutation(np.unique(g.integers(0, 1 << 40, size=2 * n))[:n])
    if ids.shape[0] != n:
        raise RuntimeError("id draw produced too few distinct values")
    labels = np.arange(n) % CLUSTERS
    vectors = g.standard_normal((n, 5, VEC_DIM))
    vectors[np.arange(n), :, labels] += separation / math.sqrt(2.0)
    return [
        (int(ids[i]), f"movie_{i % 4}", f"speaker_{i % SPEAKERS}", f"cluster_{labels[i]}", vectors[i])
        for i in range(n)
    ]


def mrfl_bytes(records: list[tuple]) -> bytes:
    """The documented ``.mrfl`` layout, written independently of the package."""
    buf = bytearray(b"MRFL")
    buf += struct.pack("<I5IQ", 1, *([VEC_DIM] * 5), len(records))
    for rid, movie, speaker, label, vectors in records:
        buf += struct.pack("<Q", rid)
        for s in (movie, speaker, label):
            raw = s.encode("utf-8")
            buf += struct.pack("<I", len(raw)) + raw
        buf += vectors.astype("<f8").tobytes()
    return bytes(buf)


def jsonl_text(records: list[tuple]) -> str:
    """The documented JSONL interchange form; floats in shortest repr."""
    names = ("scene", "face", "text_self", "text_react", "audio")
    lines = []
    for rid, movie, speaker, label, vectors in records:
        obj = {"record_id": rid, "movie_id": movie, "speaker_id": speaker, "emotion_label": label}
        obj.update(zip(names, vectors.tolist()))
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digest(path: str) -> str:
    """SHA-256 of a file, read in chunks so no copy of it is held."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_library(mrfl_path: str, jsonl_path: str | None, seed: int, n: int, separation: float) -> None:
    """Write the ``clustered_records`` library as ``.mrfl`` and, if asked, as JSONL."""
    records = clustered_records(seed, n, separation)
    with open(mrfl_path, "wb") as fh:
        fh.write(mrfl_bytes(records))
    if jsonl_path is not None:
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            fh.write(jsonl_text(records))


def in_child(fn, *args) -> None:
    """Run ``fn(*args)`` in a forked child process and wait until it ends.

    Input generation runs there: its allocations (about 40 MB for a
    10^4-record JSONL library) would otherwise set this process's peak RSS,
    the ``peak_rss_mb`` metric, above what the program itself reaches.
    """
    child = multiprocessing.get_context("fork").Process(target=fn, args=args)
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"input generation exited with code {child.exitcode}")


def params_digest(params) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(p.name.encode("utf-8"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


class Workload:
    """Base class of the workloads; see the module docstring for the calls."""

    name = ""
    cycle = 1
    # The kind of run.HostProbe that follows the host's speed as the ops
    # feel it: retrieval's per-record scans are many small numpy calls.
    probe = "calls"

    def __init__(self, sizes: Sizes, seed: int, workdir: str, tracer=None):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.param_count = 0
        self.facts: dict = {}

    def span(self, name: str):
        """A span from the benchmark's own code, recorded only while tracing."""
        if self.tracer is not None and self.tracer.installed:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        """Drop the previous set-up's state before the next set-up."""

    def setup(self) -> str:
        """Timed set-up; returns a fingerprint that must repeat across set-ups."""
        raise NotImplementedError

    def arm(self) -> None:
        """Untimed work after each set-up."""

    def before(self, i: int) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass


# --- query-10k --------------------------------------------------------------


def oracle_ranking(lib, query, channel: str, k: int) -> list[tuple[int, float]]:
    """Brute-force top-K on the scalar ``similarity`` (cosine, agnostic).

    Ordered by (score desc, id asc). The text channel scores the mean of
    the self-half and react-half similarities.
    """
    sim, cos = retrieval.similarity, retrieval.Metric.COSINE
    scored = []
    for rec in lib.records:
        if rec.record_id in query.exclude_ids:
            continue
        if channel == "text":
            score = 0.5 * (
                sim(cos, query.text_self, rec.text_self) + sim(cos, query.text_react, rec.text_react)
            )
        else:
            score = sim(cos, getattr(query, channel), getattr(rec, channel))
        scored.append((-score, rec.record_id))
    scored.sort()
    return [(rid, -neg) for neg, rid in scored[:k]]


def check_retrieval(lib, query, result, k: int) -> None:
    """Rankings and 17-digit scores equal the oracle in every channel."""
    for channel in retrieval.CHANNELS:
        got = result.rankings[channel]
        want = oracle_ranking(lib, query, channel, k)
        if [(rid, f"{s:.17g}") for rid, s in got] != [(rid, f"{s:.17g}") for rid, s in want]:
            raise CheckError(f"{channel} ranking differs from the brute-force oracle")


def check_encoding(result, enc, k: int) -> None:
    """Stage shapes 3, 3+3K and 3+6K rows, with finite features."""
    hits = sum(len(result.rankings[c]) for c in retrieval.CHANNELS)
    if hits != 3 * k:
        raise CheckError(f"expected {3 * k} retrieval hits, got {hits}")
    for name, mat, rows in (
        ("basic", enc.h_basic, 3),
        ("indirect", enc.h_indirect, 3 + hits),
        ("direct", enc.h_direct, 3 + 2 * hits),
    ):
        if mat.data.shape[0] != rows:
            raise CheckError(f"{name} stage has {mat.data.shape[0]} rows, expected {rows}")
        if not np.isfinite(mat.data).all():
            raise CheckError(f"{name} stage features are not finite")


class Query10k(Workload):
    """One conditioning request: retrieve_all, then a forward-only encode."""

    name = "query-10k"

    def prepare(self):
        in_child(write_library, self.path("query.mrfl"), None, self.seed, self.sizes.query_n, 8.0)
        g = np.random.default_rng([self.seed, 17])
        self.requests = g.integers(0, self.sizes.query_n, size=4096)

    def reset(self):
        self.lib = self.proj = self.gae = None

    def setup(self):
        s = self.sizes
        self.lib = library.load_library(self.path("query.mrfl"))
        schema = self.lib.schema
        M = library.Modality
        with self.span("head.init"):
            stream = rng.stream(self.seed, "params")
            self.proj = graph.ProjectionParams.init(
                schema[M.SCENE], schema[M.FACE], schema[M.TEXT_SELF] + schema[M.TEXT_REACT],
                schema[M.AUDIO], s.encode_dim, stream,
            )
            self.gae = graph.GAEParams.init(s.encode_dim, stream)
        params = self.proj.parameters() + self.gae.parameters()
        self.param_count = sum(p.data.size for p in params)
        return f"{len(self.lib)}:{params_digest(params)}"

    def op(self, i):
        rec = self.lib.records[self.requests[i % len(self.requests)]]
        query = retrieval.Query.from_record(rec)
        result = retrieval.retrieve_all(self.lib, query, TOP_K)
        text = np.concatenate([rec.text_self.values, rec.text_react.values])
        enc = graph.progressive_encode(
            rec.scene.values, rec.face.values, text, result, self.proj, self.gae
        )
        return query, result, enc

    def check(self, i, out):
        query, result, enc = out
        check_encoding(result, enc, TOP_K)
        for channel in retrieval.CHANNELS:
            for (rid, _score), audio in zip(result.rankings[channel], result.matched_audio[channel]):
                if not np.array_equal(audio, self.lib.lookup(rid).audio.values):
                    raise CheckError(f"{channel} hit {rid} carries another record's audio")
        if i % self.sizes.oracle_every == 0:
            check_retrieval(self.lib, query, result, TOP_K)
            self.facts["oracle_checked"] = self.facts.get("oracle_checked", 0) + 1


# --- train-256 --------------------------------------------------------------


def check_loss(losses: list[float], step: int, loss: float, first_loss: float, epoch: int) -> None:
    """Check the loss of ``step``, counted from the latest set-up.

    Losses are finite, and every epoch restarts from the set-up parameters,
    so it repeats the first epoch bit for bit, starting at ``first_loss``
    (a forward pass on the fresh parameters). ``losses`` holds one loss per
    position in the epoch, filled in as steps first reach it.
    """
    j = step % epoch
    if not math.isfinite(loss):
        raise CheckError(f"step {step} loss is not finite: {loss!r}")
    want = first_loss if j == 0 else losses[j] if j < len(losses) else loss
    if loss != want:
        raise CheckError(f"step {step} loss {loss!r} differs from {want!r}")
    if j == len(losses):
        losses.append(loss)


def check_reference(step: int, loss: float, reference: list[float] | None, rel_tol: float) -> None:
    """The seed code's loss at ``step``, where the reference table has one.

    The tolerance lets a rewrite reorder floating-point sums; a wrong
    forward, gradient, Adam update or initialisation moves the losses by
    far more.
    """
    if reference is not None and step < len(reference):
        if not math.isclose(loss, reference[step], rel_tol=rel_tol, abs_tol=0.0):
            raise CheckError(f"step {step} loss {loss!r} differs from the reference {reference[step]!r}")


class Train256(Workload):
    """One toy_train_step of the train-toy fixture at dim 256.

    Every ``train_epoch`` steps the parameters are restored from a file
    written after the first set-up (read straight into the parameter
    buffers, so the benchmark holds no second copy in memory) and Adam
    starts afresh.
    """

    name = "train-256"
    # Adam streams every 11 MB parameter-sized array on each step.
    probe = "memory"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_loss: float | None = None
        self.losses: list[float] = []
        self.step = 0
        self.reference: list[float] | None = None
        self.rel_tol = 0.0

    def fixture(self) -> dict:
        s = self.sizes
        return {"dim": s.train_dim, "length": s.train_length, "mel": s.train_mel, "lib": s.train_lib, "k": TOP_K}

    def reset(self):
        self.batch = self.model = self.adam = None

    def setup(self):
        s = self.sizes
        spec = synthetic.ClusterSpec(
            n=s.train_lib, clusters=3, separation=8.0, dim=VEC_DIM, seed=self.seed
        )
        lib = synthetic.generate_clustered_library(spec)
        query = retrieval.Query.from_record(lib.records[0])
        self.batch = head.make_toy_batch(
            lib, query, self.seed, s.train_length, s.train_dim, s.train_mel, k=TOP_K
        )
        with self.span("head.init"):
            self.model = head.PipelineParams.init_for_library(
                lib, s.train_dim, rng.stream(self.seed, "params"), n_mel=s.train_mel
            )
        self.adam = autodiff.AdamState(self.model.parameters())
        self.param_count = sum(p.data.size for p in self.model.parameters())
        return params_digest(self.model.parameters())

    def arm(self):
        self.step = 0
        if self.first_loss is None:
            with open(self.path("initial.bin"), "wb") as fh:
                for p in self.model.parameters():
                    fh.write(memoryview(p.data).cast("B"))
            self.first_loss = head.toy_loss(self.batch, self.model).item()
            with open(REFERENCE, encoding="utf-8") as fh:
                table = json.load(fh)["train-256"]
            self.rel_tol = table["rel_tol"]
            if table["fixture"] == self.fixture():
                self.reference = table["losses"].get(str(self.seed))

    def before(self, i):
        # Step 0 restarts too: with the AdamState built in set-up, the first
        # epoch ran about 15% slower than later ones, so a run's figures
        # depended on how many epochs fitted in it.
        if self.step % self.sizes.train_epoch == 0:
            with open(self.path("initial.bin"), "rb") as fh:
                for p in self.model.parameters():
                    fh.readinto(memoryview(p.data).cast("B"))
                    p.zero_grad()
            self.adam = autodiff.AdamState(self.model.parameters())

    def op(self, i):
        return head.toy_train_step(self.batch, self.model, self.adam)

    def check(self, i, out):
        check_loss(self.losses, self.step, out, self.first_loss, self.sizes.train_epoch)
        check_reference(self.step % self.sizes.train_epoch, out, self.reference, self.rel_tol)
        self.step += 1

    def finish(self):
        self.facts["loss_digest"] = digest(",".join(f"{x:.17g}" for x in self.losses).encode())
        self.facts["loss_steps"] = len(self.losses)
        self.facts["reference_steps"] = 0 if self.reference is None else len(self.reference)


# --- sweep-mix --------------------------------------------------------------


def oracle_purity(lib, k: int, metric, mode) -> tuple[int, int, float]:
    """``evaluate_purity`` recomputed with numpy: (hits, retrieved, score sum).

    Every record queries the others (under the specific mode, those of its
    speaker) in each channel; the top K by (score desc, id asc) count as
    retrieved, and a hit shares the query's label.
    """
    recs = lib.records
    n = len(recs)
    ids = np.array([r.record_id for r in recs], dtype=np.int64)
    labels = np.array([r.emotion_label for r in recs])
    valid = ~np.eye(n, dtype=bool)
    if mode is retrieval.Mode.SPEAKER_SPECIFIC:
        speakers = np.array([r.speaker_id for r in recs])
        valid &= speakers[:, None] == speakers[None, :]

    def scores(attr):
        a = np.stack([getattr(r, attr).values for r in recs])
        if metric is retrieval.Metric.COSINE:
            norms = np.sqrt((a * a).sum(axis=1))
            return (a @ a.T) / np.outer(norms, norms)
        if metric is retrieval.Metric.DOT:
            return a @ a.T
        return -np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=2))

    k = min(k, n)
    kept = np.arange(k)[None, :] < valid.sum(axis=1)[:, None]
    rows = np.arange(n)[:, None]
    hits = total = 0
    score_sum = 0.0
    for score in (scores("scene"), scores("face"), 0.5 * (scores("text_self") + scores("text_react"))):
        score = np.where(valid, score, -np.inf)
        top = np.lexsort((np.broadcast_to(ids, (n, n)), -score), axis=1)[:, :k]
        hits += int(((labels[top] == labels[:, None]) & kept).sum())
        total += int(kept.sum())
        score_sum += float(score[rows, top][kept].sum())
    return hits, total, score_sum


class SweepMix(Workload):
    """One op is one cell of the sweep grid: one sweep call, one evaluate_purity.

    The grid is sweep_metric for each metric and K, sweep_topk in both
    modes, and sweep_scale for each fraction; op ``i`` runs cell
    ``i % cycle``. Set-up is the ingest-then-sweep flow: a JSONL library of
    ``ingest_n`` records goes through read_jsonl, save_library and
    load_library, and the sweeps run on a ``sweep_n``-record subsample.
    Every row is checked against :func:`oracle_purity`.
    """

    name = "sweep-mix"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        s = self.sizes
        Metric, Mode = retrieval.Metric, retrieval.Mode
        # (sweep, K, metric, mode, library fraction)
        self.cells = (
            [("sweep_metric", k, m, Mode.SPEAKER_AGNOSTIC, 1.0)
             for m in (Metric.COSINE, Metric.DOT, Metric.NEG_EUCLIDEAN) for k in s.sweep_metric_k]
            + [("sweep_topk", TOP_K, Metric.COSINE, mode, 1.0)
               for mode in (Mode.SPEAKER_AGNOSTIC, Mode.SPEAKER_SPECIFIC)]
            + [("sweep_scale", TOP_K, Metric.COSINE, Mode.SPEAKER_AGNOSTIC, f) for f in s.sweep_fractions]
        )
        self.cycle = len(self.cells)
        self.rows: dict[int, dict] = {}

    def prepare(self):
        in_child(
            write_library, self.path("expected.mrfl"), self.path("input.jsonl"),
            self.seed, self.sizes.ingest_n, 4.0,
        )
        self.expected = file_digest(self.path("expected.mrfl"))

    def reset(self):
        self.lib = self.loaded = None

    def setup(self):
        ingested = library.read_jsonl(self.path("input.jsonl"))
        library.save_library(ingested, self.path("ingested.mrfl"))
        self.loaded = library.load_library(self.path("ingested.mrfl"))
        self.lib = library.subsample(self.loaded, self.sizes.sweep_n / self.sizes.ingest_n, self.seed)
        return digest(",".join(str(r.record_id) for r in self.lib.records).encode())

    def arm(self):
        """JSONL -> save and save -> load -> save both give the input's bytes."""
        library.save_library(self.loaded, self.path("resaved.mrfl"))
        self.loaded = None
        for name in ("ingested.mrfl", "resaved.mrfl"):
            if file_digest(self.path(name)) != self.expected:
                raise CheckError(f"{name} differs from the input library's bytes")
        if len(self.lib) != self.sizes.sweep_n:
            raise CheckError(f"subsample has {len(self.lib)} records, expected {self.sizes.sweep_n}")

    def op(self, i):
        fn, k, metric, mode, fraction = self.cells[i % self.cycle]
        if fn == "sweep_metric":
            return sweeps.sweep_metric(self.lib, [k], [metric])
        if fn == "sweep_topk":
            return sweeps.sweep_topk(self.lib, [k], modes=[mode])
        return sweeps.sweep_scale(self.lib, [fraction], k, seed=self.seed)

    def check(self, i, rows):
        cell = i % self.cycle
        fn, k, metric, mode, fraction = self.cells[cell]
        if len(rows) != 1:
            raise CheckError(f"{fn}: expected one row, got {len(rows)}")
        row = rows[0]
        if cell in self.rows:
            if row != self.rows[cell]:
                raise CheckError(f"{fn}: row {row} differs from the earlier {self.rows[cell]}")
            return
        lib = self.lib if fraction == 1.0 else library.subsample(self.lib, fraction, self.seed)
        hits, total, score_sum = oracle_purity(lib, k, metric, mode)
        if row["purity"] != (hits / total if total else 0.0):
            raise CheckError(f"{fn} {metric.value} {mode.value} K={k}: purity {row['purity']!r}, oracle {hits}/{total}")
        if "mean_score" in row and not math.isclose(row["mean_score"], score_sum / total, rel_tol=1e-9):
            raise CheckError(f"{fn}: mean_score {row['mean_score']!r}, oracle {score_sum / total!r}")
        self.rows[cell] = row

    def finish(self):
        fh = io.StringIO()
        for _cell, row in sorted(self.rows.items()):
            sweeps.write_csv([row], list(row), fh)
        self.facts["csv_digest"] = digest(fh.getvalue().encode())
        self.facts["cells_checked"] = len(self.rows)


WORKLOADS = {w.name: w for w in (Query10k, Train256, SweepMix)}
