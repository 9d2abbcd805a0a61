"""Command-line harness.

Subcommands cover library generation and ingestion, retrieval, graph
encoding, toy training, gradient checking, and the three analysis sweeps.
Every command is deterministic given its flags and seed.

Exit codes: 0 success, 2 usage error (including a size too large to
allocate), 3 data/schema error, 4 numeric failure.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys

import click
import numpy as np

from . import __version__
from .autodiff import grad_check, save_checkpoint
from .errors import ArgumentError, ConfigError, NumericError, SchemaError
from .graph import STAGES, GAEParams, ProjectionParams, node_labels, progressive_encode
from .head import PipelineParams, make_toy_batch, toy_loss, train_toy
from .library import load_library, read_jsonl, sample_indices, save_library
from .retrieval import CHANNELS, Metric, Mode, Query, retrieve_all
from .rng import stream
from .sweeps import sweep_metric, sweep_scale, sweep_topk, write_csv
from .synthetic import ClusterSpec, generate_clustered_library

_METRICS = {m.value: m for m in Metric}
_MODES = {m.value: m for m in Mode}

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

#: exit code of each exception type reported as an ``error:`` line
_EXIT_CODES = {
    ArgumentError: EXIT_USAGE,
    ConfigError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,  # a size flag asked for more memory than the process can get
    SchemaError: EXIT_DATA,  # includes FormatError and ShapeError
    OSError: EXIT_DATA,
    NumericError: EXIT_NUMERIC,
}


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except tuple(_EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls)))

    return wrapper


def _parse_number(convert, text: str, what: str):
    """``convert(text)``, reporting a malformed number as a usage error."""
    try:
        return convert(text)
    except ValueError:
        raise ArgumentError(f"invalid {what} {text!r}") from None


#: The most K values a list may expand to; a longer range is refused before
#: it is expanded, so ``1..100000000000`` is a usage error, not a MemoryError.
MAX_K_VALUES = 1 << 20


def _parse_k_list(text: str) -> list[int]:
    """Parse '3', '1,2,5', or '1..8' into a list of ints."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo_s, hi_s = chunk.split("..", 1)
            lo, hi = _parse_number(int, lo_s, "K"), _parse_number(int, hi_s, "K")
            if hi < lo:
                raise ArgumentError(f"empty K range {chunk!r}")
            if len(out) + hi - lo + 1 > MAX_K_VALUES:
                raise ArgumentError(f"K range {chunk!r} expands to more than {MAX_K_VALUES} values")
            out.extend(range(lo, hi + 1))
        elif chunk:
            out.append(_parse_number(int, chunk, "K"))
    if not out or any(k < 1 for k in out):
        raise ArgumentError(f"invalid K list {text!r}")
    return sorted(set(out))


def _parse_fractions(text: str) -> list[float]:
    out = [_parse_number(float, chunk, "fraction") for chunk in text.split(",") if chunk.strip()]
    if not out:
        raise ArgumentError(f"invalid fractions list {text!r}")
    for f in out:
        if not (0.0 < f <= 1.0):
            raise ArgumentError(f"fraction {f} outside (0, 1]")
    return sorted(set(out))


@contextlib.contextmanager
def _open_out(path: str | None):
    """The text file at ``path``, closed on exit; stdout for '-' or no path."""
    if not path or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _lookup(lib, record_id: int):
    try:
        return lib.lookup(record_id)
    except KeyError:
        raise ArgumentError(f"--query-id {record_id} is not in the library") from None


@click.group()
@click.version_option(version=__version__, prog_name="emodub")
def main():
    """Emotion retrieval and progressive graph encoding harness."""


@main.command("gen-synthetic")
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Library file to write.")
@click.option("--n", default=200, show_default=True, help="Number of records.")
@click.option("--clusters", default=4, show_default=True, help="Number of labeled clusters.")
@click.option("--separation", default=8.0, show_default=True, help="Pairwise centroid distance in noise sigmas.")
@click.option("--dim", default=8, show_default=True, type=int, help="Vector dim for all modalities.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--speakers", default=4, show_default=True, help="Distinct speakers (round-robin).")
@click.option("--speaker-per-cluster", is_flag=True, help="Give each cluster its own single speaker.")
@_handle_errors
def cmd_gen_synthetic(out, n, clusters, separation, dim, seed, speakers, speaker_per_cluster):
    """Generate a labeled clustered synthetic library."""
    if dim < 1:
        raise ArgumentError(f"--dim must be >= 1, got {dim}")
    spec = ClusterSpec(
        n=n,
        clusters=clusters,
        separation=separation,
        dim=dim,
        seed=seed,
        speakers=speakers,
        speaker_per_cluster=speaker_per_cluster,
    )
    lib = generate_clustered_library(spec)
    save_library(lib, out)
    click.echo(f"wrote {len(lib)} records to {out}")


@main.command("ingest")
@click.option("--jsonl", "jsonl_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_handle_errors
def cmd_ingest(jsonl_path, out):
    """Convert a JSON-lines interchange file into a binary library."""
    lib = read_jsonl(jsonl_path)
    save_library(lib, out)
    click.echo(f"ingested {len(lib)} records into {out}")


def _load_queries(lib, query_ids, num_queries, seed):
    if query_ids:
        return [_lookup(lib, qid) for qid in query_ids]
    if num_queries:
        chosen = sample_indices(len(lib), num_queries, stream(seed, "query-sample"))
        return [lib.records[i] for i in chosen]
    raise ArgumentError("provide --query-id or --num-queries")


@main.command("retrieve")
@click.option("--lib", "lib_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--query-id", "query_ids", multiple=True, type=int, help="Library record to query with (repeatable).")
@click.option("--num-queries", default=0, type=int, help="Sample this many query records instead.")
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--metric", default="cosine", show_default=True, type=click.Choice(sorted(_METRICS)))
@click.option("--mode", default="agnostic", show_default=True, type=click.Choice(sorted(_MODES)))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="-", help="CSV path or '-' for stdout.")
@_handle_errors
def cmd_retrieve(lib_path, query_ids, num_queries, k, metric, mode, seed, out):
    """Top-K retrieval; one CSV row per (query, channel, rank).

    Each query record is excluded from its own candidate pool.
    """
    lib = load_library(lib_path)
    queries = _load_queries(lib, query_ids, num_queries, seed)
    with _open_out(out) as fh:
        fh.write("query_id,modality,rank,record_id,score,speaker_id\n")
        for rec in queries:
            result = retrieve_all(lib, Query.from_record(rec), k, _METRICS[metric], _MODES[mode])
            for channel in CHANNELS:
                for rank, (record_id, score) in enumerate(result.rankings[channel], start=1):
                    speaker = lib.lookup(record_id).speaker_id
                    fh.write(
                        f"{rec.record_id},{channel},{rank},{record_id},{score:.17g},{speaker}\n"
                    )


@main.command("encode")
@click.option("--lib", "lib_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--query-id", required=True, type=int)
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--metric", default="cosine", show_default=True, type=click.Choice(sorted(_METRICS)))
@click.option("--mode", default="agnostic", show_default=True, type=click.Choice(sorted(_MODES)))
@click.option("--seed", default=0, show_default=True, type=int, help="Parameter init seed.")
@click.option("--dim", default=256, show_default=True, type=int, help="Node feature dimension.")
@click.option("--features/--no-features", default=False, help="Include encoded feature matrices.")
@click.option("--out", default="-", help="JSON path or '-' for stdout.")
@_handle_errors
def cmd_encode(lib_path, query_id, k, metric, mode, seed, dim, features, out):
    """Run the three-stage progressive encoding and dump graph topology."""
    lib = load_library(lib_path)
    rec = _lookup(lib, query_id)
    query = Query.from_record(rec)
    retrieved = retrieve_all(lib, query, k, _METRICS[metric], _MODES[mode])
    rng = stream(seed, "params")
    proj = ProjectionParams.for_schema(lib.schema, dim, rng)
    gae = GAEParams.init(dim, rng)
    encoding = progressive_encode(
        rec.scene.values,
        rec.face.values,
        np.concatenate([rec.text_self.values, rec.text_react.values]),
        retrieved,
        proj,
        gae,
    )
    doc = {"query_id": query_id, "k": k, "dim": dim, "stages": []}
    for graph in encoding.graphs:
        if not np.isfinite(graph.features.data).all():
            raise NumericError(f"{graph.stage.value} stage features are non-finite")
        stages = graph.stages.tolist()
        b, a = np.nonzero(np.triu(graph.mask, 1).T)  # each edge once, ordered by its higher end
        stage_doc = {
            "stage": graph.stage.value,
            "nodes": [
                {"index": i, "kind": kind, "source_record_id": r} for i, (kind, r) in enumerate(node_labels(graph))
            ],
            # an edge is of the stage that added its higher end
            "edges": [{"a": i, "b": j, "kind": STAGES[stages[j]].value} for i, j in zip(a.tolist(), b.tolist())],
        }
        if features:
            stage_doc["features"] = graph.features.data.tolist()
        doc["stages"].append(stage_doc)
    with _open_out(out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@main.command("train-toy")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--steps", default=200, show_default=True, type=int)
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--dim", default=32, show_default=True, type=int, help="Pipeline feature dimension.")
@click.option("--mel-bins", default=16, show_default=True, type=int)
@click.option("--length", default=8, show_default=True, type=int, help="Aligned sequence length.")
@click.option("--lib-size", default=24, show_default=True, type=int)
@click.option("--clusters", default=3, show_default=True, type=int)
@click.option("--separation", default=8.0, show_default=True, type=float)
@click.option("--vec-dim", default=8, show_default=True, type=int, help="Synthetic emotion vector dim.")
@click.option("--metric", default="cosine", show_default=True, type=click.Choice(sorted(_METRICS)))
@click.option("--out", default="-", help="CSV of (step, loss); '-' for stdout.")
@click.option("--checkpoint", default=None, type=click.Path(dir_okay=False), help="Write final parameters here.")
@_handle_errors
def cmd_train_toy(seed, steps, k, dim, mel_bins, length, lib_size, clusters, separation, vec_dim, metric, out, checkpoint):
    """Train the toy pipeline on one fixed synthetic batch."""
    batch, model = _build_toy_fixture(
        seed, k, dim, mel_bins, length, lib_size, clusters, separation, vec_dim, _METRICS[metric]
    )
    losses = train_toy(batch, model, steps)
    with _open_out(out) as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            fh.write(f"{step},{loss:.17g}\n")
    if checkpoint:
        save_checkpoint(model.parameters(), checkpoint)
        click.echo(f"checkpoint written to {checkpoint}", err=True)


def _build_toy_fixture(seed, k, dim, mel_bins, length, lib_size, clusters, separation, vec_dim, metric):
    """The shipped deterministic training fixture: library, batch, fresh params.

    The parameters come first, so a bad size fails their size check; the
    streams are independent, so the order changes no draw.
    """
    spec = ClusterSpec(n=lib_size, clusters=clusters, separation=separation, dim=vec_dim, seed=seed)
    lib = generate_clustered_library(spec)
    model = PipelineParams.init_for_library(lib, dim, stream(seed, "params"), n_mel=mel_bins)
    query = Query.from_record(lib.records[0])
    batch = make_toy_batch(lib, query, seed, length, dim, mel_bins, k=k, metric=metric)
    return batch, model


@main.command("grad-check")
# Seeds 0 and 1 collapse this fixture's basic-stage rows, which leaves the
# basic cross-attention's wq and wk gradients under grad_check's 1e-8 floor.
@click.option("--seed", default=2, show_default=True, type=int)
@click.option("--dim", default=8, show_default=True, type=int)
@click.option("--length", default=5, show_default=True, type=int)
@click.option("--k", default=2, show_default=True, type=int)
@click.option("--mel-bins", default=4, show_default=True, type=int)
@click.option("--eps", default=1e-5, show_default=True, type=float)
@click.option("--tol", default=1e-4, show_default=True, type=float)
@_handle_errors
def cmd_grad_check(seed, dim, length, k, mel_bins, eps, tol):
    """Finite-difference check of the full pipeline gradient."""
    if not tol > 0.0:
        raise ArgumentError(f"gradient tolerance must be > 0, got {tol}")
    batch, model = _build_toy_fixture(
        seed, k, dim, mel_bins, length, lib_size=12, clusters=3, separation=8.0, vec_dim=4,
        metric=Metric.COSINE,
    )
    worst = grad_check(lambda: toy_loss(batch, model), model.parameters(), eps=eps)
    click.echo(f"max relative gradient error: {worst:.3e} (tolerance {tol:.1e})")
    if not worst < tol:
        click.echo("gradient check FAILED", err=True)
        sys.exit(EXIT_NUMERIC)
    click.echo("gradient check passed")


@main.command("sweep-topk")
@click.option("--lib", "lib_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k_list", default="1..8", show_default=True, help="K list, e.g. '1..8' or '1,3,5'.")
@click.option("--metric", default="cosine", show_default=True, type=click.Choice(sorted(_METRICS)))
@click.option("--mode", default="both", show_default=True, type=click.Choice(["agnostic", "specific", "both"]))
@click.option("--out", default="-", help="CSV path or '-' for stdout.")
@_handle_errors
def cmd_sweep_topk(lib_path, k_list, metric, mode, out):
    """Purity and mean score per (K, retrieval mode)."""
    lib = load_library(lib_path)
    modes = [_MODES[mode]] if mode != "both" else [Mode.SPEAKER_AGNOSTIC, Mode.SPEAKER_SPECIFIC]
    rows = sweep_topk(lib, _parse_k_list(k_list), _METRICS[metric], modes)
    with _open_out(out) as fh:
        write_csv(rows, ["k", "mode", "purity", "mean_score"], fh)


@main.command("sweep-metric")
@click.option("--lib", "lib_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--k", "k_list", default="1..8", show_default=True)
@click.option("--mode", default="agnostic", show_default=True, type=click.Choice(sorted(_MODES)))
@click.option("--out", default="-")
@_handle_errors
def cmd_sweep_metric(lib_path, k_list, mode, out):
    """Purity per (similarity metric, K)."""
    lib = load_library(lib_path)
    rows = sweep_metric(lib, _parse_k_list(k_list), mode=_MODES[mode])
    with _open_out(out) as fh:
        write_csv(rows, ["metric", "k", "purity"], fh)


@main.command("sweep-scale")
@click.option("--lib", "lib_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--fractions", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", show_default=True)
@click.option("--k", default=3, show_default=True, type=int)
@click.option("--metric", default="cosine", show_default=True, type=click.Choice(sorted(_METRICS)))
@click.option("--mode", default="agnostic", show_default=True, type=click.Choice(sorted(_MODES)))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--out", default="-")
@_handle_errors
def cmd_sweep_scale(lib_path, fractions, k, metric, mode, seed, out):
    """Purity per library-scale fraction (deterministic subsampling)."""
    lib = load_library(lib_path)
    rows = sweep_scale(lib, _parse_fractions(fractions), k, _METRICS[metric], _MODES[mode], seed)
    with _open_out(out) as fh:
        write_csv(rows, ["fraction", "purity"], fh)


if __name__ == "__main__":
    main()
