"""Golden SHA-256 digests of seeded draws and of retrieval scores.

These outputs use only SplitMix64 and exact IEEE-754 operations in a fixed
order, so their bytes do not depend on the platform, numpy version or BLAS.
The draw digests were recorded from the scalar per-entry draw; any change
to how parameters, stub sequences, mel targets or synthetic vectors are
drawn must reproduce them bit for bit. The Adam digest pins the bits of a
five-step update, and the library digest the ``.mrfl`` bytes of a seeded
clustered library (Gaussian noise, labels, speakers and movie ids); its
Box-Muller noise also goes through the C library's ``log``, ``sin`` and
``cos``. The ``retrieve`` digest pins the 17-digit scores of the
fixed-order similarity (see ``emodub.retrieval``); the sweep digest
pins the CSVs of the three sweeps on a library large enough that
``evaluate_purity`` scans it in more than one row block.

The ``encode`` digest is the exception: its features go through BLAS
matrix products, whose summation order depends on the OpenBLAS kernel the
CPU selects. It must be one of the digests recorded for the five x86-64
kernel families (``OPENBLAS_CORETYPE`` SkylakeX, Haswell, Sandybridge,
Nehalem and Core2 and their aliases), so a changed bit under any of them
still fails.
"""

import hashlib

import numpy as np
from click.testing import CliRunner

from emodub.autodiff import AdamState, Parameter
from emodub.cli import main
from emodub.head import PipelineParams, make_toy_batch, stub_aligned_sequence
from emodub.library import Modality, save_library, synthetic_extract
from emodub.retrieval import Query
from emodub.rng import stream
from emodub.synthetic import ClusterSpec, generate_clustered_library


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype="<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def small_library():
    return generate_clustered_library(ClusterSpec(n=12, clusters=3, separation=8.0, dim=4, seed=0))


def test_pipeline_init_dim64():
    model = PipelineParams.init_for_library(small_library(), 64, stream(0, "params"), n_mel=80)
    params = model.parameters()
    names = hashlib.sha256("\n".join(p.name for p in params).encode()).hexdigest()
    assert names == NAMES_DIM64
    assert digest(*(p.data for p in params)) == PARAMS_DIM64


def test_stub_aligned_sequence():
    assert digest(stub_aligned_sequence(3, 8, 64).data) == STUB_3_8_64


def test_toy_batch_mel_target():
    lib = small_library()
    batch = make_toy_batch(lib, Query.from_record(lib.records[0]), 5, 7, 16, 80, k=2)
    assert digest(batch.target_mel) == MEL_TARGET_5


def test_synthetic_extract():
    vectors = [
        synthetic_extract(seed, key, modality, dim).values
        for seed, key, modality, dim in [
            (7, "a", Modality.SCENE, 8),
            (0, "clip-001", Modality.FACE, 64),
            (2**40 + 3, "ünïcode", Modality.TEXT_REACT, 2),
            (11, "", Modality.AUDIO, 257),
        ]
    ]
    assert digest(*vectors) == SYNTHETIC_EXTRACT


def test_adam_five_steps():
    rng = stream(0, "adam-golden")
    params = [
        Parameter(2.0 * rng.floats(r * c).reshape(r, c) - 1.0, f"p{i}")
        for i, (r, c) in enumerate([(3, 4), (1, 5), (2, 2)])
    ]
    adam = AdamState(params)
    trajectory = []
    for step in range(5):
        for i, p in enumerate(params):
            p.grad += (2.0 * rng.floats(p.data.size).reshape(p.shape) - 1.0) * 10.0 ** (i - step)
        adam.step()
        trajectory += [p.data.copy() for p in params]
    assert digest(*trajectory) == ADAM_5_STEPS


def test_clustered_library_bytes(tmp_path):
    save_library(generate_clustered_library(ClusterSpec(n=64, clusters=4, dim=8, seed=11)), tmp_path / "c.mrfl")
    assert hashlib.sha256((tmp_path / "c.mrfl").read_bytes()).hexdigest() == CLUSTERED_64


def test_retrieve_csv(tmp_path):
    lib = generate_clustered_library(ClusterSpec(n=40, clusters=3, separation=2.0, dim=4, seed=0, speakers=2))
    save_library(lib, tmp_path / "lib.mrfl")
    h = hashlib.sha256()
    for metric in ("cosine", "dot", "euclid"):
        for mode in ("agnostic", "specific"):
            out = tmp_path / f"{metric}-{mode}.csv"
            CliRunner().invoke(main, [
                "retrieve", "--lib", str(tmp_path / "lib.mrfl"), "--num-queries", "6", "--k", "4",
                "--metric", metric, "--mode", mode, "--out", str(out),
            ], catch_exceptions=False)
            h.update(out.read_bytes())
    assert h.hexdigest() == RETRIEVE_CSV


def test_sweep_csvs(tmp_path):
    lib = generate_clustered_library(
        ClusterSpec(n=320, clusters=3, separation=2.0, dim=4, seed=0, speakers=2)
    )
    save_library(lib, tmp_path / "lib.mrfl")
    h = hashlib.sha256()
    for args in (
        ["sweep-topk", "--k", "1,3", "--metric", "cosine"],
        ["sweep-topk", "--k", "2", "--metric", "euclid", "--mode", "specific"],
        ["sweep-metric", "--k", "1,4"],
        ["sweep-scale", "--fractions", "0.5,1.0", "--k", "3", "--metric", "dot"],
    ):
        out = tmp_path / "sweep.csv"
        CliRunner().invoke(
            main, [*args, "--lib", str(tmp_path / "lib.mrfl"), "--out", str(out)], catch_exceptions=False
        )
        h.update(out.read_bytes())
    assert h.hexdigest() == SWEEP_CSV


def test_encode_json(tmp_path):
    lib = generate_clustered_library(ClusterSpec(n=48, clusters=3, separation=2.0, dim=6, seed=3, speakers=2))
    save_library(lib, tmp_path / "lib.mrfl")
    h = hashlib.sha256()
    for query_id in (5, 31):
        for metric in ("cosine", "euclid"):
            out = tmp_path / "encode.json"
            CliRunner().invoke(main, [
                "encode", "--lib", str(tmp_path / "lib.mrfl"), "--query-id", str(query_id), "--k", "3",
                "--metric", metric, "--dim", "16", "--features", "--out", str(out),
            ], catch_exceptions=False)
            h.update(out.read_bytes())
    assert h.hexdigest() in ENCODE_JSON


NAMES_DIM64 = "04c4a5d61d481112fa32e9bd7dd45a4cddaae5b842a617ec667cd9414f81a942"
PARAMS_DIM64 = "97db654312294d492b377e7549106e56c5e685d4355cb3ebae5fbca84f52544e"
STUB_3_8_64 = "91ece463477f6523e5f154d6aa32c403abc4133240d9fede0202478e6f9adefb"
MEL_TARGET_5 = "5df7973d716fbe7dcfdd35c5a7ce139412be760d249f727839531856684df0e4"
SYNTHETIC_EXTRACT = "38b44d823fa55f8f3bebd225281d3d953313ac3b23637db8ba93a6c4c640fb99"
RETRIEVE_CSV = "6e8215cf5bafd755241c92e2078e1b5048781675118b700676c22f7011aed1e1"
SWEEP_CSV = "9a838066c8be003455ae89f11c941c11e1b7fe5c5f68e063ce24094420b0221e"
ADAM_5_STEPS = "64936ee5c2aa54e73575a632352564440f3cb409f83cc7d5014f694bafa1a37b"
CLUSTERED_64 = "e5d8797efb202923282b31b1d7d027b271c515378638f3199f286a31db19801a"
#: one digest per OpenBLAS x86-64 kernel family (see the module docstring)
ENCODE_JSON = frozenset({
    "93ac482c64fd74bf3a16aca5598d11d3f6c77ae5f0ec476d05339ac53f03d8ae",  # SkylakeX, Cooperlake, SapphireRapids
    "a45f5cb773f1248b87f39a1fcaa2ecbadf07bdff7cd3537e87d95abf71af9752",  # Haswell, Zen
    "9a3089dea92d05426241dbed6bd87c38fafe4496be64bfd765bd81a3f575c45c",  # Sandybridge, Bulldozer, Excavator
    "7e77580ade38a07a35ff8878f84d4dbc6c4183898e385ab53d50530dae583776",  # Nehalem, Atom, Barcelona
    "faf0eb2414c74bb62932738af94ca039b1b89761a411fe323c3740d15598610e",  # Core2, Penryn, Prescott, Opteron
})
