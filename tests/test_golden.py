"""Golden SHA-256 digests of seeded draws and of retrieval scores.

These outputs use only SplitMix64 and exact IEEE-754 operations in a fixed
order, so their bytes do not depend on the platform, numpy version or BLAS.
The draw digests were recorded from the scalar per-entry draw; any change
to how parameters, stub sequences, mel targets or synthetic vectors are
drawn must reproduce them bit for bit. The Adam digest pins the bits of a
five-step update in Kingma and Ba's efficient form on scaled moments (see
``emodub.autodiff.AdamState``), and the library digest the ``.mrfl``
bytes of a seeded clustered library (Gaussian noise, labels, speakers and
movie ids); its Box-Muller noise also goes through the C library's
``log``, ``sin`` and ``cos``. The ``retrieve`` digest pins the 17-digit
scores of the fixed-order similarity (see ``emodub.retrieval``); the
sweep digest pins the CSVs of the three sweeps on a library large enough
that ``evaluate_purity`` scans it in more than one row block.

The ``encode`` and ``train-toy`` digests are the exception (but for the
topology-only ``encode`` documents, which hold no features): their
features, losses and checkpoints go through BLAS matrix products, whose
summation order depends on the OpenBLAS kernel the CPU selects. Each must
be one of the digests recorded for the five x86-64 kernel families
(``OPENBLAS_CORETYPE`` SkylakeX, Haswell, Sandybridge, Nehalem and Core2
and their aliases; ``Core2`` loads the Katmai core, as
``tests/openblas_core.py`` prints), so a changed bit under any of them
still fails. A
3-step run's losses agree to all 17 digits across small changes to Adam's
roundings, so a 20-step loss curve pins them too; its five digests are
distinct.
"""

import hashlib

import numpy as np
from click.testing import CliRunner

from emodub.autodiff import AdamState, Parameter
from emodub.cli import main
from emodub.head import PipelineParams, make_toy_batch, stub_aligned_sequence
from emodub.library import save_library
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


def short_pool_library():
    """Eight speakers over ten records: speaker_0 holds records 0 and 8, and
    speaker_5 holds record 5 alone."""
    return generate_clustered_library(ClusterSpec(n=10, clusters=3, separation=2.0, dim=6, seed=3, speakers=8))


def encode_bytes(lib_path, out, query_id, *args) -> bytes:
    CliRunner().invoke(main, [
        "encode", "--lib", str(lib_path), "--query-id", str(query_id), "--dim", "16", *args, "--out", str(out),
    ], catch_exceptions=False)
    return out.read_bytes()


def test_encode_json_short_pools(tmp_path):
    # speaker-specific pools shorter than K: one hit per channel for query 0,
    # none for query 5
    save_library(short_pool_library(), tmp_path / "lib.mrfl")
    h = hashlib.sha256()
    for query_id in (0, 5):
        h.update(encode_bytes(tmp_path / "lib.mrfl", tmp_path / "encode.json", query_id, "--mode", "specific", "--features"))
    assert h.hexdigest() in ENCODE_JSON_SHORT_POOLS


def test_encode_json_topology(tmp_path):
    # without features the document is topology only, so one digest holds
    # under every kernel: full K, one hit per channel, and no hits
    lib = generate_clustered_library(ClusterSpec(n=48, clusters=3, separation=2.0, dim=6, seed=3, speakers=2))
    save_library(lib, tmp_path / "full.mrfl")
    save_library(short_pool_library(), tmp_path / "short.mrfl")
    h = hashlib.sha256()
    h.update(encode_bytes(tmp_path / "full.mrfl", tmp_path / "encode.json", 5, "--no-features"))
    for query_id in (0, 5):
        h.update(encode_bytes(tmp_path / "short.mrfl", tmp_path / "encode.json", query_id, "--mode", "specific", "--no-features"))
    assert h.hexdigest() == ENCODE_JSON_TOPOLOGY


def test_train_toy_outputs(tmp_path):
    csv, adpk = tmp_path / "loss.csv", tmp_path / "final.adpk"
    CliRunner().invoke(main, [
        "train-toy", "--steps", "3", "--dim", "16", "--out", str(csv), "--checkpoint", str(adpk),
    ], catch_exceptions=False)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv, adpk))
    assert digests in TRAIN_TOY


def test_train_toy_loss_curve(tmp_path):
    csv = tmp_path / "loss.csv"
    CliRunner().invoke(main, ["train-toy", "--steps", "20", "--dim", "16", "--out", str(csv)], catch_exceptions=False)
    assert hashlib.sha256(csv.read_bytes()).hexdigest() in TRAIN_TOY_LOSSES


NAMES_DIM64 = "04c4a5d61d481112fa32e9bd7dd45a4cddaae5b842a617ec667cd9414f81a942"
PARAMS_DIM64 = "97db654312294d492b377e7549106e56c5e685d4355cb3ebae5fbca84f52544e"
STUB_3_8_64 = "91ece463477f6523e5f154d6aa32c403abc4133240d9fede0202478e6f9adefb"
MEL_TARGET_5 = "5df7973d716fbe7dcfdd35c5a7ce139412be760d249f727839531856684df0e4"
RETRIEVE_CSV = "6e8215cf5bafd755241c92e2078e1b5048781675118b700676c22f7011aed1e1"
SWEEP_CSV = "9a838066c8be003455ae89f11c941c11e1b7fe5c5f68e063ce24094420b0221e"
ADAM_5_STEPS = "2d831d754eb84b66ad59060ba8175fff22053d4b83d9a1591db147e233d04151"
CLUSTERED_64 = "e5d8797efb202923282b31b1d7d027b271c515378638f3199f286a31db19801a"
#: one digest per OpenBLAS x86-64 kernel family (see the module docstring)
ENCODE_JSON = frozenset({
    "93ac482c64fd74bf3a16aca5598d11d3f6c77ae5f0ec476d05339ac53f03d8ae",  # SkylakeX, Cooperlake, SapphireRapids
    "a45f5cb773f1248b87f39a1fcaa2ecbadf07bdff7cd3537e87d95abf71af9752",  # Haswell, Zen
    "9a3089dea92d05426241dbed6bd87c38fafe4496be64bfd765bd81a3f575c45c",  # Sandybridge, Bulldozer, Excavator
    "7e77580ade38a07a35ff8878f84d4dbc6c4183898e385ab53d50530dae583776",  # Nehalem, Atom, Barcelona
    "faf0eb2414c74bb62932738af94ca039b1b89761a411fe323c3740d15598610e",  # Core2, Penryn, Prescott, Opteron
})
#: speaker-specific pools shorter than K, one digest per OpenBLAS x86-64 kernel family
ENCODE_JSON_SHORT_POOLS = frozenset({
    "4b0203a702f549c204aafdc0e378a982b734a84e95335460e13adfca27b7a511",  # SkylakeX, Cooperlake, SapphireRapids
    "ab96aaca23a2859fbc45a04d9c3e17d4e234c0abdcdb0fc64f8440f0d1ffe9c6",  # Haswell, Zen
    "0743269933ab8b7daf622df0267f3b45535123bedf01043fbac7dd9477d2781a",  # Sandybridge, Bulldozer, Excavator
    "266e08648a6971f38ff0d25716df2af5f0f4c94a64cb6a08b76273844d7a3934",  # Nehalem, Atom, Barcelona
    "9b800c445e0482a2f557ab330912fb151e4c20d06b36e2ef927b490e55ee8688",  # Core2, Penryn, Prescott, Opteron
})
#: topology-only documents, the same under every kernel
ENCODE_JSON_TOPOLOGY = "337a91d3281dbec1d9b0cba8844c66d9e48cdd149821d472c9d43e733b5d9740"
#: (loss CSV, checkpoint) digests, one pair per OpenBLAS x86-64 kernel family
TRAIN_TOY = frozenset({
    (  # SkylakeX, Cooperlake, SapphireRapids
        "9168a816aac833bc65fdef36afdb056d5c144543d89d32a5e3c0a356ef362fdc",
        "7cea956ffb0713f50ea65d18bf5f06a74e2ac7c3e2ae1b8dfa25ab26d12e794d",
    ),
    (  # Haswell, Zen
        "4f82e37f59b58b9550e649133333b1b6a2287437d9d0117e3dfdcb810074ff69",
        "c5081c809e0668066ea83d8e9fd519944403a2c60b9d0ee8cd91495dc0aa5b61",
    ),
    (  # Sandybridge, Bulldozer, Excavator
        "4f82e37f59b58b9550e649133333b1b6a2287437d9d0117e3dfdcb810074ff69",
        "a753540093ccc18af970d6de83b6dd78aa4b54fc77678dcef71260c09f553e43",
    ),
    (  # Nehalem, Atom, Barcelona
        "9168a816aac833bc65fdef36afdb056d5c144543d89d32a5e3c0a356ef362fdc",
        "f9c5b0b918ee7376a4bd7110ad9538e09a2bb47478db8942c4737ef9b092365a",
    ),
    (  # Core2, Penryn, Prescott, Opteron
        "9168a816aac833bc65fdef36afdb056d5c144543d89d32a5e3c0a356ef362fdc",
        "18bb48d1156d48bb66ed9dd87390e8a338f96bb155d24816a913c543056078b6",
    ),
})
#: 20-step dim-16 loss CSV digests, one per OpenBLAS x86-64 kernel family
TRAIN_TOY_LOSSES = frozenset({
    "6507765ae4a855decf2ef48434da9aa9bc0a0f4daad1dcd181952b38d70eb104",  # SkylakeX, Cooperlake, SapphireRapids
    "860697688f324108e5d9b05ba2c5d6164467ae909eeb566dc88b4f73ecb811f8",  # Haswell, Zen
    "5418cd59e77fd4186d58666d0131f52a5dd051e1edb54c6d8f37d002dc5c917e",  # Sandybridge, Bulldozer, Excavator
    "4b40289c6d75eca181a61646f5aa43782ab8ae0d0031855bfd58f391ec9da39b",  # Nehalem, Atom, Barcelona
    "23554187c7ad9c4f19c0b13e205ea8f962adb056b3bd27e9da01653e610fc14d",  # Core2, Penryn, Prescott, Opteron
})
