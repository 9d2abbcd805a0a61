"""Byte-level fuzzing of the three file formats a user can hand to emodub.

Each test mutates the bytes of a valid ``.jsonl``, ``.mrfl`` or ``.adpk``
file: it flips, inserts, overwrites and deletes bytes, cuts the file short,
and splices in, anywhere or just after a quote, tokens that reach edge cases (a lone-surrogate escape, NaN,
out-of-range integers, all-ones length fields). Whatever the bytes, the
reader must either succeed or raise the format/schema error that the CLI
maps to exit 3; a traceback is a bug.
"""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from emodub.autodiff import LinearParams, load_checkpoint, save_checkpoint
from emodub.cli import main
from emodub.errors import FormatError, SchemaError
from emodub.library import load_library, save_library, write_jsonl
from emodub.rng import stream

from conftest import random_library

TOKENS = [
    b"\xff", b"\x00", b"\xff\xff\xff\xff", b"\x00\x00\x00\x00", b"\x01\x00\x00\x00",
    b"\xff\xff\xff\xff\xff\xff\xff\xff", b"\x00\x00\x00\x00\x00\x00\xf8\x7f",  # NaN
    b"\\ud800", b"NaN", b"1e400", b"-1", b"18446744073709551616", b"1.5",
    b"[]", b"[[1]]", b"{}", b"null", b"true", b'"', b",", b"\n", b"\xc3",
]
STRING_TOKENS = [b"\\ud800", b"\\udfff", b'\\"', b"\\u0000", b"\xff", b"\xc3", b"\xe3\x83\x89"]


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("flip", "insert", "overwrite", "delete", "truncate", "quote")))
        if kind == "quote":
            # text into a JSON string or key, just after one of the file's quotes
            quotes = [i + 1 for i, byte in enumerate(data) if byte == ord('"')]
            if quotes:
                pos = quotes[pos % len(quotes)]
            data[pos:pos] = draw(st.sampled_from(STRING_TOKENS))
        elif kind == "flip":
            if pos < len(data):
                data[pos] ^= draw(st.integers(1, 255))
        elif kind in ("insert", "overwrite"):
            chunk = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=8))
            data[pos : pos + (len(chunk) if kind == "overwrite" else 0)] = chunk
        elif kind == "delete":
            del data[pos : pos + draw(st.integers(1, 16))]
        else:
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small valid file of each format, as bytes, plus a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    lib = random_library(np.random.default_rng(5), 3, dims=2)
    save_library(lib, root / "lib.mrfl")
    write_jsonl(lib, root / "lib.jsonl")
    rng = stream(5, "fuzz")
    params = LinearParams.init("a", 2, 3, rng).parameters() + LinearParams.init("b", 1, 1, rng).parameters()
    save_checkpoint(params, root / "params.adpk")
    return root, {name: (root / name).read_bytes() for name in ("lib.mrfl", "lib.jsonl", "params.adpk")}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ingest_exits_0_or_3_without_traceback(valid_files, data):
    root, valid = valid_files
    src = root / "in.jsonl"
    src.write_bytes(data.draw(mutated(valid["lib.jsonl"])))
    result = CliRunner().invoke(main, ["ingest", "--jsonl", str(src), "--out", str(root / "out.mrfl")])
    assert result.exit_code in (0, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_library_returns_or_raises_format_error(valid_files, data):
    root, valid = valid_files
    path = root / "in.mrfl"
    path.write_bytes(data.draw(mutated(valid["lib.mrfl"])))
    try:
        load_library(path)
    except (FormatError, SchemaError):
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_checkpoint_returns_or_raises_format_error(valid_files, data):
    root, valid = valid_files
    path = root / "in.adpk"
    path.write_bytes(data.draw(mutated(valid["params.adpk"])))
    try:
        load_checkpoint(path)
    except (FormatError, SchemaError):
        pass
