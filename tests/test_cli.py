"""CLI surface: subcommands, CSV/JSON outputs, exit codes, determinism."""

import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import emodub
from emodub import autodiff
from emodub.autodiff import load_checkpoint
from emodub.cli import main
from emodub.errors import FormatError
from emodub.library import Modality, load_library, save_library, write_jsonl

from conftest import rebuilt


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def gen_lib(runner, path, n=60, clusters=3, separation=8.0, seed=3, extra=()):
    run_ok(
        runner,
        [
            "gen-synthetic", "--out", str(path), "--n", str(n), "--clusters", str(clusters),
            "--separation", str(separation), "--seed", str(seed), *extra,
        ],
    )
    return path


def assert_error_exit(result, code, message):
    """Exit ``code`` with an ``error:`` line naming ``message``, not a traceback."""
    assert result.exit_code == code, result.output
    assert "error:" in result.output and message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGenSynthetic:
    def test_writes_loadable_library(self, runner, tmp_path):
        path = gen_lib(runner, tmp_path / "lib.mrfl", n=50, clusters=4)
        lib = load_library(path)
        assert len(lib) == 50
        assert len({r.emotion_label for r in lib.records}) == 4

    def test_same_seed_byte_identical(self, runner, tmp_path):
        a = gen_lib(runner, tmp_path / "a.mrfl", seed=9)
        b = gen_lib(runner, tmp_path / "b.mrfl", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_clusters_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen-synthetic", "--out", str(tmp_path / "x.mrfl"), "--clusters", "40", "--dim", "8"],
        )
        assert result.exit_code == 2

    def test_dim_below_one_is_usage_error(self, runner, tmp_path):
        # a size below 1 is a bad flag (exit 2), not bad data (exit 3)
        for dim in ("0", "-2"):
            result = runner.invoke(
                main,
                ["gen-synthetic", "--out", str(tmp_path / "x.mrfl"), "--n", "4", "--clusters", "2", "--dim", dim],
            )
            assert_error_exit(result, 2, f"--dim must be >= 1, got {dim}")
        assert not (tmp_path / "x.mrfl").exists()

    def test_non_finite_or_negative_separation_is_usage_error(self, runner, tmp_path):
        for value in ("nan", "inf", "-inf", "-1"):
            result = runner.invoke(
                main, ["gen-synthetic", "--out", str(tmp_path / "x.mrfl"), "--separation", value]
            )
            assert_error_exit(result, 2, "separation must be finite and >= 0")
        assert not (tmp_path / "x.mrfl").exists()


class TestIngest:
    def test_jsonl_to_binary(self, runner, tmp_path, rng):
        from conftest import random_library

        lib = random_library(rng, 15)
        jsonl = tmp_path / "lib.jsonl"
        write_jsonl(lib, jsonl)
        out = tmp_path / "lib.mrfl"
        run_ok(runner, ["ingest", "--jsonl", str(jsonl), "--out", str(out)])
        assert load_library(out) == lib

    def test_corrupt_jsonl_is_data_error(self, runner, tmp_path):
        jsonl = tmp_path / "bad.jsonl"
        jsonl.write_text("{broken\n")
        result = runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])
        assert result.exit_code == 3

    def test_line_that_is_not_an_object_is_data_error(self, runner, tmp_path):
        jsonl = tmp_path / "list.jsonl"
        jsonl.write_text("[1, 2]\n")
        result = runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])
        assert_error_exit(result, 3, "expected a JSON object")

    def test_non_string_label_is_data_error(self, runner, tmp_path, rng):
        from conftest import random_library

        jsonl = tmp_path / "label.jsonl"
        write_jsonl(random_library(rng, 1), jsonl)
        obj = json.loads(jsonl.read_text())
        obj["emotion_label"] = 7
        jsonl.write_text(json.dumps(obj) + "\n")
        result = runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])
        assert_error_exit(result, 3, "emotion_label")

    def ingest_lines(self, runner, tmp_path, rng, edit):
        """Ingest a one-record JSONL file after ``edit`` rewrites its line."""
        from conftest import random_library

        jsonl = tmp_path / "edited.jsonl"
        write_jsonl(random_library(rng, 1), jsonl)
        jsonl.write_bytes(edit(jsonl.read_bytes()))
        return runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])

    def test_invalid_utf8_is_data_error(self, runner, tmp_path, rng):
        # an undecodable byte, and a valid JSON escape that decodes to a lone surrogate
        for inserted, message in (
            (b"\xff", "edited.jsonl:1: invalid UTF-8"),
            (b"\\ud800", "edited.jsonl:1: movie_id: invalid UTF-8"),
        ):
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"movie_id": "', b'"movie_id": "' + inserted)
            )
            assert_error_exit(result, 3, message)

    def test_non_string_movie_or_speaker_is_data_error(self, runner, tmp_path, rng):
        # str() once converted these: a null speaker ingested as the speaker "None"
        from conftest import random_library

        jsonl = tmp_path / "text.jsonl"
        write_jsonl(random_library(rng, 1), jsonl)
        good = json.loads(jsonl.read_text())
        for field in ("movie_id", "speaker_id"):
            for value in (None, [1, 2], 7):
                jsonl.write_text(json.dumps({**good, field: value}) + "\n")
                result = runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])
                assert_error_exit(result, 3, f"text.jsonl:1: {field} must be a string, got {json.dumps(value)}")
        assert not (tmp_path / "o.mrfl").exists()

    def test_non_integer_record_id_is_data_error(self, runner, tmp_path, rng):
        result = self.ingest_lines(
            runner, tmp_path, rng, lambda line: line.replace(b'"record_id": 0', b'"record_id": "abc"')
        )
        assert_error_exit(result, 3, "edited.jsonl:1: record_id 'abc' is not an integer")

    def test_non_numeric_vector_entry_is_data_error(self, runner, tmp_path, rng):
        # a string, and an integer too large for a float
        for entry in (b'"a"', b"1" + b"0" * 400):
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"face": [', b'"face": [' + entry + b", ")
            )
            assert_error_exit(result, 3, "edited.jsonl:1: face holds a non-numeric entry")

    def test_record_id_that_json_does_not_type_as_integer_is_data_error(self, runner, tmp_path, rng):
        # each of these used to be converted by int() and ingest as id 1, 1, 7 and 2
        for record_id, shown in ((b"1.5", "1.5"), (b"true", "True"), (b'"7"', "'7'"), (b"2.0", "2.0")):
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"record_id": 0', b'"record_id": ' + record_id)
            )
            assert_error_exit(result, 3, f"edited.jsonl:1: record_id {shown} is not an integer")

    def test_vector_entry_that_is_not_a_json_number_is_data_error(self, runner, tmp_path, rng):
        # a numeric string and a bool used to be converted to 1.5 and 1.0
        for entry in (b'"1.5"', b"true", b"null", b"[1.0]"):
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"face": [', b'"face": [' + entry + b", ")
            )
            assert_error_exit(result, 3, "edited.jsonl:1: face holds a non-numeric entry")

    def test_vector_that_is_not_a_list_is_data_error(self, runner, tmp_path, rng):
        for value in (b'"0.5"', b"0.5", b"{}"):
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"face": [', b'"face": ' + value + b', "x": [')
            )
            assert_error_exit(result, 3, "edited.jsonl:1: face is not a flat list of numbers")

    def test_duplicate_record_id_names_second_line(self, runner, tmp_path, rng):
        from conftest import random_library

        jsonl = tmp_path / "dup.jsonl"
        write_jsonl(random_library(rng, 3), jsonl)
        jsonl.write_bytes(jsonl.read_bytes().replace(b'"record_id": 2', b'"record_id": 0'))
        result = runner.invoke(main, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "o.mrfl")])
        assert_error_exit(result, 3, "dup.jsonl:3: duplicate record_id 0")

    def test_record_id_out_of_range_is_data_error(self, runner, tmp_path, rng):
        for record_id in (b"18446744073709551616", b"-1"):  # 2**64 and -1
            result = self.ingest_lines(
                runner, tmp_path, rng, lambda line: line.replace(b'"record_id": 0', b'"record_id": ' + record_id)
            )
            assert_error_exit(result, 3, "edited.jsonl:1: record_id must fit in 64 unsigned bits")


class TestRetrieve:
    def test_csv_shape_and_columns(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = run_ok(
            runner,
            ["retrieve", "--lib", str(lib_path), "--query-id", "0", "--query-id", "5", "--k", "4"],
        )
        header, rows = parse_csv(result.output)
        assert header == ["query_id", "modality", "rank", "record_id", "score", "speaker_id"]
        assert len(rows) == 2 * 3 * 4  # queries x channels x k
        for row in rows:
            assert row[1] in ("scene", "face", "text")
            float(row[4])  # score parses
            assert int(row[3]) != int(row[0])  # self excluded

    def test_score_has_17_significant_digits(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = run_ok(runner, ["retrieve", "--lib", str(lib_path), "--query-id", "0", "--k", "1"])
        _, rows = parse_csv(result.output)
        score = rows[0][4]
        mantissa = score.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) >= 15  # full float64 round-trip precision

    def test_sampled_queries_deterministic(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        r1 = run_ok(runner, ["retrieve", "--lib", str(lib_path), "--num-queries", "3", "--seed", "5"])
        r2 = run_ok(runner, ["retrieve", "--lib", str(lib_path), "--num-queries", "3", "--seed", "5"])
        assert r1.output == r2.output

    def test_requires_some_query(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = runner.invoke(main, ["retrieve", "--lib", str(lib_path)])
        assert result.exit_code == 2
        for command in ("retrieve", "encode"):  # an id the library does not hold
            result = runner.invoke(main, [command, "--lib", str(lib_path), "--query-id", "999"])
            assert_error_exit(result, 2, "--query-id 999 is not in the library")

    def test_corrupt_library_is_data_error(self, runner, tmp_path):
        bad = tmp_path / "bad.mrfl"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        result = runner.invoke(main, ["retrieve", "--lib", str(bad), "--query-id", "0"])
        assert result.exit_code == 3

    def test_every_truncation_of_a_library_is_data_error(self, runner, tmp_path):
        data = gen_lib(runner, tmp_path / "lib.mrfl", n=3, clusters=2, extra=("--dim", "2")).read_bytes()
        cut = tmp_path / "cut.mrfl"
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(FormatError, match="truncated|bad magic"):
                load_library(cut)
            result = runner.invoke(main, ["retrieve", "--lib", str(cut), "--query-id", "0"])
            assert result.exit_code == 3, (size, result.output)
            assert "error:" in result.output and ("truncated" in result.output or "bad magic" in result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_invalid_utf8_in_library_is_data_error(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        data = bytearray(lib_path.read_bytes())
        data[48] = 0xFF  # first byte of record 0's movie id: after the 36-byte header, id and length
        lib_path.write_bytes(bytes(data))
        result = runner.invoke(main, ["retrieve", "--lib", str(lib_path), "--query-id", "0"])
        assert_error_exit(result, 3, "record 0 movie is not valid UTF-8")

    def test_zero_norm_record_fails_cosine_only_inside_the_pool(self, runner, tmp_path):
        # record 5's scene entries: zero, squares that underflow to a zero
        # norm, or an overflow that makes its cosine inf / inf (NaN, exit 4)
        for value, code, message in ((0.0, 2, "zero vector"), (1e-170, 2, "zero vector"), (1.5e308, 4, "NaN")):
            lib = load_library(gen_lib(runner, tmp_path / "lib.mrfl", n=20))
            assert lib.records[5].speaker_id != lib.records[0].speaker_id
            lib = rebuilt(lib, {(5, Modality.SCENE): np.copysign(value, lib.records[0].scene.values)})
            path = tmp_path / "zero.mrfl"
            save_library(lib, path)
            args = ["retrieve", "--lib", str(path), "--query-id", "0", "--k", "3", "--metric", "cosine"]
            assert_error_exit(runner.invoke(main, args), code, message)
            result = run_ok(runner, [*args, "--mode", "specific"])
            assert ",5," not in result.output
        # a query whose squared norm underflows to 0 is rejected in either mode
        save_library(rebuilt(lib, {(0, Modality.SCENE): 1e-170}), path)
        for mode in ("agnostic", "specific"):
            assert_error_exit(runner.invoke(main, [*args, "--mode", mode]), 2, "zero vector: query scene")

    def test_negative_num_queries_is_usage_error(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = runner.invoke(main, ["retrieve", "--lib", str(lib_path), "--num-queries", "-3"])
        assert_error_exit(result, 2, "sample size must be >= 0")

    def test_bad_k_is_usage_error(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = runner.invoke(main, ["retrieve", "--lib", str(lib_path), "--query-id", "0", "--k", "0"])
        assert result.exit_code == 2
        for command in ("sweep-topk", "sweep-metric"):
            result = runner.invoke(main, [command, "--lib", str(lib_path), "--k", "x"])
            assert_error_exit(result, 2, "invalid K 'x'")

    def test_huge_k_range_is_usage_error(self, runner, tmp_path):
        # refused before expansion: 10^11 values would raise MemoryError
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        for command in ("sweep-topk", "sweep-metric"):
            for k_list in ("1..100000000000", "1..1048577", "3,1..1048576"):
                result = runner.invoke(main, [command, "--lib", str(lib_path), "--k", k_list])
                assert_error_exit(result, 2, "expands to more than 1048576 values")
                assert k_list.split(",")[-1] in result.output and "Traceback" not in result.output


class TestEncode:
    def test_topology_document(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        out = tmp_path / "enc.json"
        run_ok(
            runner,
            ["encode", "--lib", str(lib_path), "--query-id", "1", "--k", "3", "--dim", "16",
             "--out", str(out)],
        )
        doc = json.loads(out.read_text())
        stages = {s["stage"]: s for s in doc["stages"]}
        assert [len(stages[s]["nodes"]) for s in ("basic", "indirect", "direct")] == [3, 12, 21]
        assert [len(stages[s]["edges"]) for s in ("basic", "indirect", "direct")] == [3, 12, 21]
        kinds = {n["kind"] for n in stages["direct"]["nodes"]}
        assert "direct_audio_scene" in kinds
        assert "features" not in stages["basic"]

    def test_feature_dump(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        result = run_ok(
            runner,
            ["encode", "--lib", str(lib_path), "--query-id", "0", "--k", "1", "--dim", "8", "--features"],
        )
        doc = json.loads(result.output)
        feats = doc["stages"][0]["features"]
        assert len(feats) == 3 and len(feats[0]) == 8

    def test_bad_dim_is_usage_error(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl")
        for dim in ("0", "-2"):
            result = runner.invoke(main, ["encode", "--lib", str(lib_path), "--query-id", "0", "--dim", dim])
            assert_error_exit(result, 2, "parameter sizes must be >= 1")

    @pytest.mark.parametrize("metric", ["dot", "euclid"])
    def test_overflowing_features_exit_numeric(self, runner, tmp_path, metric):
        # entries near the float64 maximum overflow the projections, so the
        # encoded features are non-finite and no JSON may be written
        jsonl = tmp_path / "big.jsonl"
        with open(jsonl, "w") as fh:
            for i in range(6):
                vec = [1.5e308] * 8
                vec[i % 8] = 1e307
                rec = {"record_id": i, "movie_id": "m", "speaker_id": f"s{i % 2}", "emotion_label": "x"}
                rec.update((m.value, vec) for m in Modality)
                fh.write(json.dumps(rec) + "\n")
        run_ok(runner, ["ingest", "--jsonl", str(jsonl), "--out", str(tmp_path / "big.mrfl")])
        out = tmp_path / "enc.json"
        with np.errstate(over="ignore", invalid="ignore"):
            result = runner.invoke(
                main,
                ["encode", "--lib", str(tmp_path / "big.mrfl"), "--query-id", "0", "--metric", metric,
                 "--dim", "4", "--features", "--out", str(out)],
            )
        assert_error_exit(result, 4, "indirect stage features are non-finite")
        assert not out.exists()


def extreme_ints(lo, hi):
    """0, -1, +-2**64 and a few more edges, small values in [lo, hi], and
    random values past 64 bits."""
    return (
        st.sampled_from([0, -1, 1 << 64, -(1 << 64), (1 << 63) - 1, (1 << 64) - 1])
        | st.integers(lo, hi)
        | st.integers(-(1 << 70), 1 << 70)
    )


@pytest.fixture(scope="module")
def flag_lib(tmp_path_factory):
    """12 records over 3 speakers: 11 candidates per query agnostic, 3 specific."""
    path = tmp_path_factory.mktemp("flags") / "lib.mrfl"
    run_ok(CliRunner(), ["gen-synthetic", "--out", str(path), "--n", "12", "--speakers", "3", "--dim", "4"])
    return path


class TestEncodeFlags:
    @settings(max_examples=200, deadline=None)
    @given(
        k=extreme_ints(-2, 14),
        seed=extreme_ints(-2, 14),
        query_id=extreme_ints(-2, 14),
        dim=st.integers(1, 64),
        mode=st.sampled_from(["agnostic", "specific"]),
    )
    def test_exit_code_and_stage_sizes(self, flag_lib, k, seed, query_id, dim, mode):
        result = CliRunner().invoke(main, [
            "encode", "--lib", str(flag_lib), "--k", str(k), "--seed", str(seed),
            "--query-id", str(query_id), "--dim", str(dim), "--mode", mode,
        ])
        assert result.exit_code in (0, 2, 3, 4), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            hits = 3 * min(k, 11 if mode == "agnostic" else 3)
            doc = json.loads(result.stdout)
            sizes = [(len(stage["nodes"]), len(stage["edges"])) for stage in doc["stages"]]
            assert sizes == [(3, 3), (3 + hits, 3 + hits), (3 + 2 * hits, 3 + 2 * hits)]


class TestTrainToy:
    def test_loss_csv_and_checkpoint(self, runner, tmp_path):
        out = tmp_path / "losses.csv"
        ckpt = tmp_path / "final.adpk"
        run_ok(
            runner,
            ["train-toy", "--seed", "1", "--steps", "30", "--dim", "16", "--mel-bins", "8",
             "--out", str(out), "--checkpoint", str(ckpt)],
        )
        header, rows = parse_csv(out.read_text())
        assert header == ["step", "loss"]
        assert len(rows) == 30
        assert float(rows[-1][1]) < float(rows[0][1])
        params = load_checkpoint(ckpt)
        assert any(name.startswith("head.") for name in params)
        assert any(name.startswith("gae.") for name in params)
        assert any(name.startswith("proj.") for name in params)

    def test_deterministic(self, runner, tmp_path):
        a = run_ok(runner, ["train-toy", "--seed", "4", "--steps", "10", "--dim", "16"])
        b = run_ok(runner, ["train-toy", "--seed", "4", "--steps", "10", "--dim", "16"])
        assert a.output == b.output

    def test_bad_sizes_are_usage_errors(self, runner):
        for flags in (
            ["--dim", "0"], ["--mel-bins", "0"], ["--dim", "-3"], ["--mel-bins", "-1"],
            ["--length", "-1", "--mel-bins", "-1"],
        ):
            result = runner.invoke(main, ["train-toy", "--steps", "2", *flags])
            assert_error_exit(result, 2, "parameter sizes must be >= 1")
        for length in ("0", "-1"):
            result = runner.invoke(main, ["train-toy", "--steps", "2", "--length", length])
            assert_error_exit(result, 2, "sequence length must be >= 1")


    def test_non_finite_separation_is_usage_error(self, runner):
        for value in ("nan", "inf"):
            result = runner.invoke(main, ["train-toy", "--steps", "2", "--separation", value])
            assert_error_exit(result, 2, "separation must be finite and >= 0")


class TestGradCheckCommand:
    def test_passes_at_default_operating_point(self, runner):
        result = run_ok(runner, ["grad-check", "--dim", "6", "--length", "3", "--k", "1"])
        assert "passed" in result.output

    def test_default_seed_sees_a_wrong_basic_attention_gradient(self, runner, monkeypatch):
        # seeds 0 and 1 leave head.ca_basic.wq under the 1e-8 floor, so only seed 2 sees this
        # its gradient is one product, written into the logically zero buffer
        product = autodiff._accum_product
        monkeypatch.setattr(
            autodiff, "_accum_product",
            lambda t, a, b: product(t, 3.0 * a if getattr(t, "name", None) == "head.ca_basic.wq" else a, b),
        )
        result = runner.invoke(main, ["grad-check"])
        assert result.exit_code == 4
        assert "gradient check FAILED" in result.output

    def test_impossible_tolerance_exits_numeric(self, runner):
        # a step this coarse leaves a finite-difference error far above the tolerance
        result = runner.invoke(
            main, ["grad-check", "--dim", "6", "--length", "3", "--k", "1", "--eps", "0.1", "--tol", "1e-4"]
        )
        assert result.exit_code == 4
        assert "gradient check FAILED" in result.output

    def test_bad_dim_is_usage_error(self, runner):
        for flags in (["--dim", "0"], ["--dim", "-3"], ["--mel-bins", "-1"]):
            result = runner.invoke(main, ["grad-check", *flags])
            assert_error_exit(result, 2, "parameter sizes must be >= 1")
        result = runner.invoke(main, ["grad-check", "--length", "-2"])
        assert_error_exit(result, 2, "sequence length must be >= 1")

    def test_non_positive_eps_is_usage_error(self, runner):
        for eps in ("0", "-1e-5"):
            result = runner.invoke(main, ["grad-check", "--dim", "2", "--length", "2", "--k", "1", "--eps", eps])
            assert_error_exit(result, 2, "finite-difference step must be > 0")

    def test_non_positive_tol_is_usage_error(self, runner):
        for tol in ("0", "-1e-4", "nan"):
            result = runner.invoke(main, ["grad-check", "--dim", "2", "--length", "2", "--k", "1", "--tol", tol])
            assert_error_exit(result, 2, "gradient tolerance must be > 0")


class TestSweeps:
    def test_topk_rows_and_header(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=40)
        result = run_ok(runner, ["sweep-topk", "--lib", str(lib_path), "--k", "1..4"])
        header, rows = parse_csv(result.output)
        assert header == ["k", "mode", "purity", "mean_score"]
        assert len(rows) == 4 * 2  # K values x modes
        ks = {int(r[0]) for r in rows}
        assert ks == {1, 2, 3, 4}

    def test_topk_saturates_beyond_library_size(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=6)
        result = run_ok(runner, ["sweep-topk", "--lib", str(lib_path), "--k", "50", "--mode", "agnostic"])
        header, rows = parse_csv(result.output)
        assert len(rows) == 1  # row still emitted
        assert 0.0 <= float(rows[0][2]) <= 1.0

    def test_metric_sweep_header_and_rows(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=30)
        result = run_ok(runner, ["sweep-metric", "--lib", str(lib_path), "--k", "1,3"])
        header, rows = parse_csv(result.output)
        assert header == ["metric", "k", "purity"]
        assert {r[0] for r in rows} == {"cosine", "dot", "euclid"}
        assert len(rows) == 6

    def test_metric_sweep_cosine_rows_scale_invariant(self, runner, tmp_path, rng):
        # rescale every stored vector by 3.0: cosine purity rows must not move
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=30)
        lib = load_library(lib_path)
        lib = rebuilt(lib, {(rec.row, m): rec.vector(m).values * 3.0 for rec in lib.records for m in lib.schema})
        scaled_path = tmp_path / "scaled.mrfl"
        save_library(lib, scaled_path)
        base = run_ok(runner, ["sweep-metric", "--lib", str(lib_path), "--k", "1..3"])
        scaled = run_ok(runner, ["sweep-metric", "--lib", str(scaled_path), "--k", "1..3"])
        base_rows = [r for r in parse_csv(base.output)[1] if r[0] == "cosine"]
        scaled_rows = [r for r in parse_csv(scaled.output)[1] if r[0] == "cosine"]
        assert base_rows == scaled_rows

    def test_scale_sweep(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=50)
        result = run_ok(
            runner,
            ["sweep-scale", "--lib", str(lib_path), "--fractions", "0.2,1.0", "--k", "3", "--seed", "2"],
        )
        header, rows = parse_csv(result.output)
        assert header == ["fraction", "purity"]
        assert [float(r[0]) for r in rows] == [0.2, 1.0]

    def test_scale_fraction_one_matches_topk_row(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=40)
        scale = run_ok(runner, ["sweep-scale", "--lib", str(lib_path), "--fractions", "1.0", "--k", "3"])
        topk = run_ok(runner, ["sweep-topk", "--lib", str(lib_path), "--k", "3", "--mode", "agnostic"])
        scale_purity = parse_csv(scale.output)[1][0][1]
        topk_purity = parse_csv(topk.output)[1][0][2]
        assert scale_purity == topk_purity

    def test_bad_fraction_is_usage_error(self, runner, tmp_path):
        lib_path = gen_lib(runner, tmp_path / "lib.mrfl", n=10)
        result = runner.invoke(main, ["sweep-scale", "--lib", str(lib_path), "--fractions", "0,1.5"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["sweep-scale", "--lib", str(lib_path), "--fractions", "abc"])
        assert_error_exit(result, 2, "invalid fraction 'abc'")


class TestUsageErrors:
    def test_missing_required_flag(self, runner):
        result = runner.invoke(main, ["sweep-topk"])
        assert result.exit_code == 2

    def test_unknown_metric(self, runner, tmp_path):
        result = runner.invoke(main, ["retrieve", "--lib", "x", "--metric", "manhattan"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["gen-synthetic", "--n", str(10**12)],
            ["train-toy", "--steps", "1", "--length", str(10**12)],
            ["train-toy", "--steps", "1", "--mel-bins", str(10**12)],
            ["encode", "--query-id", "0", "--dim", str(10**9)],
        ],
        ids=["gen-synthetic-n", "train-toy-length", "train-toy-mel-bins", "encode-dim"],
    )
    def test_size_too_large_to_allocate_is_usage_error(self, runner, tmp_path, args):
        if args[0] == "encode":
            args = [*args, "--lib", str(gen_lib(runner, tmp_path / "lib.mrfl"))]
        out = ["--out", str(tmp_path / "out")]

        def limit_memory():  # about 4 GB of address space, in the child only
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(emodub.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "emodub.cli", *args, *out],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate") and "Traceback" not in proc.stderr
