"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from emodub import head, retrieval, sweeps, synthetic  # noqa: E402

TINY = workloads.Sizes(
    setups=2,
    query_n=60,
    encode_dim=8,
    oracle_every=1,
    train_dim=8,
    train_length=4,
    train_mel=4,
    train_lib=12,
    train_epoch=3,
    ingest_n=96,
    sweep_n=24,
    sweep_metric_k=(2,),
    sweep_fractions=(0.5, 1.0),
)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def run_tiny(capsys, monkeypatch, tmp_path, workload, trace, seconds=0.2):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        sizes=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(capsys, monkeypatch, tmp_path, workload, trace):
    code, result = run_tiny(capsys, monkeypatch, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_covers_op_time(capsys, monkeypatch, tmp_path):
    # Tiny ops take about a millisecond, so a 0.2 s run holds so little
    # traced time that one scheduler stall can cost several points of
    # coverage; a second of ops keeps the measured share steady.
    code, result = run_tiny(capsys, monkeypatch, tmp_path, "train-256", 1, seconds=1.0)
    assert code == 0
    metrics = result["metrics"]
    assert metrics["trace_coverage_pct"]["value"] >= 95.0
    assert metrics["autodiff.adam_step_ms"]["value"] > 0
    assert metrics["autodiff.adam_bytes_computed"]["value"] == 64 * metrics["autodiff.param_count"]["value"]
    spans = [json.loads(line) for line in open(tmp_path / "train-256-seed3.trace.jsonl")]
    assert {"op", "setup", "autodiff.backward", "graph.gae_encode.direct"} <= {s["name"] for s in spans}


def test_gated_times_scale_with_the_host_probe(capsys, monkeypatch, tmp_path):
    # A probe twice as slow as usual means a host at half speed: the scaled
    # throughput is about double the wall-clock one; set-up time stays.
    monkeypatch.setattr(run.HostProbe, "__call__", lambda self: 2 * self.ref_ms)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "train-256", "--seed", "3", "--seconds", "0.2", "--trace", "0"], sizes=TINY) == 0
    capsys.readouterr()
    with open(tmp_path / "train-256-seed3-trace0.json", encoding="utf-8") as fh:
        m = {k: v["value"] for k, v in json.load(fh)["metrics"].items()}
    assert m["norm_ops_per_s"] > 1.5 * m["ops_per_s"]  # a median, not the mean


def test_host_factors_scale_each_stretch_by_the_probes_around_it():
    runner = run.Runner.__new__(run.Runner)
    runner.ref_ms = ref = 3.0
    runner.probe_ms = [ref, ref, 2 * ref, 2 * ref]
    assert runner.host_factors() == pytest.approx([1.0, 1.5, 2.0], rel=1e-12)


def test_layers_json_matches_benchmark():
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert [(m["name"], m["unit"]) for m in layers["per_layer"]] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]} | {"op_p50_ms", "op_p95_ms"}  # printed
    workload_names = {w["name"] for w in BENCHMARK["workloads"]}
    for layer in layers["per_layer"]:
        assert layer["stat"] in layers["stats"]
        assert set(layer["moves"]) <= e2e and set(layer["on"]) <= workload_names


def test_perturbed_ranking_fails_the_oracle_check(tmp_path):
    w = workloads.Query10k(TINY, 5, str(tmp_path))
    w.prepare()
    w.setup()
    query, result, enc = w.op(0)
    w.check(0, (query, result, enc))
    k = workloads.TOP_K
    ranking = result.rankings["face"]
    ranking[0], ranking[1] = ranking[1], ranking[0]
    with pytest.raises(workloads.CheckError, match="face ranking"):
        workloads.check_retrieval(w.lib, query, result, k)
    ranking.sort(key=lambda pair: (-pair[1], pair[0]))
    workloads.check_retrieval(w.lib, query, result, k)
    ranking[0] = (ranking[0][0], ranking[0][1] + 1e-15)
    with pytest.raises(workloads.CheckError, match="face ranking"):
        workloads.check_retrieval(w.lib, query, result, k)


@pytest.mark.parametrize(
    "losses, bad",
    [
        ([0.5, 0.4, 0.3, 0.5, 0.4], None),
        ([0.5, 0.4, float("nan")], "not finite"),
        ([0.5000000000000001], "differs"),
        ([0.5, 0.4, 0.3, 0.5, 0.4000000000000001], "differs"),
    ],
)
def test_loss_check(losses, bad):
    def check_all():
        seen = []
        for step, loss in enumerate(losses):
            workloads.check_loss(seen, step, loss, 0.5, 3)

    if bad is None:
        check_all()
    else:
        with pytest.raises(workloads.CheckError, match=bad):
            check_all()


def test_loss_check_after_a_new_setup():
    seen = []
    for step, loss in enumerate([0.5, 0.4]):
        workloads.check_loss(seen, step, loss, 0.5, 3)
    for step, loss in enumerate([0.5, 0.4, 0.3]):  # steps count from 0 again
        workloads.check_loss(seen, step, loss, 0.5, 3)
    assert seen == [0.5, 0.4, 0.3]
    with pytest.raises(workloads.CheckError, match="differs"):
        workloads.check_loss(seen, 2, 0.30000000000000004, 0.5, 3)


def test_reference_check():
    reference = [6153.656910668595, 6000.0]
    workloads.check_reference(0, 6153.656910668595 * (1 + 1e-12), reference, 1e-9)
    workloads.check_reference(5, 1.0, reference, 1e-9)  # beyond the table
    workloads.check_reference(0, 1.0, None, 1e-9)  # seed not in the table
    with pytest.raises(workloads.CheckError, match="reference"):
        workloads.check_reference(1, 6000.0 * (1 + 1e-8), reference, 1e-9)


def test_reference_table_matches_the_benchmark_fixture():
    with open(workloads.REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)["train-256"]
    w = workloads.Train256(workloads.Sizes(), 1, "")
    assert table["fixture"] == w.fixture()
    assert all(len(v) >= 1 for v in table["losses"].values())


@pytest.mark.parametrize("metric", list(retrieval.Metric))
@pytest.mark.parametrize("mode", list(retrieval.Mode))
def test_purity_oracle_matches_evaluate_purity(metric, mode):
    spec = synthetic.ClusterSpec(n=40, clusters=3, separation=3.0, dim=4, seed=7)
    lib = synthetic.generate_clustered_library(spec)
    res = synthetic.evaluate_purity(lib, 3, metric, mode)
    hits, total, score_sum = workloads.oracle_purity(lib, 3, metric, mode)
    assert (res.retrieved, res.purity) == (total, hits / total)
    assert math.isclose(res.mean_score, score_sum / total, rel_tol=1e-12)


def test_perturbed_sweep_row_fails_the_check(tmp_path):
    w = workloads.SweepMix(TINY, 5, str(tmp_path))
    w.prepare()
    w.setup()
    w.arm()
    for i in range(w.cycle):
        rows = w.op(i)
        w.check(i, rows)
    rows = w.op(w.cycle)
    rows[0]["purity"] += 1e-12
    with pytest.raises(workloads.CheckError, match="differs"):
        w.check(w.cycle, rows)
    w2 = workloads.SweepMix(TINY, 5, str(tmp_path))
    w2.lib = w.lib
    with pytest.raises(workloads.CheckError, match="oracle"):
        w2.check(0, rows)


def test_wrong_ranking_makes_the_command_fail(capsys, monkeypatch, tmp_path):
    original = retrieval.retrieve_modality

    def swapped(*args, **kwargs):
        out = original(*args, **kwargs)
        return out[1::-1] + out[2:]

    monkeypatch.setattr(retrieval, "retrieve_modality", swapped)
    code, result = run_tiny(capsys, monkeypatch, tmp_path, "query-10k", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_wrong_loss_makes_the_command_fail(capsys, monkeypatch, tmp_path):
    original = head.toy_train_step
    monkeypatch.setattr(head, "toy_train_step", lambda *a: original(*a) * (1 + 1e-12))
    code, result = run_tiny(capsys, monkeypatch, tmp_path, "train-256", 0)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_wrong_purity_under_dot_makes_the_command_fail(capsys, monkeypatch, tmp_path):
    original = sweeps.evaluate_purity

    def skewed(lib, k, metric=retrieval.Metric.COSINE, mode=retrieval.Mode.SPEAKER_AGNOSTIC):
        res = original(lib, k, metric, mode)
        if metric is retrieval.Metric.DOT:
            res.purity = (res.purity * res.retrieved - 1) / res.retrieved  # one hit fewer
        return res

    monkeypatch.setattr(sweeps, "evaluate_purity", skewed)
    code, result = run_tiny(capsys, monkeypatch, tmp_path, "sweep-mix", 0)
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-10k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_and_coverage():
    t = tracing.Tracer()
    t.spans = [
        ["op", 0, 100, None, "op-0", None],
        ["a", 10, 40, 0, "op-0", None],
        ["b", 40, 90, 0, "op-0", None],
        ["c", 50, 70, 2, "op-0", None],
    ]
    assert tracing.self_times_ns(t.spans) == [20, 30, 30, 20]
    assert tracing.coverage(t.spans, "op") == 0.8


def test_install_restores_originals():
    before = (retrieval.retrieve_all, head.aggregate, head.toy_loss)
    t = tracing.Tracer()
    t.install()
    assert retrieval.retrieve_all is not before[0]
    t.uninstall()
    assert (retrieval.retrieve_all, head.aggregate, head.toy_loss) == before
