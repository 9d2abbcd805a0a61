"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload query-10k --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy. With ``--trace 0`` the last line of standard output is a
JSON object holding the gated end-to-end metrics (:data:`GATED`), whose
op times are scaled to the host's usual speed (:class:`HostProbe`); the
lines before it print them and the ungated ones: the wall-clock ops_per_s,
op_p50_ms, op_p95_ms and failed_ratio. With ``--trace 1`` the JSON object
holds every per-layer metric of ``perfbench/layers.json``, from a run that
alternates untraced and traced ops. Human-readable lines come
first. A wrong output makes the command exit with code 1; a checkout
without ``src/emodub`` makes it exit with code 2 before any result.

Each run also writes ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``
(machine facts, samples, digests), and a traced run writes its spans to
``.perfbench_out/<workload>-seed<seed>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
P95_MIN_OPS = 200
# Host-scaled op time. The shared 2-vCPU host switches between a fast and
# a slow speed (up to 2x apart) every second or so, and can stay mostly in
# one of them for minutes, so two sets of runs of the same code differed
# by 20% in wall-clock ops per second. The runner times a short fixed
# HostProbe just before and just after every op, and norm_ops_per_s scales
# each op time by the probe's usual time on this host over the mean of the
# two: it reads as it would on a host that stays at its usual speed. The
# wall-clock ops_per_s is printed beside it. setup_s stays wall-clock:
# set-up work (parsing, allocation) follows no probe kind as closely, and
# scaling made its spread over seeds wider.
# The end-to-end metrics of the result line. The latency percentiles and
# failed_ratio are printed but not gated: a percentile flips between the
# host's fast and slow speeds, while the throughput moves with the share
# of slow time only. failed_ratio is 0 on a correct run; the result line's
# "failed" and "attempted" carry it.
GATED = ("setup_s", "norm_ops_per_s", "peak_rss_mb")


def import_package():
    """Import ``emodub`` from this checkout's ``src/``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "emodub", "__init__.py")):
        print(f"error: no package source at {SRC}/emodub", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import emodub

    if os.path.dirname(os.path.dirname(os.path.abspath(emodub.__file__))) != SRC:
        print(f"error: emodub resolved to {emodub.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return emodub


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def calls_probe(np):
    """Many numpy calls on 8-vectors, as the per-record scans of retrieval make."""
    vecs = list(np.cos(np.arange(64 * 8.0)).reshape(64, 8))

    def run() -> float:
        dot, s = np.dot, 0.0
        for a in vecs[:32]:
            for b in vecs:
                s += math.sqrt(abs(float(dot(a, b))))
        return s

    return run


def memory_probe(np):
    """One elementwise pass over 8 MB arrays, as Adam's update makes."""
    a = np.sin(np.arange(float(1 << 20)))
    b = np.empty_like(a)

    def run() -> None:
        np.multiply(a, 0.999, out=b)
        np.add(b, a, out=b)

    return run


PROBES = {"calls": calls_probe, "memory": memory_probe}


def probe_server(kind: str, conn, parent_conn) -> None:
    """The probe's child process: time the probe on each request.

    It stops on a false request, or when the parent's end of the pipe is
    closed; it closes its inherited copy of that end first, so that a
    parent which dies still ends it.
    """
    import numpy as np

    parent_conn.close()
    part = PROBES[kind](np)
    while True:
        try:
            if not conn.recv():
                return
        except EOFError:
            return
        t0 = time.perf_counter_ns()
        part()
        conn.send((time.perf_counter_ns() - t0) / 1e6)


class HostProbe:
    """A fixed piece of work, timed between ops: the host's speed right now.

    The probe is the benchmark's own code and never changes, so its time
    follows the host alone. Each workload names the kind of work its ops
    mostly do (:attr:`workloads.Workload.probe`, a key of :data:`PROBES`),
    since the host's slow spells slow some kinds of work more than others.
    ``REF_MS`` holds each kind's time on this host at its usual speed.

    The two vCPUs are not always at the same speed, so the ``calls`` probe
    runs in this process, on the CPU the ops run on. The ``memory`` probe
    measures memory bandwidth, which the cores share; it runs in a child
    process forked once, which waits for each request, so that its arrays
    stay out of this process's ``peak_rss_mb``. Use as a context manager:
    leaving it stops the child and waits for it.
    """

    REF_MS = {"calls": 3.2, "memory": 3.5}

    def __init__(self, kind: str):
        import numpy as np

        self.ref_ms = self.REF_MS[kind]
        self.proc = None
        if kind != "memory":
            self.part = PROBES[kind](np)
            return
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=probe_server, args=(kind, child_conn, self.conn), daemon=True)
        self.proc.start()
        child_conn.close()

    def __call__(self) -> float:
        """Milliseconds the probe takes now."""
        if self.proc is None:
            t0 = time.perf_counter_ns()
            self.part()
            return (time.perf_counter_ns() - t0) / 1e6
        self.conn.send(True)
        return self.conn.recv()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is None:
            return
        try:
            self.conn.send(False)
        except OSError:
            pass  # the child has ended already
        self.conn.close()
        self.proc.join(timeout=30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    """Set-up, the timed closed loop, and the metrics of one run."""

    def __init__(self, workload, seconds: float, probe, tracer=None):
        self.w = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setup_ns: list[int] = []
        self.prints: list[str] = []
        self.ops: list[tuple[bool, int, bool]] = []  # (traced, ns, ok)
        self.errors: list[str] = []
        self.probe = probe
        self.ref_ms = probe.ref_ms
        self.probe_ms: list[float] = []
        # The probe just before each op, as an index into probe_ms; the
        # next probe follows the op.
        self.op_probe: list[int] = []

    def _fail(self, what: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(what)
            print(f"FAILED {what}", file=sys.stderr)

    def _begin(self, root: str, request: str):
        if self.tracer is None:
            return None
        self.tracer.install()
        self.tracer.request = request
        return self.tracer.open(root)

    def _end(self, index) -> None:
        if index is not None:
            self.tracer.close(index)
            self.tracer.uninstall()
            self.tracer.request = None

    def run_setup(self, r: int) -> None:
        """Drop the previous state, time one set-up, then arm the checks."""
        self.w.reset()
        gc.collect()
        index = self._begin("setup", f"setup-{r}")
        t0 = time.perf_counter_ns()
        self.prints.append(self.w.setup())
        self.setup_ns.append(time.perf_counter_ns() - t0)
        self._end(index)
        gc.collect()
        try:
            self.w.arm()
        except Exception:
            self._fail(f"set-up check: {traceback.format_exc()}")

    def run(self) -> None:
        """Closed loop until ``seconds`` of op time have passed.

        The set-ups are spread evenly over the op time, so ``setup_s`` and
        ``norm_ops_per_s`` sample the host over the same stretch; set-up
        time does not count as op time, and neither do the host probes.
        In a traced run ops alternate untraced and traced. The loop ends on
        a multiple of the workload's cycle (and, traced, of two), so every
        kind of op is counted alike.
        """
        w, tracer = self.w, self.tracer
        setups = w.sizes.setups
        cycle = math.lcm(w.cycle, 2 if tracer else 1)
        op_s = 0.0
        i = 0
        while True:
            if len(self.setup_ns) < setups and op_s >= self.seconds * len(self.setup_ns) / setups:
                self.run_setup(len(self.setup_ns))
                continue
            traced = tracer is not None and i % 2 == 1
            start = time.perf_counter()
            w.before(i)
            self.op_probe.append(len(self.probe_ms))
            self.probe_ms.append(self.probe())
            index = self._begin("op", f"op-{i}") if traced else None
            t0 = time.perf_counter_ns()
            try:
                out = w.op(i)
                err = None
            except Exception:
                out, err = None, traceback.format_exc()
            ns = time.perf_counter_ns() - t0
            self._end(index)
            self.probe_ms.append(self.probe())
            ok = err is None
            if ok:
                try:
                    w.check(i, out)
                except Exception:
                    ok, err = False, traceback.format_exc()
            if not ok:
                self._fail(f"op {i}: {err.strip().splitlines()[-1]}\n{err}")
            self.ops.append((traced, ns, ok))
            del out
            op_s += time.perf_counter() - start
            i += 1
            if op_s >= self.seconds and len(self.setup_ns) == setups and i % cycle == 0:
                break
        if len(set(self.prints)) != 1:
            self._fail(f"set-up is not deterministic: fingerprints {self.prints}")
        w.finish()

    # --- metrics ----------------------------------------------------------

    def host_factors(self) -> list[float]:
        """Host slowness between probe j and j + 1, against its usual speed."""
        p, ref = self.probe_ms, self.ref_ms
        return [(a + b) / (2 * ref) for a, b in zip(p, p[1:])]

    def end_to_end(self) -> dict:
        """The end-to-end metrics, the gated ones first.

        ``norm_ops_per_s`` is the reciprocal of the mean over the
        workload's kinds of op (``i % cycle``) of each kind's median
        host-scaled op time: a median, because the host can switch speed
        within an op, and each kind alike, because their costs differ.
        ``ops_per_s`` is the wall-clock one, ops over op time.
        """
        host = self.host_factors()
        kinds: dict[int, list[float]] = {}
        lat_ms = []
        for i, ((traced, ns, _ok), j) in enumerate(zip(self.ops, self.op_probe)):
            if not traced:
                lat_ms.append(ns / 1e6)
                kinds.setdefault(i % self.w.cycle, []).append(ns / host[j])
        norm_op_ns = statistics.mean(statistics.median(v) for v in kinds.values())
        return {
            "setup_s": (statistics.median(self.setup_ns) / 1e9, "s"),
            "norm_ops_per_s": (1e9 / norm_op_ns, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p95_ms": (percentile(lat_ms, 95), "ms"),
        }

    def overhead_pct(self) -> float:
        """Median traced op time over median untraced op time, in percent."""
        traced = [ns for t, ns, _ok in self.ops if t]
        untraced = [ns for t, ns, _ok in self.ops if not t]
        if not traced or not untraced:
            return 0.0
        return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0


def layer_metrics(runner: Runner, layers: list[dict]) -> dict:
    """Evaluate every per-layer metric of ``layers.json`` on the run's spans."""
    import tracing

    spans = runner.tracer.spans
    stats = tracing.per_layer(spans)
    selfs = tracing.self_times_ns(spans)
    scale = {"s": 1e-9, "ms": 1e-6}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[tracing.PARENT] is not None:
            children.setdefault(s[tracing.PARENT], []).append(i)

    def candidates_per_call():
        per_call = [
            sum((spans[c][tracing.FIELDS] or {}).get("candidates", 0) for c in children.get(i, []))
            for i, s in enumerate(spans)
            if s[tracing.NAME] == "retrieval.retrieve_all"
        ]
        return statistics.median(per_call) if per_call else 0

    def ns_per_candidate():
        ns = cands = 0
        for s, self_ns in zip(spans, selfs):
            if s[tracing.NAME].startswith("retrieval.channel."):
                ns += self_ns
                cands += s[tracing.FIELDS]["candidates"]
        return ns / cands if cands else 0.0

    def setup_sum(span):
        per_setup: dict[str, int] = {}
        for s, self_ns in zip(spans, selfs):
            if s[tracing.NAME] == span and (s[tracing.REQUEST] or "").startswith("setup-"):
                per_setup[s[tracing.REQUEST]] = per_setup.get(s[tracing.REQUEST], 0) + self_ns
        return statistics.median(per_setup.values()) if per_setup else 0

    out = {}
    for layer in layers:
        stat, span, unit = layer["stat"], layer.get("span"), layer["unit"]
        if stat == "self_median":
            value = stats[span]["self_median_ns"] * scale[unit] if span in stats else 0.0
        elif stat == "op_self_median":
            times = [t for s, t in zip(spans, selfs) if s[tracing.NAME] == span and (s[tracing.REQUEST] or "").startswith("op-")]
            value = statistics.median(times) * scale[unit] if times else 0.0
        elif stat == "setup_sum":
            value = setup_sum(span) * scale[unit]
        elif stat == "field_median":
            values = stats.get(span, {}).get("fields", {}).get(layer["field"], [])
            value = statistics.median(values) if values else 0
        elif stat == "candidates_per_call":
            value = candidates_per_call()
        elif stat == "ns_per_candidate":
            value = ns_per_candidate()
        elif stat == "param_count":
            value = runner.w.param_count
        elif stat == "adam_bytes":
            # Model of the bytes one Adam step moves: it reads p, g, m, v and
            # writes p, m, v and the zeroed g, 8 bytes each, per parameter.
            value = 64 * runner.w.param_count if "autodiff.adam_step" in stats else 0
        elif stat == "overhead_pct":
            value = runner.overhead_pct()
        elif stat == "calib_ms":
            value = statistics.median(runner.probe_ms)
        elif stat == "coverage_pct":
            value = tracing.coverage(spans, "op") * 100.0
        else:
            raise ValueError(f"unknown stat {stat!r} for {layer['name']}")
        out[layer["name"]] = (value, unit)
    return out


def main(argv=None, sizes=None) -> int:
    import_package()
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    facts = machine_facts()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    origin = time.perf_counter_ns()
    try:
        workload = workloads.WORKLOADS[args.workload](
            sizes or workloads.Sizes(), args.seed, workdir, tracer
        )
        with HostProbe(workload.probe) as probe:
            runner = Runner(workload, args.seconds, probe, tracer)
            workload.prepare()
            runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.ops)
    failed = sum(1 for _t, _ns, ok in runner.ops if not ok)
    correct = failed == 0 and not runner.errors
    e2e = runner.end_to_end()
    metrics = layer_metrics(runner, layers) if tracer else {k: e2e[k] for k in GATED}
    untraced = sum(1 for traced, _ns, _ok in runner.ops if not traced)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {json.dumps(facts)}")
    probes = runner.probe_ms
    print(f"# host probe: median {statistics.median(probes):.3f} ms of {len(probes)}"
          f" (min {min(probes):.3f}, max {max(probes):.3f}); gated times scaled to {runner.ref_ms:g} ms")
    for key, value in sorted(workload.facts.items()):
        print(f"# {key}: {value}")
    print(f"# end-to-end over {untraced} untraced ops:")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(runner.setup_ns)} set-ups)"
        elif name == "op_p95_ms" and untraced < P95_MIN_OPS:
            note = f"  (n={untraced} < {P95_MIN_OPS}: few samples beyond the percentile)"
        print(f"{name:>20} {value:>16.6g} {unit}{note}")
    print(f"{'failed_ratio':>20} {failed / attempted:>16.6g} ({failed} failed / {attempted} attempted)")
    if tracer:
        print("# per-layer (median self time per call unless layers.json says otherwise):")
        for name, (value, unit) in metrics.items():
            print(f"{name:>34} {value:>16.6g} {unit}")
        tracer.write_jsonl(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.jsonl"), origin)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "probe_ms": probes,
        "op_probe": runner.op_probe,
        "setup_ns": runner.setup_ns,
        "ops": [{"traced": t, "ns": ns, "ok": ok} for t, ns, ok in runner.ops],
        "facts": workload.facts,
        "errors": runner.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **metrics}.items()},
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
