"""One end-to-end, layer-attributed benchmark of the served classifier and
the disclosure optimizer.

Three workloads (``README.md`` says why each was chosen)::

    serve-nb-disclosed   naive Bayes bundle, default disclosure policy
    serve-tree-smc       decision tree, every request pure SMC
    optimize-tradeoff    offline fit + budget sweep, no serving

Each serve workload builds a deployment bundle, launches the shipped
``python -m repro serve`` command as its own process and drives it from
this process with one closed-loop caller. Usage::

    python3 benchmarks/perf/run.py --workload serve-nb-disclosed \\
        --seed 0 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py --seed 0          # all three workloads
    python3 benchmarks/perf/run.py --seed 0 --trace  # per-layer metrics
    python3 benchmarks/perf/run.py --seed 0 --smoke  # 2 s per workload

Every metric is printed by name with its unit, each workload's results
file lands in ``benchmarks/perf/results/``, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed operation or correctness check
makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import repro.telemetry as telemetry
from repro.api import (
    PipelineConfig,
    PrivacyAwareClassifier,
    SessionConfig,
    TradeoffAnalyzer,
    make_context,
)
from repro.core.serialization import load_deployment, save_deployment
from repro.crypto.modexp import resolve_backend
from repro.data import (
    generate_bayesnet_dataset,
    generate_warfarin,
    train_test_split,
)
from repro.smc import wire
from repro.smc.transport import TransportError, request_classification

import spans

WARMUP_S = 3.0
SETUP_REPEATS = 5
TAIL_BEYOND = 10
REPLAY_SAMPLE = 8  # a tree-smc replay takes ~1 s
SERVER_WORKERS = 2
BUNDLE_BUDGET = 0.1
TRADEOFF_BUDGETS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5)
GOLDEN = HERE / "golden" / "optimize-tradeoff.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"
CRYPTO_OPS = (
    "paillier_encrypt", "paillier_decrypt", "paillier_scalar_mul",
    "dgk_encrypt", "dgk_zero_test",
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs. A serve workload names the bundle's classifier
    and the disclosure every request asks for: ``None`` is the bundle's
    default policy, ``()`` is pure SMC."""

    name: str
    classifier: str = ""
    disclosure: Optional[Tuple[int, ...]] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("serve-nb-disclosed", classifier="naive_bayes"),
    Workload("serve-tree-smc", classifier="tree", disclosure=()),
    Workload("optimize-tradeoff"),
)}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


# -- measurement -------------------------------------------------------------


def tail_latency(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it: an observed sample, by nearest
    rank. Fewer samples than that give the smallest one."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds used so far by every thread of process ``pid``, to the
    nanosecond. Linux names a process's CPU-time clock
    ``(~pid << 3) | 2`` (what ``clock_getcpuclockid`` returns)."""
    return time.clock_gettime((~pid << 3) | 2)


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class OpRecord:
    index: int
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    value: object = None
    error: str = ""


@dataclass
class Window:
    """The operations of one closed-loop run."""

    records: List[OpRecord]
    start: float

    @property
    def ok(self) -> List[OpRecord]:
        return [r for r in self.records if not r.error]

    @property
    def latencies(self) -> List[float]:
        return [r.end - r.start for r in self.ok]

    @property
    def ops_per_s(self) -> float:
        return len(self.records) / (self.records[-1].end - self.start)


def closed_loop(
    seconds: float,
    do_op: Callable[[int], object],
    cpu: Callable[[], float] = time.process_time,
) -> Window:
    """Run ``do_op(0), do_op(1), ...`` one after another, each issued when
    the previous one returns, until ``seconds`` have passed; the
    operation in flight then completes. ``cpu()`` is read around every
    operation to give its CPU seconds."""
    window = Window([], time.perf_counter())
    deadline = window.start + seconds
    while not window.records or time.perf_counter() < deadline:
        record = OpRecord(len(window.records), time.perf_counter())
        cpu_before = cpu()
        try:
            record.value = do_op(record.index)
        except (TransportError, CheckFailed) as error:
            record.error = f"{type(error).__name__}: {error}"
        record.cpu_s = cpu() - cpu_before
        record.end = time.perf_counter()
        window.records.append(record)
    return window


def end_to_end(window: Window, setups: List[float],
               rss_mb: float) -> Dict[str, float]:
    """The gated metrics. Time and CPU are medians over the window's
    operations, so a burst of load from other tenants that slows fewer
    than half of them does not move them."""
    return {
        "latency_p50_s": statistics.median(window.latencies),
        "cpu_s_per_op": statistics.median(r.cpu_s for r in window.ok),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


@dataclass
class Run:
    """What one workload run hands to the report."""

    windows: List[Window]
    metrics: Dict[str, float]
    checks: Dict[str, object]
    check_failures: int
    key_bits: Dict[str, int]
    span_dump: Optional[dict]
    setups: List[float]


# -- serve workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Request:
    row: Tuple[int, ...]
    seed: int
    disclosure: Optional[Tuple[int, ...]]


def make_request(workload: Workload, seed: int, rows: List[Tuple[int, ...]],
                 phase: str, index: int) -> Request:
    """Operation ``index`` of ``phase``: its row and client seed come from
    ``random.Random("<workload>/<seed>/<phase>/<index>")``, so the
    measured window's inputs do not depend on how many warm-up
    operations ran."""
    rng = random.Random(f"{workload.name}/{seed}/{phase}/{index}")
    return Request(rows[rng.randrange(len(rows))], rng.getrandbits(40),
                   workload.disclosure)


def classify_checked(port: int, request: Request):
    """One served classification with its per-operation check."""
    result = request_classification(
        "127.0.0.1", port, list(request.row), request.seed,
        disclosure=request.disclosure,
    )
    received = result.client_stats["bytes_received"]
    if received != result.server_trace["bytes_total"]:
        raise CheckFailed(
            f"client measured {received} bytes, server trace says "
            f"{result.server_trace['bytes_total']}"
        )
    return request, result


class Server:
    """One ``repro serve`` process (or its traced twin)."""

    def __init__(self, bundle: Path, workdir: Path, tag: str,
                 traced: bool) -> None:
        args = ["--bundle", str(bundle), "--format", "json",
                "--workers", str(SERVER_WORKERS)]
        self.metrics: Optional[Path] = None
        if traced:
            self.metrics = workdir / f"server-metrics-{tag}.json"
            argv = [sys.executable, str(HERE / "traced_serve.py"), *args,
                    "--metrics", str(self.metrics)]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *args]
        log_path = workdir / f"server-{tag}.log"
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        banner = ""
        while not banner.endswith("}\n"):
            line = self.proc.stdout.readline().decode()
            if not line:
                self.close()
                raise RuntimeError(
                    f"server exited before listening; see {log_path}"
                )
            banner += line
        info = json.loads(banner)
        self.port = int(info["port"])
        self._token = info["shutdown_token"]

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful shutdown: in-flight requests drain, and a traced
        server writes its metrics document before it exits."""
        if self.proc.poll() is None:
            try:
                with socket.create_connection(
                    ("127.0.0.1", self.port), timeout=5
                ) as sock:
                    body = wire.encode(wire.shutdown_payload(self._token))
                    wire.send_frame(sock, wire.KIND_SHUTDOWN, body)
                    wire.recv_frame(sock)
            except (OSError, wire.WireError):
                pass  # already going down; wait() below decides
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass  # close() kills it
        self.close()

    def close(self) -> None:
        """Kill the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class ServePhase:
    server: Server
    window: Window
    rss_mb: float


def build_bundle(workload: Workload, path: Path):
    """Fit the workload's model on the warfarin cohort and save its
    deployment bundle; returns the test rows requests draw from."""
    train, test = train_test_split(
        generate_warfarin(n_samples=4000, seed=0), seed=0
    )
    pipeline = PrivacyAwareClassifier(
        PipelineConfig(classifier=workload.classifier)
    ).fit(train)
    pipeline.select_disclosure(BUNDLE_BUDGET)
    save_deployment(str(path), pipeline)
    return [tuple(int(v) for v in row) for row in test.X]


def serve_phase(workload: Workload, seed: int, rows: List[Tuple[int, ...]],
                bundle: Path, workdir: Path, seconds: float, warmup_s: float,
                setups: List[float], repeats: int, traced: bool) -> ServePhase:
    """Set up ``repeats`` times (timing spawn to first result), warm up,
    then measure one window against the last server."""
    server = None
    try:
        for attempt in range(repeats):
            if server is not None:
                server.stop()
            server = Server(bundle, workdir,
                            f"{'traced' if traced else 'plain'}{attempt}",
                            traced)
            # The probe asks for the bundle's default policy, so that
            # set-up time is not dominated by one pure-SMC classification.
            probe = make_request(workload, seed, rows, "setup", attempt)
            classify_checked(server.port, replace(probe, disclosure=None))
            setups.append(time.perf_counter() - server.started)
        port = server.port
        warm = closed_loop(warmup_s, lambda i: classify_checked(
            port, make_request(workload, seed, rows, "warmup", i)))
        if len(warm.ok) != len(warm.records):
            raise RuntimeError(f"warm-up failed: {warm.records[0].error}")

        def op(index: int):
            with telemetry.span("bench.client.request"):
                return classify_checked(port, make_request(
                    workload, seed, rows, "window", index))

        if traced:
            telemetry.configure(True, reset=True)
        window = closed_loop(
            seconds, op,
            cpu=lambda: server.cpu_seconds() + time.process_time(),
        )
        telemetry.configure(False)
        rss = server.peak_rss_mb()
        server.stop()
        return ServePhase(server, window, rss)
    finally:
        if server is not None:
            server.close()


def replay_mismatches(bundle: Path, workload: Workload, window: Window,
                      seed: int) -> Tuple[int, int]:
    """Re-run a seeded sample of completed operations in-process with the
    same client seed and disclosure; returns ``(sampled, label
    mismatches)``."""
    deployed = load_deployment(str(bundle))
    ok = window.ok
    sample = random.Random(f"{workload.name}/{seed}/replay").sample(
        ok, min(REPLAY_SAMPLE, len(ok))
    )
    mismatches = 0
    for record in sample:
        request, result = record.value
        ctx = make_context(config=SessionConfig(
            seed=request.seed,
            paillier_bits=deployed.paillier_bits,
            dgk_bits=deployed.dgk_bits,
        ))
        label = deployed.classify(ctx, list(request.row),
                                  disclosure=request.disclosure)
        mismatches += label != result.label
    return len(sample), mismatches


#: Server self time per operation: metric -> layer (``spans.layer_of``).
SERVER_LAYER_TIMES = {
    "smc.context.keygen_s_per_op": "smc.context.keygen",
    "secure.classify_self_s_per_op": "secure.classify",
    "smc.compare_s_per_op": "smc.compare",
    "smc.argmax_s_per_op": "smc.argmax",
    "smc.lookup_s_per_op": "smc.lookup",
    "smc.wire.encode_s_per_op": "smc.wire.encode",
    "smc.wire.decode_s_per_op": "smc.wire.decode",
    "smc.transport.send_s_per_op": "smc.transport.send",
    "smc.transport.recv_wait_s_per_op": "smc.transport.recv_wait",
}


def serve_layer_metrics(server_doc: dict, client_doc: dict, window: Window,
                        untraced_ops_per_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced serve window.

    Server spans inside ``serve.request`` are summed over the window's
    requests; server spans outside any request (reading the request,
    sending the result) are averaged over every request the server
    handled. Crypto counts, bytes and rounds come from the RESULT
    traces, so they are exact.
    """
    n = len(window.records)
    results = [result for _, result in (r.value for r in window.ok)]
    ids = {result.request_id for result in results}
    requests = [s for s in server_doc["spans"] if s["name"] == "serve.request"]
    mine = [s for s in requests if s["attributes"].get("request_id") in ids]
    inside = spans.self_seconds_by_layer(mine)
    outside = spans.self_seconds_by_layer(
        s for s in server_doc["spans"] if s["name"] != "serve.request"
    )
    counters = server_doc["counters"]
    client, _ = spans.self_seconds_by_name(client_doc["spans"])
    waits = server_doc["histograms"].get("serve.queue_wait", {}).get(
        "samples")
    metrics = {
        name: inside[layer] / len(mine) + outside[layer] / len(requests)
        for name, layer in SERVER_LAYER_TIMES.items()
    }
    metrics.update({
        "serving.queue_wait_s_p50": statistics.median(waits or [0.0]),
        "serving.request_s_p50": statistics.median(
            s["elapsed_seconds"] for s in mine),
        "serving.errors": counters.get("serve.errors", 0),
        "serving.shed": counters.get("serve.shed", 0),
        "smc.wire.bytes_per_op": statistics.fmean(
            r.server_trace["bytes_total"] for r in results),
        "smc.wire.rounds_per_op": statistics.fmean(
            r.server_trace["rounds"] for r in results),
        "smc.transport.frames_per_op": statistics.fmean(
            r.client_stats["frames"] for r in results),
        "client.connect_s_per_op": client["bench.client.connect"] / n,
        "client.mirror_s_per_op": (
            client["bench.wire.encode"] + client["bench.wire.decode"]
            + client["bench.wire.send_frame"]) / n,
        "client.wait_s_per_op": client["bench.wire.recv_frame"] / n,
        "trace.overhead_fraction": 1.0 - window.ops_per_s / untraced_ops_per_s,
        "trace.unattributed_fraction": inside["serving.request"] / sum(
            s["elapsed_seconds"] for s in mine),
    })
    for op in CRYPTO_OPS:
        metrics[f"crypto.{op}_per_op"] = statistics.fmean(
            r.server_trace.get(f"op_{op}", 0.0) for r in results)
    return metrics


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool,
              warmup_s: float, repeats: int, workdir: Path) -> Run:
    bundle = workdir / f"{workload.classifier}.json"
    rows = build_bundle(workload, bundle)
    setups: List[float] = []
    phases = [serve_phase(workload, seed, rows, bundle, workdir, seconds,
                          warmup_s, setups, 1 if trace else repeats,
                          traced=False)]
    if trace:
        spans.install_client_spans()
        phases.append(serve_phase(workload, seed, rows, bundle, workdir,
                                  seconds, warmup_s, setups, 1, traced=True))
    measured = phases[-1]
    sampled, mismatches = replay_mismatches(bundle, workload,
                                            measured.window, seed)
    checks: Dict[str, object] = {
        "per_op": "client bytes == server trace bytes_total",
        "replayed": sampled, "replay_mismatches": mismatches,
    }
    if trace:
        dump = {"server": telemetry.load_metrics(str(measured.server.metrics)),
                "load_generator": telemetry.snapshot()}
        metrics = serve_layer_metrics(dump["server"], dump["load_generator"],
                                      measured.window,
                                      phases[0].window.ops_per_s)
    else:
        metrics = end_to_end(measured.window, setups, measured.rss_mb)
        dump = None
    deployed = load_deployment(str(bundle))
    return Run(
        windows=[p.window for p in phases],
        metrics=metrics,
        checks=checks,
        check_failures=mismatches,
        key_bits={"paillier": deployed.paillier_bits,
                  "dgk": deployed.dgk_bits},
        span_dump=dump,
        setups=setups,
    )


# -- optimize-tradeoff -------------------------------------------------------


#: (name, classifier, solver, risk_sample_rows) of the two sweeps: the
#: configurations of experiments E6 (tree on warfarin) and E8 (naive
#: Bayes on the 48-feature Bayesian-network cohort).
SWEEPS = (
    ("tree-warfarin", "tree", "branch_and_bound", 200),
    ("naive_bayes-bayesnet48", "naive_bayes", "greedy", 150),
)


def optimizer_inputs() -> dict:
    train, _ = train_test_split(
        generate_warfarin(n_samples=4000, seed=0), seed=0
    )
    bayesnet = generate_bayesnet_dataset(
        n_samples=1500, n_features=48, domain_size=3, n_sensitive=2,
        seed=148,
    )
    return {"tree-warfarin": train, "naive_bayes-bayesnet48": bayesnet}


def _trace_solver(pipeline: PrivacyAwareClassifier) -> None:
    """Time the solver, and each risk and cost evaluation it makes."""
    build_problem = pipeline.build_problem

    def traced_problem(risk_budget: float):
        problem = build_problem(risk_budget)
        problem.risk = spans.spanned("bench.privacy.risk", problem.risk)
        problem.cost = spans.spanned("bench.secure.costing.cost",
                                     problem.cost)
        return problem

    pipeline.build_problem = traced_problem
    pipeline.select_disclosure = spans.spanned(
        "bench.selection.solve", pipeline.select_disclosure
    )


def tradeoff_sweeps(inputs: dict, traced: bool = False) -> dict:
    """One optimizer operation: a fresh fit and budget sweep per problem."""
    outputs = {}
    for name, classifier, solver, risk_rows in SWEEPS:
        config = PipelineConfig(
            classifier=classifier, paillier_bits=384, dgk_bits=192,
            risk_sample_rows=risk_rows, linear_iterations=150,
        )
        with telemetry.span("bench.core.pipeline.fit"):
            pipeline = PrivacyAwareClassifier(config).fit(inputs[name])
        if traced:
            _trace_solver(pipeline)
        points = TradeoffAnalyzer(pipeline).sweep(TRADEOFF_BUDGETS,
                                                  solver=solver)
        outputs[name] = [
            {"budget": p.risk_budget, "disclosed": list(p.disclosed_names),
             "cost_s": p.cost_seconds, "risk": p.achieved_risk}
            for p in points
        ]
    return outputs


def golden_mismatch(outputs: dict, golden: dict) -> str:
    """The first difference from the golden sweeps, or ``""``."""
    if sorted(outputs) != sorted(golden):
        return f"sweeps {sorted(outputs)} != golden {sorted(golden)}"
    for name, points in outputs.items():
        if len(points) != len(golden[name]):
            return f"{name}: {len(points)} points != {len(golden[name])}"
        for point, want in zip(points, golden[name]):
            if point["disclosed"] != want["disclosed"] or not all(
                math.isclose(point[k], want[k], rel_tol=1e-9, abs_tol=1e-12)
                for k in ("budget", "cost_s", "risk")
            ):
                return f"{name} at budget {want['budget']}: {point} != {want}"
    return ""


def optimizer_layer_metrics(window: Window,
                            untraced_ops_per_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced optimizer window."""
    roots = telemetry.snapshot()["spans"]
    layers = spans.self_seconds_by_layer(roots)
    _, counts = spans.self_seconds_by_name(roots)
    n = len(window.records)
    return {
        "core.pipeline.fit_s_per_op": layers["core.pipeline.fit"] / n,
        "selection.solve_s_per_op": layers["selection.solve"] / n,
        "privacy.risk_s_per_op": layers["privacy.risk"] / n,
        "secure.costing.cost_s_per_op": layers["secure.costing.cost"] / n,
        "selection.risk_evals_per_op": counts["bench.privacy.risk"] / n,
        "selection.cost_evals_per_op": (
            counts["bench.secure.costing.cost"] / n),
        "trace.overhead_fraction": 1.0 - window.ops_per_s / untraced_ops_per_s,
        "trace.unattributed_fraction": layers["op"] / sum(
            r["elapsed_seconds"] for r in roots if r["name"] == "bench.op"),
    }


def run_optimize(workload: Workload, seconds: float, trace: bool,
                 warmup_s: float, repeats: int) -> Run:
    """The optimizer workload. Its inputs are fixed cohorts, so the
    workload seed changes nothing here."""
    golden = json.loads(GOLDEN.read_text())
    setups = []
    # Set-up here takes ~8 ms, and its first run pays lazy imports:
    # five times the serve workloads' samples keep the median steady.
    for _ in range(5 * repeats):
        began = time.perf_counter()
        inputs = optimizer_inputs()
        setups.append(time.perf_counter() - began)

    def make_op(traced: bool) -> Callable[[int], None]:
        def op(index: int) -> None:
            with telemetry.span("bench.op"):
                outputs = tradeoff_sweeps(inputs, traced)
            mismatch = golden_mismatch(outputs, golden)
            if mismatch:
                raise CheckFailed(mismatch)
        return op

    closed_loop(warmup_s, make_op(False))
    windows = [closed_loop(seconds, make_op(False))]
    if trace:
        closed_loop(warmup_s, make_op(True))
        telemetry.configure(True, reset=True)
        windows.append(closed_loop(seconds, make_op(True)))
        telemetry.configure(False)
        metrics = optimizer_layer_metrics(windows[1], windows[0].ops_per_s)
        dump = {"load_generator": telemetry.snapshot()}
    else:
        metrics = end_to_end(windows[0], setups, peak_rss_mb())
        dump = None
    return Run(
        windows=windows,
        metrics=metrics,
        checks={"golden": str(GOLDEN.relative_to(ROOT))},
        check_failures=0,
        key_bits={"paillier": 384, "dgk": 192},
        span_dump=dump,
        setups=setups,
    )


# -- reporting ---------------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside a
    git working tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(workload: Workload, run: Run, args: argparse.Namespace,
           catalogue: List[dict], settings: dict, started_at: float) -> dict:
    """Print the run's metrics, write its results file, and return the
    result object. Catalogue metrics a workload never enters read 0."""
    records = [r for window in run.windows for r in window.records]
    errors = [r.error for r in records if r.error]
    values = dict(run.metrics)
    metrics = {
        entry["name"]: {"value": float(values.pop(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in catalogue
    }
    if values:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(values)}")
    result = {
        "correct": not errors and run.check_failures == 0,
        "attempted": len(records),
        "failed": len(errors),
        "metrics": metrics,
    }
    measured = run.windows[-1]
    latencies = measured.latencies
    # Reported, not gated: on a shared host the tail moves with every
    # burst of neighbouring load (see README.md, "Host caveats").
    percentile, value = tail_latency(latencies)
    tail = {
        "percentile": percentile,
        "value_s": value,
        "samples": len(latencies),
        "samples_beyond": sum(v > value for v in latencies),
    }
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "started_at": started_at,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "modexp_backend": resolve_backend(
                os.environ.get("REPRO_CRYPTO_BACKEND", "auto")).name,
            "key_bits": run.key_bits,
            "git_commit": git_commit(),
            "seed": args.seed,
            "callers": 1,
            "server_workers": SERVER_WORKERS,
            **settings,
        },
        "latency_tail": tail,
        "latencies_s": latencies,
        "setup_samples_s": run.setups,
        "checks": run.checks,
        "errors": errors[:5],
        **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (args.out / f"{stem}.json").write_text(json.dumps(document, indent=1))
    if run.span_dump is not None:
        with gzip.open(args.out / f"{stem}.spans.json.gz", "wt") as handle:
            json.dump(run.span_dump, handle)
    print(f"{workload.name}: seed {args.seed}, {result['attempted']} "
          f"attempted, {result['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  latency_p{tail['percentile']:.3g}_s = {tail['value_s']:.6g} s "
          f"(not gated; {tail['samples']} samples, "
          f"{tail['samples_beyond']} beyond)")
    print(f"  checks: {json.dumps(run.checks)}")
    for error in errors[:5]:
        print(f"  failed: {error}")
    print(f"  results: {args.out / stem}.json")
    return result


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed benchmark of the served "
                    "classifier and the disclosure optimizer.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: picks rows and client seeds "
                             "(default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced "
                             "run and write its span dump")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, 1 s warm-up, one set-up")
    parser.add_argument("--out", type=Path, default=RESULTS,
                        help="results directory (default %(default)s)")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite golden/optimize-tradeoff.json from "
                             "this checkout, then exit")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.write_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(
            json.dumps(tradeoff_sweeps(optimizer_inputs()), indent=1) + "\n"
        )
        return 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = benchmark["per_layer" if args.trace else "end_to_end"]
    seconds = 2.0 if args.smoke else (args.seconds or benchmark["run_seconds"])
    if args.trace:
        seconds /= 2  # an untraced window, then a traced one
    settings = {
        "window_s": seconds,
        "warmup_s": 1.0 if args.smoke else WARMUP_S,
        "setup_repeats": 1 if args.smoke else SETUP_REPEATS,
    }
    # A terminated run still stops the server it started: SystemExit
    # unwinds through the ``finally`` blocks that close it.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    # Everything the run writes stays in the checkout, temporary files
    # included (the servers inherit TMPDIR).
    WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK)
    results = {}
    for name in [args.workload] if args.workload else list(WORKLOADS):
        workload = WORKLOADS[name]
        started_at = time.time()
        if workload.classifier:
            workdir = WORK / f"{name}-{os.getpid()}"
            workdir.mkdir()
            try:
                run = run_serve(workload, args.seed, seconds, bool(args.trace),
                                settings["warmup_s"],
                                settings["setup_repeats"], workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        else:
            run = run_optimize(workload, seconds, bool(args.trace),
                               settings["warmup_s"],
                               settings["setup_repeats"])
        results[name] = report(workload, run, args, catalogue, settings,
                               started_at)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
