"""perfbench: the repository's benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload route_mix --seed 1 --seconds 15 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``).  Other modes:

    python3 perfbench/run.py --smoke              # tiny dataset, every name printed
    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --record city        # re-record golden/city.json

``--save FILE`` appends each run's result (with its workload, seed and trace
flag) to a JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import config
import queries
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# --------------------------------------------------------------------------- #
# Declared metrics
# --------------------------------------------------------------------------- #
def declared() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def emit(values: dict[str, float], trace: bool) -> dict[str, Any]:
    """The declared metrics of one kind, with their units, from ``values``."""
    spec = declared()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in spec:
        name = metric["name"]
        value = float(values.get(name, 0.0)) if trace else float(values[name])
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(config.CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(spec: dict[str, Any], timeout: float = 170.0) -> dict[str, Any]:
    """One repetition in a fresh interpreter; its result is the last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker task {spec['task']} exceeded {timeout:g} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"worker task {spec['task']} exited {proc.returncode}: {proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(scale: str) -> str:
    """Identity of the code under test plus the store's recipe."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    cfg = config.SCALES[scale]
    digest.update(json.dumps([cfg["route_recipe"], cfg["settings"], config.TABLE_METHODS]).encode())
    return digest.hexdigest()[:16]


def ensure_store(scale: str) -> tuple[Path, dict[str, Any]]:
    """The route store of ``scale``, built by the code under test once per source tree."""
    home = WORK / f"store-{scale}-{source_digest(scale)}"
    meta = home / "meta.json"
    if not meta.exists():
        WORK.mkdir(parents=True, exist_ok=True)
        with open(WORK / ".lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not meta.exists():
                for stale in WORK.glob(f"store-{scale}-*"):
                    shutil.rmtree(stale, ignore_errors=True)
                building = WORK / f"building-{scale}-{os.getpid()}"
                shutil.rmtree(building, ignore_errors=True)
                building.mkdir()
                cfg = config.SCALES[scale]
                result = run_worker(
                    {
                        "task": "build_store",
                        "recipe": cfg["route_recipe"],
                        "settings": cfg["settings"],
                        "out": str(building / "store"),
                    },
                    timeout=850.0,
                )
                (building / "meta.json").write_text(json.dumps(result))
                building.rename(home)
    with open(meta, encoding="utf-8") as handle:
        return home / "store", json.load(handle)


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


class Tally:
    """The outputs a run checked: how many it attempted and how many failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def equal(self, expected: object, actual: object) -> None:
        self.attempted += 1
        self.failed += int(expected != actual)

    def answers(self, expected: list[Any], actual: list[Any]) -> int:
        """Check answers against their golden records; returns how many matched."""
        matched = sum(queries.check(w, a) for w, a in zip(expected, actual, strict=True))
        self.attempted += len(expected)
        self.failed += len(expected) - matched
        return matched


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    lo, hi = math.floor(position), math.ceil(position)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# --------------------------------------------------------------------------- #
# offline_build
# --------------------------------------------------------------------------- #
def offline_build(ctx: dict[str, Any], tally: Tally) -> tuple[dict[str, float], dict[str, float]]:
    cfg, golden, tmp = ctx["cfg"], ctx["golden"]["offline"], ctx["tmp"]
    builds = max(1, round(cfg["builds"] * ctx["seconds"] / config.REFERENCE_SECONDS))
    slice_items = queries.expand(golden["slice"])
    expected = [pair["answers"][m] for pair in golden["slice"] for m in config.METHODS]
    passes: dict[bool, list[dict[str, Any]]] = {}
    for traced in _passes(ctx):
        passes[traced] = []
        for index in range(builds):
            rep = run_worker(
                {
                    "task": "offline_build",
                    "recipe": cfg["offline_recipe"],
                    "settings": cfg["settings"],
                    "out": str(tmp / f"offline-{index}"),
                    "slice": slice_items,
                    "order_seed": ctx["seed"] * 1000 + index,
                    "trace": traced,
                    "trace_out": str(tmp / f"offline-trace-{index}.json"),
                }
            )
            rep["store_mb"] = dir_mb(tmp / f"offline-{index}")
            shutil.rmtree(tmp / f"offline-{index}")
            passes[traced].append(rep)
            for name, count in golden["counts"].items():
                tally.equal(count, rep["counts"][name])
            tally.answers(expected, rep["answers"])
    reps = passes[False]
    # Latency is per Bellman (budget) table: ~4 ms binary-P builds and
    # ~10 ms budget builds form two clusters, and a median over both sits
    # in the gap between them, where machine-speed drift moves it most.
    per_table = [s for rep in reps for s in rep["per_budget_table_s"]]
    end_to_end = {
        "setup_s": median([s for r in reps for s in r["setup_s"]]),
        "build_s": median([r["build_s"] for r in reps]),
        "store_mb": median([r["store_mb"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "qps": sum(r["tables"] for r in reps) / sum(r["tables_s"] for r in reps),
        "latency_p50_ms": percentile(per_table, 0.50) * 1000,
        "latency_p95_ms": percentile(per_table, 0.95) * 1000,
    }
    layers: dict[str, float] = {}
    if ctx["trace"]:
        traced_reps = passes[True]
        layers.update(
            {
                "tpaths.mine_s": median([r["mine_s"] for r in reps]),
                "tpaths.count": reps[0]["counts"]["tpaths"],
                "vpaths.closure_s": median([r["closure_s"] for r in reps]),
                "vpaths.count": reps[0]["counts"]["vpaths"],
                "heuristics.binary_build_s": median([r["binary_build_s"] for r in reps]),
                "heuristics.budget_build_s": median([r["budget_build_s"] for r in reps]),
                "heuristics.tables": reps[0]["counts"]["tables"],
                "persistence.save_s": median([r["save_s"] for r in reps]),
                "core.joint_assemble_calls": median(
                    [_calls(r["trace"], "core.JointDistribution.assemble") for r in traced_reps]
                ),
                "trace.overhead_ratio": median([r["build_s"] for r in traced_reps])
                / end_to_end["build_s"],
            }
        )
        per_rep = [tracing.layer_self_seconds(r["trace"]) for r in traced_reps]
        for layer in tracing.LAYERS:
            layers[f"{layer}.self_s"] = median([p[layer] for p in per_rep])
    return end_to_end, layers


def _passes(ctx: dict[str, Any]) -> tuple[bool, ...]:
    """Untraced repetitions, then (with --trace 1) the same repetitions traced."""
    return (False, True) if ctx["trace"] else (False,)


def _calls(summary: dict[str, Any], name: str) -> float:
    return float(summary.get(name, {}).get("calls", 0))


def _per_call(summary: dict[str, Any], name: str) -> float:
    """Mean duration of one call of span ``name`` (0 when it was never called)."""
    entry = summary.get(name)
    return float(entry["total_s"] / entry["calls"]) if entry and entry["calls"] else 0.0


# --------------------------------------------------------------------------- #
# route_mix
# --------------------------------------------------------------------------- #
def _universe(ctx: dict[str, Any], kind: str) -> tuple[list[list[dict]], list[dict]]:
    """The run's measured pairs, dealt over its processes by seed, and the warm-up."""
    cfg, golden = ctx["cfg"], ctx["golden"]
    count = max(1, round(cfg[f"{kind}_pairs"] * ctx["seconds"] / config.REFERENCE_SECONDS))
    pairs = queries.select(golden["pool"], count)
    random.Random(config.ORDER_SEED).shuffle(pairs)
    pool, size = golden["warmup"], cfg[f"{kind}_warmup_pairs"]
    warmup = [pool[i * len(pool) // size] for i in range(min(size, len(pool)))]
    return queries.split(pairs, cfg[f"{kind}_repetitions"], ctx["seed"]), warmup


def _expected(pairs: list[dict[str, Any]]) -> list[dict[str, Any] | None]:
    return [pair["answers"][m] for pair in pairs for m in config.METHODS]


def route_mix(ctx: dict[str, Any], tally: Tally) -> tuple[dict[str, float], dict[str, float]]:
    shares, warmup = _universe(ctx, "route")
    passes: dict[bool, list[dict[str, Any]]] = {}
    correct = 0
    for traced in _passes(ctx):
        passes[traced] = []
        for index, share in enumerate(shares):
            rep = run_worker(
                {
                    "task": "route_mix",
                    "store": str(ctx["store"]),
                    "queries": queries.expand(share),
                    "warmup": queries.expand(warmup),
                    "trace": traced,
                    "trace_out": str(ctx["tmp"] / f"route-trace-{index}.json"),
                }
            )
            passes[traced].append(rep)
            matched = tally.answers(_expected(share), rep["answers"])
            correct += 0 if traced else matched
            tally.answers(_expected(warmup), rep["warm_answers"])
            if rep["cache_misses"]:
                raise BenchError(
                    f"route_mix saw {rep['cache_misses']} heuristic cache misses; "
                    "every table must be resident after a prewarm='all' boot"
                )
    reps = passes[False]
    latencies = [s for rep in reps for s in rep["latencies_s"]]
    wall = sum(rep["wall_s"] for rep in reps)
    end_to_end = {
        "setup_s": median([s for r in reps for s in r["setup_s"]]),
        "build_s": median([r["build_s"] for r in reps]),
        "store_mb": dir_mb(ctx["store"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "qps": correct / wall,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000,
    }
    layers: dict[str, float] = {}
    if ctx["trace"]:
        traced_reps = passes[True]
        by_method: dict[str, list[float]] = {m: [] for m in config.METHODS}
        explored: list[int] = []
        for rep, share in zip(reps, shares):
            for (_, _, _, method), seconds in zip(queries.expand(share), rep["latencies_s"]):
                by_method[method].append(seconds)
            explored.extend(rep["explored"])
        layers.update(
            {
                f"routing.{m}.p50_ms": percentile(v, 0.50) * 1000 for m, v in by_method.items()
            }
        )
        layers.update(
            {
                "tpaths.count": reps[0]["counts"]["tpaths"],
                "vpaths.count": reps[0]["counts"]["vpaths"],
                "heuristics.tables": reps[0]["tables"],
                "persistence.boot_s": median([s for r in reps for s in r["setup_s"]]),
                "persistence.index_load_s": median(
                    [_per_call(r["trace"], "persistence.ArtifactStore.load_index") for r in traced_reps]
                ),
                "routing.accel_build_s": median([r["accel_build_s"] for r in reps]),
                "routing.explored_mean": sum(explored) / len(explored),
                "routing.cache_misses": sum(r["cache_misses"] for r in reps),
                "trace.overhead_ratio": sum(r["wall_s"] for r in traced_reps) / wall,
            }
        )
        merged = tracing.layer_self_seconds(
            tracing.merge_summaries([r["trace"] for r in traced_reps])
        )
        for layer in tracing.LAYERS:
            layers[f"{layer}.self_s"] = merged[layer]
    return end_to_end, layers


# --------------------------------------------------------------------------- #
# serve_http
# --------------------------------------------------------------------------- #
class KeepAliveClient:
    """A minimal HTTP/1.1 client: each request leaves in one write, on one connection.

    Sending the request line, headers and body in a single ``sendall`` keeps
    the client from provoking a Nagle/delayed-ACK stall of its own, so any
    stall the round trips show belongs to the server.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        header, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        status = int(header.split(b" ", 2)[1])
        match = re.search(rb"(?i)\r\ncontent-length:\s*(\d+)", header)
        length = int(match.group(1)) if match else 0
        while len(self.buffer) < length:
            self._fill()
        payload, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


def _timed(client: KeepAliveClient, method: str, path: str, body: bytes = b"") -> tuple[float, int, bytes]:
    started = clock()
    status, payload = client.request(method, path, body)
    return clock() - started, status, payload


def _start_server(cmd: list[str], log: Path) -> tuple[subprocess.Popen, int, float]:
    """Spawn the server; return it, its port and the seconds until /healthz answers."""
    started = clock()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=child_env(),
        )
    try:
        port = _read_port(proc, started + 120.0)
        while True:
            try:
                client = KeepAliveClient(port)
                status, _ = client.request("GET", "/healthz")
                client.close()
            except OSError:
                status = 0
            if status == 200:
                return proc, port, clock() - started
            if clock() - started > 120.0 or proc.poll() is not None:
                raise BenchError(f"server never became healthy (status {status})")
            time.sleep(0.01)
    except BaseException:
        _stop_server(proc)
        raise


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    assert proc.stdout is not None
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    pending = b""
    try:
        while clock() < deadline:
            if not selector.select(timeout=max(0.0, deadline - clock())):
                break
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            pending += chunk
            match = re.search(rb"listening on http://[^:]+:(\d+)", pending)
            if match:
                return int(match.group(1))
    finally:
        selector.close()
    raise BenchError(f"server printed no listening address: {pending[-500:]!r}")


def _stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server process")


def _route_body(item: list[Any], request_id: str) -> bytes:
    source, destination, budget, method = item
    return json.dumps(
        {
            "source": source,
            "destination": destination,
            "budget": budget,
            "method": method,
            "request_id": request_id,
        }
    ).encode("utf-8")


def _answer(status: int, payload: bytes) -> tuple[dict[str, Any] | None, dict[str, Any]]:
    body = json.loads(payload)
    if status != 200 or not body.get("ok"):
        return None, body
    return {"edges": body["path_edges"], "probability": body["probability"]}, body


def serve_repetition(
    ctx: dict[str, Any], share: list[dict], warmup: list[dict], traced: bool, index: int
) -> dict[str, Any]:
    touched = {str(p["destination"]) for p in share + warmup}
    cache_bytes = max(1, sum(ctx["meta"]["table_bytes"][d] for d in touched) // 2)
    serve_args = [
        "serve", "--artifacts", str(ctx["store"]), "--port", "0", "--backend", "serial",
        "--prewarm", "none", "--cache-bytes", str(cache_bytes),
    ]
    trace_out = ctx["tmp"] / f"serve-trace-{index}.json"
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), "--trace-out", str(trace_out)]
    else:
        cmd = [sys.executable, "-m", "repro"]
    log = ctx["tmp"] / f"serve-{index}.log"
    ready_s = []
    for _ in range(config.SETUPS - 1):
        spare, _, seconds = _start_server(cmd + serve_args, log)
        _stop_server(spare)
        ready_s.append(seconds)
    proc, port, seconds = _start_server(cmd + serve_args, log)
    ready_s.append(seconds)
    try:
        fresh = []
        for _ in range(config.HEALTHZ_PROBES):
            client = KeepAliveClient(port)
            fresh.append(_timed(client, "GET", "/healthz")[0])
            client.close()
        client = KeepAliveClient(port)
        keepalive = [_timed(client, "GET", "/healthz")[0] for _ in range(config.HEALTHZ_PROBES)]

        warm_items = queries.expand(warmup)
        started = clock()
        warm_answers = [
            _answer(*client.request("POST", "/route", _route_body(item, f"w{i}")))[0]
            for i, item in enumerate(warm_items)
        ]
        warmup_s = clock() - started
        client.close()

        items = queries.expand(share)
        bodies = [_route_body(item, f"q{i}") for i, item in enumerate(items)]
        outcomes: list[Any] = [None] * len(bodies)
        cursor = iter(range(len(bodies)))
        lock = threading.Lock()
        errors: list[BaseException] = []

        def drive() -> None:
            try:
                conn = KeepAliveClient(port)
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        break
                    outcomes[i] = _timed(conn, "POST", "/route", bodies[i])
                conn.close()
            except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=drive) for _ in range(config.SERVE_CONNECTIONS)]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170.0)
        wall_s = clock() - started
        if errors or any(thread.is_alive() for thread in threads):
            raise BenchError(f"serve client failed: {errors[:1]!r}")

        stats_client = KeepAliveClient(port)
        _, stats_payload = stats_client.request("GET", "/stats")
        stats_client.close()
        peak_rss_mb = _vm_hwm_mb(proc.pid)
    finally:
        _stop_server(proc)

    stats = json.loads(stats_payload)
    rtts, answers, runtimes, explored = [], [], [], []
    for rtt, status, payload in outcomes:
        answer, body = _answer(status, payload)
        rtts.append(rtt)
        answers.append(answer)
        runtimes.append(float(body.get("runtime_seconds", 0.0)))
        explored.append(int(body.get("explored", 0)))
    rep = {
        "setup_s": ready_s,
        "build_s": warmup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "rtts_s": rtts,
        "runtimes_s": runtimes,
        "explored": explored,
        "answers": answers,
        "warm_answers": warm_answers,
        "healthz_s": keepalive,
        "healthz_fresh_s": fresh,
        "faults": stats["engine"]["cache_faults"],
        "evictions": stats["engine"]["cache_evictions"],
        "cache_misses": stats["engine"]["cache_misses"],
        "tables": stats["engine"]["cache_entries"],
        "rejected": stats["admission"]["rejected"],
        "deadline_exceeded": stats["deadlines"]["deadline_exceeded"],
    }
    if traced:
        with open(trace_out, encoding="utf-8") as handle:
            dumped = json.load(handle)
        rep["trace"] = dumped["summary"]
        handled = {
            span["request"]: span["end"] - span["start"]
            for span in dumped["spans"]
            if span["name"] == "serving.RouteServer.handle_route" and span["request"]
        }
        rep["rtt_minus_handle_s"] = [
            rtt - handled[f"q{i}"] for i, rtt in enumerate(rtts) if f"q{i}" in handled
        ]
    return rep


def serve_http(ctx: dict[str, Any], tally: Tally) -> tuple[dict[str, float], dict[str, float]]:
    shares, warmup = _universe(ctx, "serve")
    passes: dict[bool, list[dict[str, Any]]] = {}
    correct = 0
    for traced in _passes(ctx):
        passes[traced] = []
        for index, share in enumerate(shares):
            rep = serve_repetition(ctx, share, warmup, traced, index)
            passes[traced].append(rep)
            matched = tally.answers(_expected(share), rep["answers"])
            correct += 0 if traced else matched
            tally.answers(_expected(warmup), rep["warm_answers"])
    reps = passes[False]
    rtts = [s for rep in reps for s in rep["rtts_s"]]
    end_to_end = {
        "setup_s": median([s for r in reps for s in r["setup_s"]]),
        "build_s": median([r["build_s"] for r in reps]),
        "store_mb": dir_mb(ctx["store"]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "qps": correct / sum(r["wall_s"] for r in reps),
        "latency_p50_ms": percentile(rtts, 0.50) * 1000,
        "latency_p95_ms": percentile(rtts, 0.95) * 1000,
    }
    layers: dict[str, float] = {}
    if ctx["trace"]:
        traced_reps = passes[True]
        by_method: dict[str, list[float]] = {m: [] for m in config.METHODS}
        for rep, share in zip(reps, shares):
            for (_, _, _, method), rtt in zip(queries.expand(share), rep["rtts_s"]):
                by_method[method].append(rtt)
        layers.update(
            {
                f"routing.{m}.p50_ms": percentile(v, 0.50) * 1000 for m, v in by_method.items()
            }
        )
        overhead = [
            rtt - runtime
            for rep in reps
            for rtt, runtime in zip(rep["rtts_s"], rep["runtimes_s"])
        ]
        explored = [e for rep in reps for e in rep["explored"]]
        layers.update(
            {
                "heuristics.tables": median([r["tables"] for r in reps]),
                "persistence.boot_s": median(
                    [_per_call(r["trace"], "persistence.RoutingEngine.from_artifacts") for r in traced_reps]
                ),
                "persistence.index_load_s": median(
                    [_per_call(r["trace"], "persistence.ArtifactStore.load_index") for r in traced_reps]
                ),
                "routing.explored_mean": sum(explored) / len(explored),
                "routing.cache_misses": sum(r["cache_misses"] for r in reps),
                "routing.search_p50_ms": percentile(
                    [s for r in reps for s in r["runtimes_s"]], 0.50
                )
                * 1000,
                "routing.residency_faults": sum(r["faults"] for r in reps),
                "routing.residency_evictions": sum(r["evictions"] for r in reps),
                "serving.overhead_p50_ms": percentile(overhead, 0.50) * 1000,
                "serving.healthz_p50_ms": percentile(
                    [s for r in reps for s in r["healthz_s"]], 0.50
                )
                * 1000,
                "serving.healthz_fresh_p50_ms": percentile(
                    [s for r in reps for s in r["healthz_fresh_s"]], 0.50
                )
                * 1000,
                "serving.rtt_minus_handle_p50_ms": percentile(
                    [s for r in traced_reps for s in r["rtt_minus_handle_s"]], 0.50
                )
                * 1000,
                "serving.rejected": sum(r["rejected"] for r in reps),
                "serving.deadline_exceeded": sum(r["deadline_exceeded"] for r in reps),
                "trace.overhead_ratio": sum(r["wall_s"] for r in traced_reps)
                / sum(r["wall_s"] for r in reps),
            }
        )
        merged = tracing.layer_self_seconds(
            tracing.merge_summaries([r["trace"] for r in traced_reps])
        )
        for layer in tracing.LAYERS:
            layers[f"{layer}.self_s"] = merged[layer]
    return end_to_end, layers


WORKLOADS = {"offline_build": offline_build, "route_mix": route_mix, "serve_http": serve_http}


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #
def require_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}; run from a full checkout")


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "city") -> dict[str, Any]:
    require_checkout()
    store, meta = ensure_store(scale)
    cfg = config.SCALES[scale]
    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = {
        "cfg": cfg,
        "golden": queries.load_golden(scale),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "store": store,
        "meta": meta,
        "tmp": tmp,
    }
    try:
        tally = Tally()
        end_to_end, layers = WORKLOADS[workload](ctx, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = emit(layers if trace else end_to_end, trace)
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            raise BenchError(f"metric {name} is not finite")
        if not trace and metric["value"] <= 0:
            raise BenchError(f"end-to-end metric {name} is {metric['value']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# --------------------------------------------------------------------------- #
# --record: re-record a golden pool from the current code
# --------------------------------------------------------------------------- #
def record(scale: str) -> None:
    require_checkout()
    cfg = config.SCALES[scale]
    store, _ = ensure_store(scale)
    candidates = run_worker(
        {"task": "candidates", "store": str(store), "settings": cfg["settings"]}
    )["pairs"]
    wanted = cfg["pool_pairs"] + cfg["warmup_pairs"]
    rng = random.Random(config.RECORD_SEED)
    pairs = queries.stratified_pairs([tuple(c) for c in candidates], wanted * 13 // 10, rng)
    answers = run_worker(
        {"task": "record", "store": str(store), "queries": queries.expand(pairs)}, timeout=3000.0
    )["answers"]
    width = len(config.METHODS)
    for index, pair in enumerate(pairs):
        pair["answers"] = dict(zip(config.METHODS, answers[index * width : (index + 1) * width]))
    routable = [p for p in pairs if all(a is not None for a in p["answers"].values())]
    warmup: list[dict[str, Any]] = []
    pool: list[dict[str, Any]] = []
    per_warm = cfg["warmup_pairs"] // len(config.STRATA)
    per_pool = cfg["pool_pairs"] // len(config.STRATA)
    for stratum in config.STRATA:
        members = [p for p in routable if p["stratum"] == stratum]
        if len(members) < per_warm + per_pool:
            raise BenchError(f"only {len(members)} routable {stratum} pairs")
        warmup.extend(members[:per_warm])
        pool.extend(members[per_warm : per_warm + per_pool])
    queries.rank_costs(pool)

    step = max(1, len(pool) // cfg["offline_slice_pairs"])
    slice_pairs = [
        {k: p[k] for k in ("source", "destination", "budget", "stratum")}
        for p in pool[::step][: cfg["offline_slice_pairs"]]
    ]
    out = WORK / f"record-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    rep = run_worker(
        {
            "task": "offline_build",
            "recipe": cfg["offline_recipe"],
            "settings": cfg["settings"],
            "out": str(out),
            "slice": queries.expand(slice_pairs),
            "order_seed": 0,
        },
        timeout=900.0,
    )
    shutil.rmtree(out, ignore_errors=True)
    for index, pair in enumerate(slice_pairs):
        pair["answers"] = dict(
            zip(config.METHODS, rep["answers"][index * width : (index + 1) * width])
        )
    golden = {
        "scale": scale,
        "route_recipe": cfg["route_recipe"],
        "offline_recipe": cfg["offline_recipe"],
        "settings": cfg["settings"],
        "methods": list(config.METHODS),
        "record_seed": config.RECORD_SEED,
        "probability_tolerance": config.PROBABILITY_TOLERANCE,
        "offline": {"counts": rep["counts"], "slice": slice_pairs},
        "warmup": warmup,
        "pool": pool,
    }
    path = queries.golden_path(scale)
    queries.write_golden(path, golden)
    print(f"recorded {path}: {len(pool)} pool pairs, {len(warmup)} warm-up pairs")


# --------------------------------------------------------------------------- #
# --smoke and --compare
# --------------------------------------------------------------------------- #
SMOKE_SECONDS = 2


def smoke() -> None:
    """Every workload, traced and not, on the tiny dataset: every declared name, finite."""
    spec = declared()
    for workload in config.WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed=1, seconds=SMOKE_SECONDS, trace=trace, scale="tiny")
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise BenchError(f"{workload}: result keys {sorted(result)}")
            if sorted(result["metrics"]) != sorted(names):
                raise BenchError(f"{workload}: metrics {sorted(result['metrics'])}")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    raise BenchError(f"{workload}: {name} = {metric['value']}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise BenchError(f"{workload} (trace={int(trace)}): {result}")
            print(f"smoke {workload} trace={int(trace)}: ok ({result['attempted']} checked)")


def _load_runs(path: str) -> dict[tuple[str, str], dict[int, float]]:
    runs: dict[tuple[str, str], dict[int, float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["trace"]:
                continue
            for name, metric in entry["result"]["metrics"].items():
                runs.setdefault((entry["workload"], name), {})[entry["seed"]] = metric["value"]
    return runs


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """ok / regressed / unresolved per (workload, end-to-end metric), B against A."""
    metrics = {m["name"]: m for m in declared()["end_to_end"]}
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    regressed = 0
    print(f"{'workload':<14} {'metric':<16} {'median A':>11} {'median B':>11} {'worse':>8} "
          f"{'bound':>6}  verdict")
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, name = key
        metric = metrics.get(name)
        if metric is None:
            continue
        a, b = runs_a[key], runs_b[key]
        med_a, med_b = median(list(a.values())), median(list(b.values()))
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (med_b - med_a) / med_a
        bound = metric["bound"]
        noisy = max(_spread(list(a.values())), _spread(list(b.values()))) > bound
        all_better = all(sign * (vb - va) < 0 for vb in b.values() for va in a.values())
        paired = [sign * (b[s] - a[s]) / a[s] for s in sorted(set(a) & set(b))]
        disagree = any(p > bound for p in paired) and any(p < -bound for p in paired)
        if worse > bound:
            verdict = "unresolved" if noisy else "regressed"
        elif (noisy and not all_better) or disagree:
            verdict = "unresolved"
        else:
            verdict = "ok"
        regressed += verdict == "regressed"
        print(f"{workload:<14} {name:<16} {med_a:>11.4g} {med_b:>11.4g} {worse:>+8.1%} "
              f"{bound:>6.2f}  {verdict}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(declared()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append this run's result to a JSON-lines file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--record", choices=sorted(config.SCALES))
    args = parser.parse_args(argv)
    # A shell that starts this in the background may ignore SIGINT, and an
    # ignored signal stays ignored across exec.  Catching it here gives every
    # child the default disposition, so `repro serve` still stops on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            smoke()
            return 0
        if args.record:
            record(args.record)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.save:
        with open(args.save, "a", encoding="utf-8") as handle:
            entry = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
            handle.write(json.dumps({**entry, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
