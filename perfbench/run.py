"""End-to-end benchmark of ``repro run`` and ``repro serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload run_ocr --seed 2018 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``run_ocr``     -- ``run_pipeline`` with the default config, then
  ``FailureDatabase.save``; every op in a fresh interpreter.
* ``run_no_ocr``  -- the same op with ``ocr_enabled=False``.
* ``serve_mixed`` -- the default ``repro serve`` over the seed's
  database, driven by one keep-alive client in a closed loop with a
  seeded mix of cache hits and misses.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer self times and counts.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layertrace
import querystream
import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Database fingerprints of seed 2018 (OCR on / off): the byte-parity
#: gate.  Other seeds must agree across every op of a run.
GOLDEN_FINGERPRINTS = {
    (2018, True):
        "773494ce1046f9100967e8a657f66fcab35ec4061cbedbdd6d0bfcf09f2b5e2f",
    (2018, False):
        "89615fd7caa0ec4a2e5c4f365408755da686064351af7e033eca62e6f5845d35",
}

#: Server spawns per serve run; ``setup_s`` is their median.
SERVER_SETUPS = 3
#: Imports per traced run for the per-subpackage import breakdown.
IMPORT_PROFILES = 3
#: Requests per second of ``--seconds`` that the traced serve run
#: replays, a fixed count so its counters repeat exactly.
TRACED_REQUESTS_PER_SECOND = 100
#: Kernel passes timed before each ``serve_mixed`` server spawn and
#: after each slice of requests.
REFERENCE_PASSES = 8
#: Seconds of requests between two kernel passes on ``serve_mixed``.
SLICE_S = 0.25
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150

#: Spans every ``run_*`` traced op must record at least once.
RUN_SPANS = ("synth.generate", "parsing.parse", "parsing.normalize",
             "parsing.filter", "nlp.dictionary", "nlp.tag",
             "nlp.evaluate", "pipeline.store.save")
OCR_SPANS = ("ocr.scan", "ocr.recognize", "ocr.fallback", "ocr.correct")

PER_LAYER = {
    **{f"import.{layer}_s": "s" for layer in (
        "synth", "ocr", "parsing", "nlp", "pipeline", "query",
        "serving", "other")},
    "synth.generate_s": "s", "synth.documents": "count",
    "ocr.scan_s": "s", "ocr.recognize_s": "s", "ocr.fallback_s": "s",
    "ocr.correct_s": "s", "ocr.lines": "count",
    "ocr.fallback_page_share": "ratio",
    "parsing.parse_s": "s", "parsing.normalize_s": "s",
    "parsing.filter_s": "s", "parsing.records": "count",
    "parsing.unparsed_line_share": "ratio",
    "nlp.dictionary_s": "s", "nlp.tag_s": "s", "nlp.evaluate_s": "s",
    "nlp.token_cache_hit_ratio": "ratio",
    "pipeline.other_s": "s", "pipeline.store.save_s": "s",
    "pipeline.store.bytes": "bytes",
    "pipeline.store.load_s": "s", "query.engine_build_s": "s",
    "query.execute_hit_ms": "ms", "query.execute_miss_ms": "ms",
    "query.cache_hit_ratio": "ratio",
    "query.server.overhead_ms": "ms",
    "trace.traced_wall_s": "s", "trace.overhead_s": "s",
}

#: Per-layer values that are counts or ratios of seeded,
#: single-threaded work: they must repeat exactly for one seed.
REPEATABLE = ("synth.documents", "ocr.lines", "ocr.fallback_page_share",
              "parsing.records", "parsing.unparsed_line_share",
              "nlp.token_cache_hit_ratio", "pipeline.store.bytes",
              "query.cache_hit_ratio")


def repeatable(key: str) -> bool:
    """Whether a per-layer value must repeat exactly for one seed: the
    counts and ratios above, and every layer's call count."""
    return key in REPEATABLE or key.startswith("calls.")


class BenchError(Exception):
    """The run cannot produce a result (exit non-zero, no JSON)."""


class Tally:
    """Ops attempted and ops whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)


def child_env() -> dict[str, str]:
    """The program's source on the path, bytecode cached in the build
    directory (as an installed ``repro`` would have it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], workdir: Path) -> tuple[int, str, str, float]:
    """Run ``python <args>``; return (exit code, stdout, stderr, peak
    RSS in MB read from the child's resource usage)."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss / 1024)


def median_low(values):
    return statistics.median_low(values) if values else 0.0


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile; requires ``MIN_BEYOND`` samples above."""
    rank = max(1, int(-(-share * len(sorted_values) // 1)))
    beyond = len(sorted_values) - rank
    if beyond < MIN_BEYOND:
        raise BenchError(
            f"only {beyond} samples beyond p{share * 100:g} "
            f"(need {MIN_BEYOND}); run longer")
    return sorted_values[rank - 1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def import_breakdown(workdir: Path) -> dict[str, float]:
    """Median per-subpackage import self time of ``repro.api`` over
    ``IMPORT_PROFILES`` fresh interpreters."""
    samples = []
    for _ in range(IMPORT_PROFILES):
        code, _, err, _ = run_child(
            ["-X", "importtime", "-c", "import repro.api"], workdir)
        if code != 0:
            raise BenchError(f"import of repro.api failed:\n{err[-2000:]}")
        samples.append(layertrace.import_breakdown(err))
    return {f"import.{layer}_s": statistics.median(s[layer] for s in samples)
            for layer in samples[0]}


# ----------------------------------------------------------------------
# run_ocr / run_no_ocr
# ----------------------------------------------------------------------

class RunOps:
    """Fresh-process pipeline ops with their output checks."""

    def __init__(self, seed: int, ocr: bool, workdir: Path,
                 tally: Tally) -> None:
        self.seed, self.ocr, self.workdir = seed, ocr, workdir
        self.tally = tally
        self.expected = GOLDEN_FINGERPRINTS.get((seed, ocr))
        self.count = 0

    def op(self, traced: bool) -> dict | None:
        """One op; its report (with ``rss_mb``, ``total_s`` and ``ok``,
        whether it passed its output check), or ``None`` when it did
        not finish."""
        self.count += 1
        out = self.workdir / f"db-{self.count}.json"
        started = time.perf_counter()
        code, stdout, stderr, rss_mb = run_child(
            [str(HERE / "opchild.py"), str(self.seed),
             "1" if self.ocr else "0", str(out), "1" if traced else "0"],
            self.workdir)
        total_s = time.perf_counter() - started
        for path in (out, out.with_name(out.name + ".sha256")):
            path.unlink(missing_ok=True)
        self.tally.attempted += 1
        if code != 0:
            self.tally.fail(f"op {self.count} exited {code}: "
                            f"{stderr.strip()[-500:]}")
            return None
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.tally.fail(f"op {self.count} printed no report")
            return None
        report.update(rss_mb=rss_mb, total_s=total_s, ok=False)
        fingerprint = report["fingerprint"]
        if self.expected is None:
            self.expected = fingerprint  # every later op must agree
        if report["reloaded"] != fingerprint:
            self.tally.fail(f"op {self.count}: saved database reloads "
                            "with another fingerprint")
        elif fingerprint != self.expected:
            self.tally.fail(f"op {self.count}: fingerprint "
                            f"{fingerprint[:12]} != {self.expected[:12]}")
        else:
            report["ok"] = True
        return report


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 workdir: Path, tally: Tally) -> dict:
    ocr = name == "run_ocr"
    ops = RunOps(seed, ocr, workdir, tally)
    warm = ops.op(traced=False)  # discarded: .pyc, page cache
    imports = import_breakdown(workdir) if trace else {}
    plain: list[dict] = []
    traced: list[dict] = []
    last_s = warm["total_s"] if warm else 0.0
    started = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - started
        if done >= (2 if trace else 1) and elapsed + last_s > seconds:
            break
        as_traced = trace and done % 2 == 0
        done += 1
        op_started = time.perf_counter()
        report = ops.op(traced=as_traced)
        last_s = time.perf_counter() - op_started
        if report is not None:
            (traced if as_traced else plain).append(report)
    # Failed ops count as failed, never as slow; only when none passed
    # do their timings stand in (and the run reports correct=false).
    plain = passing(plain)
    traced = passing(traced)
    if not plain or (trace and not traced):
        raise BenchError("no op finished")
    walls = [r["wall_s"] for r in plain]
    print(f"{name} seed={seed}: {tally.attempted} ops attempted "
          f"(1 warm-up discarded), {tally.failed} failed; "
          f"fingerprint {ops.expected[:12]}"
          f"{' (recorded gate)' if (seed, ocr) in GOLDEN_FINGERPRINTS else ''}")
    if not trace:
        # The probe's kernel passes ran inside the ops: their mean is
        # the machine's speed while the ops ran, their sum is left out.
        passes = sum(r["kernel_passes"] for r in plain)
        factor = (sum(r["kernel_s"] for r in plain) / passes
                  / refspeed.NOMINAL_S)
        op_s = sum(r["total_s"] - r["kernel_s"] for r in plain)
        print("  op walls (s): " + " ".join(f"{w:.3f}" for w in walls))
        print(f"  p50_ms {statistics.median(walls) * 1e3:.4f} ms over "
              f"{len(walls)} ops (printed only, no bound, not scaled)")
        print(f"  machine {factor:.3f}x slower than nominal "
              f"({passes} kernel passes)")
        return report_metrics({
            "ops_per_s": (sum(r["ok"] for r in plain) / op_s * factor,
                          "1/s", len(plain)),
            "setup_s": (statistics.median(r["import_s"] for r in plain)
                        / factor, "s", len(plain)),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain),
                            "MB", len(plain)),
        })
    return traced_run_metrics(name, traced, walls, imports, tally)


def passing(reports: list[dict]) -> list[dict]:
    return [r for r in reports if r["ok"]] or reports


def traced_run_metrics(name: str, traced: list[dict], walls: list[float],
                       imports: dict[str, float], tally: Tally) -> dict:
    expected_spans = RUN_SPANS + (OCR_SPANS if name == "run_ocr" else ())
    for report in traced:
        calls = report["calls"]
        missing = [s for s in expected_spans if not calls.get(s)]
        if missing:
            raise BenchError(f"{name}: layers recorded zero calls: "
                             f"{', '.join(missing)} (a wrapper is no "
                             "longer on the path the program takes)")
        if name == "run_no_ocr" and any(calls.get(s) for s in OCR_SPANS):
            raise BenchError("run_no_ocr: the OCR channel was called")
    layer_values = [layer_metrics(r) for r in traced]
    for values in layer_values[1:]:
        mismatched = [k for k in values if repeatable(k)
                      and values[k] != layer_values[0][k]]
        if mismatched:
            tally.fail("counts differ between traced ops of one seed: "
                       + ", ".join(mismatched))
    # Report one whole op (the median-wall one) so its layers add up.
    chosen = sorted(zip((r["wall_s"] for r in traced), layer_values),
                    key=lambda pair: pair[0])[(len(traced) - 1) // 2]
    wall, values = chosen
    values.update(imports)
    values["trace.traced_wall_s"] = wall
    values["trace.overhead_s"] = wall - median_low(walls)
    print(f"  traced op wall {wall:.4f} s = layer self times "
          f"{wall - values['pipeline.other_s']:.4f} s + pipeline.other_s "
          f"{values['pipeline.other_s']:.4f} s; untraced median "
          f"{median_low(walls):.4f} s over {len(walls)} ops, "
          f"{len(traced)} traced ops")
    print("  calls: " + ", ".join(
        f"{k[len('calls.'):]}={v}" for k, v in values.items()
        if k.startswith("calls.")))
    return values


def layer_metrics(report: dict) -> dict[str, float]:
    self_s, counts = report["self_s"], report["counts"]
    values = {f"{span}_s": self_s.get(span, 0.0) for span in
              ("synth.generate", *OCR_SPANS, "parsing.parse",
               "parsing.normalize", "parsing.filter", "nlp.dictionary",
               "nlp.tag", "nlp.evaluate", "pipeline.store.save")}
    covered = sum(self_s.values())
    other = report["wall_s"] - covered
    if other < 0:
        raise BenchError(f"layer self times {covered:.6f} s exceed the "
                         f"op wall {report['wall_s']:.6f} s")
    values["pipeline.other_s"] = other
    pages = counts.get("ocr.pages", 0)
    lines = counts.get("parsing.lines", 0)
    lookups = counts.get("nlp.token_lookups", 0)
    values.update({
        "synth.documents": counts.get("synth.documents", 0),
        "ocr.lines": counts.get("ocr.lines", 0),
        "ocr.fallback_page_share":
            counts.get("ocr.fallback_pages", 0) / pages if pages else 0.0,
        "parsing.records": counts.get("parsing.records", 0),
        "parsing.unparsed_line_share":
            counts.get("parsing.unparsed_lines", 0) / lines
            if lines else 0.0,
        "nlp.token_cache_hit_ratio":
            counts.get("nlp.token_hits", 0) / lookups if lookups else 0.0,
        "pipeline.store.bytes": counts["pipeline.store.bytes"],
    })
    values.update({f"calls.{span}": report["calls"].get(span, 0)
                   for span in (*RUN_SPANS, *OCR_SPANS)})
    return values


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process (optionally the traced variant)."""

    def __init__(self, db_path: Path, workdir: Path,
                 spans_path: Path | None = None) -> None:
        self.port = free_port()
        serve_args = ["serve", "--db", str(db_path), "--port",
                      str(self.port), "--quiet"]
        if spans_path is None:
            argv = ["-m", "repro", *serve_args]
        else:
            argv = [str(HERE / "servechild.py"), str(spans_path), "--",
                    *serve_args]
        self.log = open(workdir / f"server-{self.port}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], stdout=self.log,
            stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        self.setup_s = self._await_health(started)

    def _await_health(self, started: float) -> float:
        while time.perf_counter() - started < CHILD_TIMEOUT_S:
            if self.proc.poll() is not None:
                break
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/v1/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise BenchError("server did not become healthy:\n"
                         + self.log_tail())

    def log_tail(self) -> str:
        self.log.flush()
        return Path(self.log.name).read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Client:
    """One keep-alive connection, requests sent in a closed loop."""

    def __init__(self, port: int, tally: Tally) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=30)
        self.tally = tally

    def send(self, request) -> tuple[float, bool]:
        """(latency in seconds, output check passed)."""
        self.tally.attempted += 1
        headers = ({"Content-Type": "application/json"}
                   if request.body is not None else {})
        started = time.perf_counter()
        try:
            self.conn.request(request.method, request.path,
                              body=request.body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            latency = time.perf_counter() - started
            self.conn.close()
            return self._failed(latency, f"{request.path}: {exc!r}")
        latency = time.perf_counter() - started
        if response.status != 200 or not querystream.same_answer(raw,
                                                     request.expected):
            return self._failed(latency, f"{request.method} "
                                f"{request.path}: {response.status} "
                                f"{raw[:200]!r}")
        return latency, True

    def _failed(self, latency: float, message: str) -> tuple[float, bool]:
        self.tally.fail(message)
        return latency, False

    def stats(self) -> dict:
        self.conn.request("GET", "/v1/stats")
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def serve_workload(seed: int, seconds: int, trace: bool, workdir: Path,
                   tally: Tally) -> dict:
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    import repro.api as api

    db_path = workdir / "db.json"
    api.run_pipeline(api.PipelineConfig(seed=seed)).database.save(db_path)
    engine = api.QueryEngine(api.load_database(db_path))
    hot, cold, rejected = querystream.build_populations(engine, seed)
    del engine
    gc.collect()
    print(f"serve_mixed seed={seed}: {len(hot)} hot + {len(cold)} cold "
          f"distinct queries ({rejected} rejected candidates), "
          f"cold share of requests "
          f"{querystream.COLD_SHARE:.0%}")
    if trace:
        return traced_serve(seed, seconds, hot, cold, db_path, workdir,
                            tally)

    servers: list[Server] = []
    speed = refspeed.Speed()
    try:
        for _ in range(SERVER_SETUPS):
            if servers:
                servers[-1].stop()
            speed.sample(REFERENCE_PASSES)
            servers.append(Server(db_path, workdir))
        server = servers[-1]
        client = Client(server.port, tally)
        for request in hot:  # the hot set enters the LRU
            client.send(request)
        before = client.stats()["cache"]
        latencies: list[float] = []
        failed: list[float] = []
        stream = querystream.request_stream(seed, hot, cold)
        gc.collect()
        gc.disable()
        request_s = 0.0
        deadline = time.perf_counter() + seconds
        while (slice_started := time.perf_counter()) < deadline:
            slice_ends = min(slice_started + SLICE_S, deadline)
            while time.perf_counter() < slice_ends:
                latency, ok = client.send(next(stream))
                (latencies if ok else failed).append(latency)
            request_s += time.perf_counter() - slice_started
            speed.sample(REFERENCE_PASSES)
        gc.enable()
        after = client.stats()["cache"]
        rss_mb = server.peak_rss_mb()
        client.close()
    finally:
        for server in servers:
            server.stop()
    completed = len(latencies)
    latencies = latencies or failed  # timings stand in only if none passed
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    latencies.sort()
    n = len(latencies)
    setups = [s.setup_s for s in servers]
    factor = speed.factor()
    print(f"  {tally.attempted} requests in {request_s:.2f} s at "
          f"concurrency 1, {tally.failed} failed; measured cache hit "
          f"ratio {hits / lookups if lookups else 0:.4f} over {lookups} "
          "lookups")
    print(f"  p50_ms {statistics.median(latencies) * 1e3:.4f} ms, p99_ms "
          f"{percentile(latencies, 0.99) * 1e3:.4f} ms over {n} requests "
          "(printed only, no bound, not scaled)")
    print(f"  machine {factor:.3f}x slower than nominal "
          f"({len(speed.samples)} kernel passes)")
    return report_metrics({
        "ops_per_s": (completed / request_s * factor, "1/s", n),
        "setup_s": (statistics.median(setups) / factor, "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    })


def report_metrics(metrics: dict) -> dict:
    """Print ``name value unit (samples)`` lines; drop the counts."""
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key:12s} {value:12.4f} {unit:4s} {samples} samples")
    return {key: (value, unit) for key, (value, unit, _) in metrics.items()}


def replay(server: Server, seed: int, count: int, hot, cold,
           tally: Tally) -> list[float]:
    """Warm the hot set, then send the first ``count`` stream requests;
    return their latencies (every request must pass its check)."""
    client = Client(server.port, tally)
    for request in hot:
        client.send(request)
    stream = querystream.request_stream(seed, hot, cold)
    latencies = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(count):
            latency, _ = client.send(next(stream))
            latencies.append(latency)
    finally:
        gc.enable()
        client.close()
    return latencies


def traced_serve(seed: int, seconds: int, hot, cold, db_path: Path,
                 workdir: Path, tally: Tally) -> dict:
    values = dict(import_breakdown(workdir))
    count = TRACED_REQUESTS_PER_SECOND * seconds
    plain = Server(db_path, workdir)
    try:
        untraced = replay(plain, seed, count, hot, cold, tally)
    finally:
        plain.stop()
    spans_path = workdir / "spans.json"
    server = Server(db_path, workdir, spans_path)
    try:
        latencies = replay(server, seed, count, hot, cold, tally)
    finally:
        server.stop()
    spans = json.loads(spans_path.read_text())
    calls = spans["execute"]
    if len(calls) != len(hot) + count:
        raise BenchError(f"traced server recorded {len(calls)} execute "
                         f"calls for {len(hot) + count} requests")
    for span in ("pipeline.store.load", "query.engine_build"):
        if not spans["calls"].get(span):
            raise BenchError(f"serve_mixed: {span} recorded zero calls")
    timed = calls[len(hot):]
    hit_ms = [d * 1e3 for d, cached in timed if cached]
    miss_ms = [d * 1e3 for d, cached in timed if not cached]
    overhead_ms = [(lat - d) * 1e3 for lat, (d, _) in zip(latencies, timed)]
    values.update({
        "pipeline.store.load_s": spans["self_s"]["pipeline.store.load"],
        "query.engine_build_s": spans["self_s"]["query.engine_build"],
        "query.execute_hit_ms": median_low(hit_ms),
        "query.execute_miss_ms": median_low(miss_ms),
        "query.cache_hit_ratio": len(hit_ms) / len(timed),
        "query.server.overhead_ms": median_low(overhead_ms),
        "trace.traced_wall_s": median_low(latencies),
        "trace.overhead_s": median_low(latencies) - median_low(untraced),
    })
    print(f"  traced and untraced server each replayed {count} requests "
          f"after a {len(hot)}-request warm-up; {len(hit_ms)} hits, "
          f"{len(miss_ms)} misses")
    return values


# ----------------------------------------------------------------------

def check_repeatable(workload: str, seed: int, seconds: int,
                     values: dict) -> list[str]:
    """Compare this traced run's counts with the last traced run of the
    same workload, seed and source tree in this checkout."""
    record = {k: v for k, v in values.items() if repeatable(k)}
    path = (BUILD / "perfbench"
            / f"counts-{workload}-{seed}-{seconds}-{source_digest()}.json")
    if path.exists():
        previous = json.loads(path.read_text())
        return [k for k in record if previous.get(k) != record[k]]
    path.write_text(json.dumps(record))
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_ocr", "run_no_ocr", "serve_mixed"))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    (BUILD / "perfbench").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BUILD / "perfbench"))
    tally = Tally()
    trace = bool(args.trace)
    usable = os.sched_getaffinity(0)
    cpu = max(usable)
    # Every process of the run (ops, server, client, kernel) shares one
    # CPU: the ops are serial and the serve loop is closed at
    # concurrency 1, so nothing runs in parallel anyway, and the kernel
    # then times the CPU the work ran on.
    os.sched_setaffinity(0, {cpu})
    print(f"cores: {os.cpu_count()} (usable {len(usable)}, run pinned "
          f"to cpu {cpu}), python {sys.version.split()[0]}")
    try:
        if args.workload == "serve_mixed":
            values = serve_workload(args.seed, args.seconds, trace,
                                    workdir, tally)
        else:
            values = run_workload(args.workload, args.seed, args.seconds,
                                  trace, workdir, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    if trace:
        changed = check_repeatable(args.workload, args.seed, args.seconds,
                                   values)
        if changed:
            correct = False
            print("FAILED: counts differ from the previous traced run of "
                  f"this seed: {', '.join(changed)}", file=sys.stderr)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, entry in metrics.items():
            print(f"  {name:30s} {entry['value']:14.6f} {entry['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
