#!/usr/bin/env python3
"""Repository benchmark: runs one workload for one seed and prints its metrics.

    python3 perfbench/run.py --topk-rate 38 --auc-floor 0.55 \\
        --workload topk --seed 1 --seconds 54 --trace 0

Run from the repository root. The command in BENCHMARK.json carries the fixed
`topk` open-loop rate and the train_auc floor. `--workload score` runs too but
is not in BENCHMARK.json; see README.md. The script configures and builds
perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build), prepares the
workload's inputs from the seed (untimed), runs the system side (the real
`inf2vec_cli serve` for `topk` and `score`) and the load generator as separate
processes, checks the answers, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. Untraced runs (--trace 0)
report the end-to-end metrics, traced runs (--trace 1) the per-layer ones.
It exits non-zero when an answer is wrong or the run is invalid. The full
result, with provenance and phase accounting, goes to <build>/results/.
See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
CLI = os.path.join(BUILD, "tools", "inf2vec_cli")

# Workload parameters that are not command-line flags.
TRAIN_EPOCHS = 2            # SGD epochs timed by `train`.
TRAIN_REPEATS = 3           # `train` processes per run; its timed figures
                            # are their medians.
SETUP_REPEATS = 5           # Set-ups per run, each in a fresh process;
                            # setup_s is their median.
TRAIN_QUERY_SECONDS = 1.0   # In-process activation queries after `train`.
SCORE_RATE = 6700           # `score`: open-loop requests/s.
SWAP_INTERVAL_S = 1.5       # `score`: seconds between model swaps.
OPEN_SHARE = 0.5            # Share of --seconds in the open-loop phase.
MAX_LAG_MS = 20.0           # Open-loop runs whose p99 send lag exceeds this are invalid.
DIRECT_CALLS = {"topk": 200, "score": 5000}  # Traced in-process arm.
STOP_TIMEOUT_S = 30         # A stopped server must exit within this.
WALL_LIMIT_S = 170          # A run (after the build) is killed past this.

END_TO_END = ["setup_s", "train_s", "train_auc", "p50_ms", "p99_ms", "qps",
              "peak_rss_mb"]
UNITS = {
    "setup_s": "s", "train_s": "s", "train_auc": "ratio", "p50_ms": "ms",
    "p99_ms": "ms", "qps": "req/s", "peak_rss_mb": "MB",
    "graph.load_s": "s", "action.load_s": "s", "core.corpus_s": "s",
    "diffusion.network_s": "s", "diffusion.context_s": "s",
    "diffusion.contexts": "count", "core.pairs": "count",
    "embedding.sgd_s": "s", "embedding.epoch_s": "s",
    "embedding.pairs_per_s": "1/s", "embedding.sgd_parallelism": "ratio",
    "kernels.grad_steps": "count", "kernels.grad_mb": "MB",
    "embedding.save_s": "s", "embedding.artifact_mb": "MB",
    "embedding.objective": "nats", "train.other_s": "s",
    "serve.load_s": "s", "serve.handler_us": "us", "serve.parse_us": "us",
    "serve.serialize_us": "us", "serve.cache_lookup_us": "us",
    "serve.seed_gather_us": "us", "serve.kernel_scan_us": "us",
    "serve.merge_us": "us", "serve.other_us": "us", "obs.wait_us": "us",
    "client.other_us": "us", "serve.topk_direct_us": "us",
    "serve.score_direct_us": "us", "serve.cache_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio", "kernels.scan_dots": "count",
    "kernels.scan_mb": "MB", "serve.cpu_ms_per_req": "ms",
    "serve.swap_s": "s", "serve.swaps": "count",
    "mem.embedding_table_mb": "MB", "mem.quantized_table_mb": "MB",
    "mem.seed_cache_mb": "MB", "mem.swap_transient_mb": "MB",
    "obs.shed": "count", "obs.errors": "count", "loadgen.lag_ms": "ms",
}
PER_LAYER = [name for name in UNITS if name not in END_TO_END] + [
    "traced." + name for name in END_TO_END]
for _name in END_TO_END:
    UNITS["traced." + _name] = UNITS[_name]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("inf2vec sources not found at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    # Configure on every run: it refreshes the git sha baked into the build,
    # and CMake refuses a build directory configured from another checkout.
    generator = []
    if (not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    with open(build_log, "a") as out:
        steps = [["cmake", "-S", HERE, "-B", BUILD] + generator,
                 ["cmake", "--build", BUILD, "--target", "perfbench",
                  "inf2vec_cli", "-j", "4"]]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                raise BenchError("build failed; see %s" % build_log)
    if not (os.path.exists(BINARY) and os.path.exists(CLI)):
        raise BenchError("build failed; see %s" % build_log)


# -------------------------------------------------------------- helpers --

class Children:
    """Every process the run starts; all are stopped and waited for."""

    def __init__(self):
        self.procs = []

    def start(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.procs.append(proc)
        return proc

    def run(self, args):
        """Runs a perfbench subcommand; returns its last stdout line."""
        proc = self.start([BINARY] + args, stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise BenchError("perfbench %s failed (exit %d)" %
                             (args[0], proc.returncode))
        return json.loads(out.strip().splitlines()[-1])

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()


def quantile(values, q):
    """Nearest-rank quantile; `values` may hold inf for failed requests."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def read_requests_log(path):
    rows = []
    with open(path) as f:
        for line in f:
            (rid, phase, index, due, sent, done, status, post, generation,
             coalesced, scanned) = line.rstrip("\n").split("\t")
            rows.append({
                "id": int(rid), "phase": int(phase), "line": int(index),
                "due": int(due), "sent": int(sent), "done": int(done),
                "status": int(status), "post": post == "1",
                "generation": int(generation), "coalesced": coalesced == "1",
                "scanned": int(scanned)})
    return rows


def failure_kind(status):
    if status == 0:
        return "transport"
    if status in (429, 503, 504):
        return str(status)
    if 400 <= status < 500:
        return "4xx"
    return "5xx"


# ---------------------------------------------------------------- train --

def run_train(args, children, run_dir):
    prepared = children.run(["prepare", "--workload", "train", "--seed",
                             str(args.seed), "--dir", run_dir])
    argv = ["train", "--dir", run_dir, "--seed", str(args.seed), "--kernel",
            args.kernel]
    # The whole workload TRAIN_REPEATS times in fresh processes; the first
    # gives the per-layer figures. Set-up alone tops up SETUP_REPEATS.
    runs = [children.run(argv + [
        "--epochs", str(TRAIN_EPOCHS), "--auc-floor", str(args.auc_floor),
        "--query-seconds", str(TRAIN_QUERY_SECONDS)]
        + (["--trace"] if args.trace else []))
        for _ in range(TRAIN_REPEATS)]
    setups = runs + [children.run(argv + ["--setup-only"])
                     for _ in range(SETUP_REPEATS - TRAIN_REPEATS)]
    res = runs[0]
    median_of = lambda get: statistics.median(get(r) for r in runs)
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "train_s": median_of(lambda r: r["train_s"]),
        "train_auc": median_of(lambda r: r["train_auc"]),
        "p50_ms": median_of(lambda r: r["queries"]["p50_ms"]),
        "p99_ms": median_of(lambda r: r["queries"]["p99_ms"]),
        "qps": median_of(lambda r: r["queries"]["qps"]),
        "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"])}
    correct = all(r["correct"] for r in runs)
    layers = {}
    if args.trace:
        spans = res["spans"]
        by_name = {}
        for span in spans + [s for r in setups[1:] for s in r["spans"]]:
            by_name.setdefault(span["name"], []).append(span)
        dur = lambda s: (s["end_ns"] - s["start_ns"]) * 1e-9
        med = lambda name: statistics.median(dur(s) for s in by_name[name])
        lay = res["layers"]
        self_s = lambda span: dur(span) - sum(
            dur(s) for s in spans if s["parent"] == span["id"])
        sgd_s = med("embedding.sgd")
        layers = {
            "graph.load_s": med("graph.load"),
            "action.load_s": med("action.load"),
            "core.corpus_s": med("core.corpus"),
            "diffusion.network_s": lay["diffusion"]["network_s"],
            "diffusion.context_s": lay["diffusion"]["context_s"],
            "diffusion.contexts": lay["diffusion.contexts"],
            "core.pairs": lay["core.pairs"],
            "embedding.sgd_s": sgd_s,
            "embedding.epoch_s": lay["embedding.epoch_s"],
            "embedding.pairs_per_s": lay["core.pairs"] * TRAIN_EPOCHS / sgd_s,
            "embedding.sgd_parallelism": lay["embedding.sgd_parallelism"],
            "kernels.grad_steps": lay["kernels.grad_steps"],
            "kernels.grad_mb": lay["kernels.grad_mb"],
            "embedding.save_s": med("embedding.save"),
            "embedding.artifact_mb": lay["embedding.artifact_mb"],
            "embedding.objective": lay["embedding.objective"],
            "train.other_s": self_s(by_name["train"][0]),
        }
    outcome = {
        "end_to_end": end_to_end, "layers": layers, "correct": correct,
        "attempted": sum(r["queries"]["requests"] for r in runs), "failed": 0,
        "provenance": res["provenance"], "checks": [r["checks"] for r in runs],
        "inputs": prepared}
    if args.trace:
        outcome["spans"] = {
            "benchmark": [s for r in setups for s in r["spans"]],
            "program": res["program_spans"]}
    return outcome


# -------------------------------------------------------------- serving --

class Server:
    """The system side of a serving workload: the real `inf2vec_cli serve`
    with its defaults on a kernel-picked port, observed from outside through
    /proc, /metrics and /memz. Its log goes to `log_path`."""

    READY = re.compile(r"serving on http://127\.0\.0\.1:(\d+) ")
    LOADED = re.compile(r"loaded \+ warmed .* in ([0-9.e+-]+)s$")

    def __init__(self, children, argv, log_path):
        self.log_path = log_path
        with open(log_path, "w") as log_file:
            start = time.monotonic_ns()
            self.proc = children.start(
                [CLI, "serve", "--port", "0"] + argv,
                stdout=subprocess.PIPE, stderr=log_file, text=True)
            ready = self.READY.match(self.proc.stdout.readline())
            end = time.monotonic_ns()
        # From artifact on disk to accepting requests.
        self.setup_s = (end - start) * 1e-9
        self.span = {"name": "serve.setup", "start_ns": start, "end_ns": end}
        if ready is None:
            raise BenchError("server did not start: %s" % self.log_tail())
        self.port = int(ready.group(1))

    def log_tail(self):
        """The server log's last line; the run directory is removed when
        the run ends."""
        with open(self.log_path) as f:
            lines = f.read().strip().splitlines()
        return lines[-1] if lines else "(empty log)"

    def get(self, path):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read().decode()
        except (OSError, http.client.HTTPException) as exc:
            raise BenchError("GET %s failed: %s" % (path, exc))
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError("GET %s answered %d" % (path, response.status))
        return body

    def counter(self, metrics, name):
        match = re.search(r"^%s_total (\d+)$" % name, metrics, re.MULTILINE)
        return int(match.group(1)) if match else 0

    def mark(self):
        """The server's CPU time and seed-cache counters now."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            # utime and stime are fields 14 and 15 of proc(5)'s stat line;
            # the split starts at field 3, after the command name.
            fields = f.read().rsplit(")", 1)[1].split()
        metrics = self.get("/metrics")
        return {
            "mono_ns": time.monotonic_ns(),
            "cpu_s": (int(fields[11]) + int(fields[12])) /
                     os.sysconf("SC_CLK_TCK"),
            "cache_hits": self.counter(
                metrics, "inf2vec_serve_seed_cache_hits"),
            "cache_misses": self.counter(
                metrics, "inf2vec_serve_seed_cache_misses")}

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM in /proc/%d/status" % self.proc.pid)

    def stop(self):
        """Stops the server as Ctrl-C does; returns its load time (s)."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("server did not stop")
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError("server failed (exit %d): %s" %
                             (self.proc.returncode, self.log_tail()))
        with open(self.log_path) as f:
            for line in f:
                loaded = self.LOADED.search(line.rstrip("\n"))
                if loaded:
                    return float(loaded.group(1))
        raise BenchError("no load time in %s" % self.log_path)


class Swapper(threading.Thread):
    """`score`: every SWAP_INTERVAL_S, replace the served model file with
    the other prepared artifact and call /reloadz."""

    def __init__(self, run_dir, port):
        super().__init__(daemon=True)
        self.run_dir = run_dir
        self.port = port
        self.halt = threading.Event()
        self.swaps = []
        self.error = None

    def run(self):
        served = os.path.join(self.run_dir, "model.bin")
        staged = os.path.join(self.run_dir, "model.next")
        names = ["model_b.bin", "model_a.bin"]
        while not self.halt.wait(SWAP_INTERVAL_S):
            source = os.path.join(self.run_dir, names[len(self.swaps) % 2])
            try:
                if os.path.exists(staged):
                    os.remove(staged)
                os.link(source, staged)
                os.replace(staged, served)
                start = time.monotonic_ns()
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=30)
                conn.request("GET", "/reloadz")
                response = conn.getresponse()
                body = json.loads(response.read())
                returned = time.monotonic_ns()
                conn.close()
            except (OSError, ValueError, http.client.HTTPException) as exc:
                self.error = "swap failed: %s" % exc
                return
            if response.status != 200:
                self.error = "swap failed: HTTP %d %s" % (response.status, body)
                return
            self.swaps.append({
                "start": start, "returned": returned,
                "generation": body["generation"],
                "transient_bytes": body["swap_transient_bytes"]})


def run_serving(args, children, run_dir):
    kind = args.workload
    prepared = children.run(["prepare", "--workload", kind, "--seed",
                             str(args.seed), "--dir", run_dir])
    shutil.copyfile(os.path.join(run_dir, "model_a.bin"),
                    os.path.join(run_dir, "model.bin"))
    requests_path = os.path.join(run_dir, "requests.tsv")
    access_log = os.path.join(run_dir, "access.log")
    kernel = ["--kernel", args.kernel] if args.kernel else []
    serve_argv = ["--model", os.path.join(run_dir, "model.bin"),
                  "--quantize", "int8" if kind == "score" else "none"] + kernel
    # Set-up alone in SETUP_REPEATS - 1 fresh servers, then the measured one.
    setups = []
    for i in range(SETUP_REPEATS - 1):
        server = Server(children, serve_argv,
                        os.path.join(run_dir, "setup%d.log" % i))
        setups.append({"setup_s": server.setup_s, "load_s": server.stop(),
                       "span": server.span})
    server = Server(
        children,
        serve_argv + (["--access-log", access_log] if args.trace else []),
        os.path.join(run_dir, "serve.log"))

    rate = args.topk_rate if kind == "topk" else SCORE_RATE
    loadgen = children.start([
        BINARY, "loadgen", "--port", str(server.port), "--kind", kind,
        "--requests", requests_path, "--rate", str(rate),
        "--open-seconds", str(args.seconds * OPEN_SHARE),
        "--closed-seconds", str(args.seconds * (1 - OPEN_SHARE)),
        "--sample-every", "50" if kind == "topk" else "100",
        "--out-dir", run_dir],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    swapper = Swapper(run_dir, server.port) if kind == "score" else None
    if swapper is not None:
        swapper.start()
    # The load generator alternates open and closed phases over a few
    # rounds. Before each round after the first, with the server idle,
    # the served model's training runs again, so train_s also samples the
    # whole run.
    summary = None
    marks = []  # (phase, server mark) at each phase boundary.
    train_runs = [prepared["train_s"]]
    for line in loadgen.stdout:
        words = line.split()
        if words[:1] == ["phase"]:
            marks.append((words[1], server.mark()))
            if words[1] == "end":
                continue
            if words[1] == "open" and words[2] != "0":
                train_runs.append(children.run([
                    "prepare", "--workload", kind, "--seed", str(args.seed),
                    "--dir", run_dir, "--train-only"])["train_s"])
            loadgen.stdin.write("go\n")
            loadgen.stdin.flush()
        elif line.startswith("{"):
            summary = json.loads(line)
    loadgen.wait()
    if swapper is not None:
        swapper.halt.set()
        swapper.join()
    if loadgen.returncode != 0 or summary is None:
        raise BenchError("load generator failed")
    if swapper is not None and swapper.error:
        raise BenchError(swapper.error)
    peak_rss_mb = server.peak_rss_mb()
    memory = json.loads(server.get("/memz"))["accounted"]["gauges"]
    setups.append({"setup_s": server.setup_s, "load_s": server.stop(),
                   "span": server.span})
    swaps = swapper.swaps if swapper is not None else []
    with open(os.path.join(run_dir, "swaps.tsv"), "w") as f:
        for swap in swaps:
            f.write("%d\t%d\n" % (swap["returned"], swap["generation"]))
    checked = children.run(
        ["check", "--kind", kind, "--dir", run_dir] + kernel +
        (["--direct-count", str(DIRECT_CALLS[kind])] if args.trace else []))

    rows = read_requests_log(os.path.join(run_dir, "requests.log"))
    with open(requests_path) as f:
        seed_counts = [line.split("\t")[-2 if kind == "score" else 0]
                       .count(",") + 1 for line in f]
    for r in rows:
        r["seeds"] = seed_counts[r["line"]]
    open_rows = [r for r in rows if r["phase"] == 0]
    closed_rows = [r for r in rows if r["phase"] == 1]
    ok = lambda r: r["status"] == 200
    latencies = [(r["done"] - r["due"]) * 1e-6 if ok(r) else float("inf")
                 for r in open_rows]
    lag_ms = quantile([(r["sent"] - r["due"]) * 1e-6 for r in open_rows], 0.99)
    failures = {}
    for r in rows:
        if not ok(r):
            failures[failure_kind(r["status"])] = failures.get(
                failure_kind(r["status"]), 0) + 1
    failures["wrong_answer"] = checked["wrong"]
    closed_s = summary["closed_seconds"]
    closed_ok = sum(1 for r in closed_rows if ok(r))
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "train_s": statistics.median(train_runs),
        "train_auc": prepared["train_auc"],
        "p50_ms": quantile(latencies, 0.50),
        "p99_ms": quantile(latencies, 0.99),
        "qps": closed_ok / closed_s,
        "peak_rss_mb": peak_rss_mb}
    phases = {
        name: {"attempted": len(part),
               "succeeded": sum(1 for r in part if ok(r)),
               "failed": sum(1 for r in part if not ok(r))}
        for name, part in (("open", open_rows), ("closed", closed_rows))}
    phases["open"].update({"posts": sum(1 for r in open_rows if r["post"]),
                           "rate": rate, "lag_p99_ms": lag_ms})
    phases["closed"]["seconds"] = closed_s
    if lag_ms > MAX_LAG_MS:
        raise BenchError("invalid run: the load generator fell %.2f ms behind "
                         "its schedule at p99 (bound %.1f ms)" %
                         (lag_ms, MAX_LAG_MS))
    if any(v == float("inf") for v in (end_to_end["p50_ms"],
                                       end_to_end["p99_ms"])):
        raise BenchError("invalid run: a reported percentile fell on failed "
                         "requests")

    provenance = dict(checked["provenance"], loadgen_nice=summary["nice"])
    failed = sum(1 for r in rows if not ok(r)) + checked["wrong"]
    outcome = {
        "end_to_end": end_to_end, "layers": {},
        "correct": bool(checked["correct"]),
        "attempted": len(rows), "failed": failed,
        "provenance": provenance, "checks": checked,
        "phases": phases, "failures": failures, "swaps": swaps,
        "inputs": dict(prepared, train_runs_s=train_runs)}
    if args.trace:
        outcome["layers"], requests = serving_layers(
            kind, rows, open_rows, closed_rows, marks, setups, memory,
            checked, swaps, access_log)
        outcome["spans"] = {"benchmark": [s["span"] for s in setups],
                            "requests": requests}
    return outcome


def serving_layers(kind, rows, open_rows, closed_rows, marks, setups, memory,
                   checked, swaps, access_log):
    """Per-layer metrics of a traced serving run, and the open-loop
    requests' spans (client timing joined with the server's phases by
    request id). Time splits are means over those requests, so the parts
    add up to the whole."""
    records = {}
    with open(access_log) as f:
        for line in f:
            event = json.loads(line)
            if event["endpoint"] in ("/topk", "/score"):
                records[int(event["request_id"])] = event
    joined = [(r, records[r["id"]]) for r in open_rows
              if r["status"] == 200 and r["id"] in records]
    if not joined:
        raise BenchError("no access-log records joined the open-loop requests")
    phase = lambda name: mean([e["phases"].get(name, 0) for _, e in joined])
    handler = mean([e["total_us"] for _, e in joined])
    rtt = mean([(r["done"] - r["sent"]) * 1e-3 for r, _ in joined])
    client = mean([(r["done"] - r["due"]) * 1e-3 for r, _ in joined])
    gathers = [e["phases"]["seed_gather"] for _, e in joined
               if "seed_gather" in e["phases"]]
    parts = {name: phase(name) for name in
             ("parse", "cache_lookup", "kernel_scan", "merge", "serialize")}

    first, last = marks[0][1], marks[-1][1]
    hits = last["cache_hits"] - first["cache_hits"]
    misses = last["cache_misses"] - first["cache_misses"]
    # Server CPU over the closed phases: each runs to the next mark.
    closed_cpu_s = sum(after[1]["cpu_s"] - before[1]["cpu_s"]
                       for before, after in zip(marks, marks[1:])
                       if before[0] == "closed")
    answered = [r for r in rows if r["status"] == 200]
    row_bytes = checked["target_row_bytes"]
    if kind == "topk":
        scans = [r for r in open_rows if r["status"] == 200 and not r["coalesced"]]
        # Seeds per request: the request line's id count.
        dots = mean([r["scanned"] * r["seeds"] for r in scans])
        scan_mb = mean([r["scanned"] * row_bytes / 1e6 for r in scans])
    else:
        dots = mean([r["seeds"] for r in open_rows if r["status"] == 200])
        scan_mb = row_bytes / 1e6
    closed_ok = sum(1 for r in closed_rows if r["status"] == 200)
    mb = lambda name: memory.get(name, {"bytes": 0})["bytes"] / 1e6
    requests = [{"id": r["id"], "due_ns": r["due"], "sent_ns": r["sent"],
                 "done_ns": r["done"], "server_total_us": e["total_us"],
                 "server_phases_us": e["phases"]} for r, e in joined]
    return {
        "serve.load_s": statistics.median(s["load_s"] for s in setups),
        "serve.handler_us": handler,
        "serve.parse_us": parts["parse"],
        "serve.serialize_us": parts["serialize"],
        "serve.cache_lookup_us": parts["cache_lookup"],
        "serve.seed_gather_us": mean(gathers),
        "serve.kernel_scan_us": parts["kernel_scan"],
        "serve.merge_us": parts["merge"],
        "serve.other_us": handler - sum(parts.values()),
        "obs.wait_us": rtt - handler,
        "client.other_us": client - rtt,
        "serve.topk_direct_us": checked["direct_us"] if kind == "topk" else 0.0,
        "serve.score_direct_us": (checked["direct_us"] if kind == "score"
                                  else 0.0),
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.coalesced_ratio": (
            mean([1.0 if r["coalesced"] else 0.0 for r in answered])
            if kind == "topk" else 0.0),
        "kernels.scan_dots": dots,
        "kernels.scan_mb": scan_mb,
        "serve.cpu_ms_per_req": closed_cpu_s * 1e3 / max(1, closed_ok),
        "serve.swap_s": mean([(s["returned"] - s["start"]) * 1e-9
                              for s in swaps]),
        "serve.swaps": len(swaps),
        "mem.embedding_table_mb": mb("serve.embedding_table"),
        "mem.quantized_table_mb": mb("serve.quantized_table"),
        "mem.seed_cache_mb": mb("serve.seed_cache"),
        "mem.swap_transient_mb": max(
            [s["transient_bytes"] for s in swaps] or [0]) / 1e6,
        "obs.shed": sum(1 for r in rows if r["status"] == 429),
        "obs.errors": sum(1 for r in rows
                          if r["status"] not in (200, 429)),
        "loadgen.lag_ms": quantile(
            [(r["sent"] - r["due"]) * 1e-6 for r in open_rows], 0.99),
    }, requests


# ----------------------------------------------------------------- main --

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "topk", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds of a serving run's two phases")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--topk-rate", type=float, required=True,
                        help="open-loop requests/s of `topk`")
    parser.add_argument("--auc-floor", type=float, required=True,
                        help="lowest acceptable train_auc")
    parser.add_argument("--kernel", default="",
                        help="pin the kernel ISA (scalar, avx2); default CPUID")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except BenchError as exc:
        log("perfbench: %s" % exc)
        return 1
    children = Children()

    def overrun():
        log("perfbench: run exceeded %d s" % WALL_LIMIT_S)
        children.stop_all()
        os._exit(4)

    # The limit covers the run, not the first build in a fresh checkout.
    deadline = threading.Timer(WALL_LIMIT_S, overrun)
    deadline.daemon = True
    deadline.start()
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        os.makedirs(run_dir)
        runner = run_train if args.workload == "train" else run_serving
        outcome = runner(args, children, run_dir)
    except BenchError as exc:
        log("perfbench: %s" % exc)
        return 1
    finally:
        children.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        deadline.cancel()

    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(outcome["layers"])
        for name, value in outcome["end_to_end"].items():
            values["traced." + name] = value
    else:
        values = dict(outcome["end_to_end"])
    metrics = {name: {"value": values[name], "unit": UNITS[name]}
               for name in values}
    result = {"correct": outcome["correct"],
              "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}

    full = dict(outcome)
    full.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "params": {"topk_rate": args.topk_rate,
                            "score_rate": SCORE_RATE,
                            "auc_floor": args.auc_floor,
                            "train_epochs": TRAIN_EPOCHS,
                            "setup_repeats": SETUP_REPEATS,
                            "swap_interval_s": SWAP_INTERVAL_S,
                            "open_share": OPEN_SHARE,
                            "kernel": args.kernel or "auto"},
                 "result": result})
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    # Named by git sha too, so runs of two commits sharing a build directory
    # keep apart.
    with open(os.path.join(results_dir, "%s-seed%d-trace%d%s-%s.json" % (
            args.workload, args.seed, args.trace,
            "-" + args.kernel if args.kernel else "",
            outcome["provenance"]["git_sha"])), "w") as f:
        json.dump(full, f, indent=1)

    for key in ("provenance", "phases", "failures", "checks"):
        if key in outcome:
            print("%s: %s" % (key, json.dumps(outcome[key], sort_keys=True)))
    for name in sorted(metrics):
        print("%-28s %14.6g %s" % (name, metrics[name]["value"],
                                   metrics[name]["unit"]))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
