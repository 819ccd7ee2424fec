#!/usr/bin/env python3
"""qsynth benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a qsynth checkout.  The program is built from source
(`dune build`), its inputs are generated from --seed, and every workload
drives the user-facing commands (`qsynth census`, `qsynth batch`,
`qsynth serve` with a lock-step client).  With --trace 0 the last stdout
line carries every end-to-end metric of BENCHMARK.json; with --trace 1 the
traced run (perfbench/tracer) carries every per-layer metric.  --out
appends {workload, seed, trace, result} to FILE for perfbench/compare.py.

Measurement rules (see perfbench/README.md for the noise that set them):
one OCaml domain per census (--jobs 1), one daemon worker, one client
connection, all pinned to one CPU, several seconds of timed work per run,
medians over units inside a run.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.request

WORK = ".perfbench"
QSYNTH = "_build/default/bin/qsynth.exe"
TRACER = "_build/default/perfbench/tracer/tracer.exe"
PROC_TIMEOUT_S = 90.0


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Processes


class Proc:
    """Wall time, CPU time and peak RSS of one finished child process."""

    def __init__(self, wall, cpu, rss_mb, status, stdout):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.status, self.stdout = status, stdout

    @property
    def ok(self):
        return self.status == 0


def run(args, stdout=None, stdin=subprocess.DEVNULL):
    """Run a child to completion; capture its stdout unless a file is given.

    The child is killed (and the run counted as failed) after
    PROC_TIMEOUT_S, so a hung program cannot hold the benchmark past its
    time limit."""
    capture = stdout is None
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdin=stdin,
                         stdout=subprocess.PIPE if capture else stdout)
    timer = threading.Timer(PROC_TIMEOUT_S, p.kill)
    timer.start()
    out = p.stdout.read().decode() if capture else ""
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    if capture:
        p.stdout.close()
    return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                p.returncode, out)


def qsynth(*args, **kw):
    return run([QSYNTH, *args], **kw)


def timed_units(seconds, unit, min_units=3):
    """Call unit() until `seconds` of wall time have passed (at least
    min_units times); return the list of its results."""
    results, t0 = [], time.perf_counter()
    while len(results) < min_units or time.perf_counter() - t0 < seconds:
        results.append(unit())
    return results


def median_setup(launch, reps):
    return statistics.median(launch() for _ in range(reps))


def pct(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(round(q / 100.0 * len(s) + 0.5)) - 1))
    return s[k]


class Tally:
    """Operations attempted and failed, plus the reasons for failures."""

    def __init__(self):
        self.attempted, self.failed, self.errors = 0, 0, []

    def op(self, ok, what, n=1):
        self.add(n, 0 if ok else n, what)

    def add(self, n, bad, what):
        self.attempted += n
        if bad:
            self.failed += bad
            self.errors.append(what)

    def check(self, ok, what, n=1):
        """A failed output check on operations already counted."""
        if not ok:
            self.failed += n
            self.errors.append(what)


# ---------------------------------------------------------------------------
# Seeded inputs


def s8_spec(rng):
    p = list(range(8))
    rng.shuffle(p)
    return ",".join(map(str, p))


def request_line(spec):
    # max_depth 13 is the paper18 diameter: every S8 function is
    # realizable, so every answer carries a cascade to replay.
    return json.dumps({"spec": spec, "max_depth": 13}, separators=(",", ":"))


def write_lines(path, lines):
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def emit_paper18_index(path, t):
    p = qsynth("census", "-d", "13", "--quotient", "--jobs", "1",
               "--emit-index", path)
    t.check(p.ok and parse_row(p.stdout, "|G[k]|") == X1_SPECTRUM,
            "paper18 index fixture: census failed or spectrum differs")
    if not p.ok:
        raise RuntimeError("cannot build the paper18 index fixture")


# ---------------------------------------------------------------------------
# Output checks

# |G[k]| of `census -q 4 -d 5` (paper18 on 4 wires).
S16_ROW = [1, 12, 96, 542, 2154, 6804]
# Closure spectra: paper18 X1 (zero-fixing |G[k]|), nct and nft (|S8[k]|).
X1_SPECTRUM = [1, 6, 24, 51, 84, 156, 398, 540, 444, 1440, 552, 0, 1232, 112]
CLOSURES = [
    # (library, census depth, quotient, pinned spectrum, printed row label)
    ("paper18", 13, True, X1_SPECTRUM, "|G[k]|"),
    ("nct", 9, False, [1, 12, 102, 625, 2780, 8921, 17049, 10253, 577], "|S8[k]|"),
    ("nft", 8, False, [1, 18, 184, 1318, 6474, 17695, 14134, 496], "|S8[k]|"),
]


def closure_census(lib, depth, quotient, *extra):
    return qsynth("census", "-d", str(depth), *(["--quotient"] if quotient else []),
                  "--library", lib, "--jobs", "1", *extra)


def parse_row(text, label):
    """The integers of the census table row starting with `label`, with
    trailing zeros (levels past the diameter) dropped."""
    for line in text.splitlines():
        if line.startswith(label):
            row = [int(x) for x in line.split(":", 1)[1].split()]
            while row and row[-1] == 0:
                row.pop()
            return row
    return None


# Multiple-valued replay of a paper18 cascade: wire values 0, 1 and the
# two mixed values V0 = V|0>, V1 = V|1> (coded 2 and 3).  V advances along
# 0 -> V0 -> 1 -> V1 -> 0, V+ along the reverse; a control (and both wires
# of a Feynman gate) must carry a binary value.  On such trajectories the
# model is exact, so a cascade whose outputs are binary and equal to the
# target realizes the target unitary.
V_STEP = {0: 2, 2: 1, 1: 3, 3: 0}
VDAG_STEP = {v: k for k, v in V_STEP.items()}
WIRES = "ABC"


def parse_gate(name):
    if name.startswith("V+"):
        step, rest = VDAG_STEP, name[2:]
    elif name.startswith("V"):
        step, rest = V_STEP, name[1:]
    elif name.startswith("F"):
        step, rest = None, name[1:]
    else:
        raise ValueError(f"not a paper18 gate: {name}")
    return step, WIRES.index(rest[0]), WIRES.index(rest[1])


def replays_to(cascade, not_mask, target):
    gates = [] if cascade == "()" else [parse_gate(g) for g in cascade.split("*")]
    for x in range(8):
        y = x ^ not_mask
        w = [(y >> 2) & 1, (y >> 1) & 1, y & 1]
        for step, data, ctrl in gates:
            if w[ctrl] > 1:
                return False
            if step is None:
                if w[data] > 1:
                    return False
                w[data] ^= w[ctrl]
            elif w[ctrl] == 1:
                w[data] = step[w[data]]
        if any(v > 1 for v in w) or (w[0] << 2 | w[1] << 1 | w[2]) != target[x]:
            return False
    return True


def check_answer(request, response):
    """A response line answers a request line with a cascade that replays
    to the requested function."""
    try:
        spec = json.loads(request)["spec"]
        payload = json.loads(response)["ok"]["payload"]
        return (payload["kind"] == "synthesized" and payload["target"] == spec
                and replays_to(payload["cascade"], payload["not_mask"],
                               [int(v) for v in spec.split(",")]))
    except (KeyError, ValueError, TypeError):
        return False


def check_answers(requests, responses_path, t, what):
    with open(responses_path) as f:
        responses = f.read().splitlines()
    if len(responses) != len(requests):
        t.check(False, f"{what}: {len(responses)} responses for {len(requests)} requests",
                len(requests))
        return
    verdict = {}
    bad = 0
    for req, resp in zip(requests, responses):
        ok = verdict.get((req, resp))
        if ok is None:
            ok = verdict[(req, resp)] = check_answer(req, resp)
        bad += not ok
    t.check(bad == 0, f"{what}: {bad} responses fail replay", bad)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# Daemon and client


class Daemon:
    """`qsynth serve --workers 1` on a relative socket path (the checkout
    may sit deeper than a Unix socket path allows)."""

    def __init__(self, index, sock, extra=()):
        if os.path.exists(sock):
            os.unlink(sock)
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            [QSYNTH, "serve", "--socket", sock, "--index", index,
             "--workers", "1", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.port = None
        watchdog = threading.Timer(60.0, self.p.kill)
        watchdog.start()
        ready = False
        while not ready:
            line = self.p.stdout.readline().decode()
            if not line:
                break
            if "/metrics" in line:
                self.port = int(line.rsplit(":", 1)[1].split("/")[0])
            ready = line.startswith("serving on")
        watchdog.cancel()
        # keep draining stdout so the daemon never blocks on a full pipe
        self.drain = threading.Thread(target=self.p.stdout.read, daemon=True)
        self.drain.start()
        if not ready:
            self.stop()
            raise RuntimeError("daemon did not become ready")

    def cpu_s(self):
        """CPU time of all the daemon's threads, at nanosecond resolution
        (schedstat), where /proc/PID/stat counts 10 ms ticks."""
        task = f"/proc/{self.p.pid}/task"
        total = 0
        for tid in os.listdir(task):
            try:
                with open(f"{task}/{tid}/schedstat") as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass  # a thread that has just exited
        return total * 1e-9

    def peak_rss_mb(self):
        for line in open(f"/proc/{self.p.pid}/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def metric(self, name):
        text = urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}/metrics", timeout=10).read().decode()
        for line in text.splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        return 0.0

    def stop(self):
        """SIGTERM, wait for the drain; True when it exited 0."""
        if self.p.poll() is None:
            self.p.terminate()
        try:
            code = self.p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.p.kill()
            code = self.p.wait()
        self.drain.join(timeout=5)
        self.p.stdout.close()
        return code == 0


class Client:
    """One lock-step connection speaking the length-prefixed frames of
    doc/API.md."""

    def __init__(self, sock):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.connect(sock)

    def call(self, frame):
        s = self.s
        s.sendall(frame)
        head = s.recv(4)
        while len(head) < 4:
            more = s.recv(4 - len(head))
            if not more:
                raise ConnectionError("daemon closed the connection")
            head += more
        n = struct.unpack(">I", head)[0]
        body = s.recv(n)
        while len(body) < n:
            more = s.recv(n - len(body))
            if not more:
                raise ConnectionError("daemon closed the connection")
            body += more
        return body

    def close(self):
        self.s.close()


def frame(payload):
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


# ---------------------------------------------------------------------------
# Traced runs: span documents -> per-layer metrics


def run_tracer(*args):
    out = os.path.join(WORK, "spans.json")
    p = run([TRACER, *args, "--out", out], stdout=subprocess.DEVNULL)
    if not p.ok:
        raise RuntimeError(f"tracer {args[0]} failed with status {p.status}")
    with open(out) as f:
        return json.load(f)


def span_stats(m, layer, durations_s):
    """Median and p99 self time in microseconds, with the sample count."""
    m[layer + "_us.p50"] = statistics.median(durations_s) * 1e6 if durations_s else 0.0
    m[layer + "_us.p99"] = pct(durations_s, 99) * 1e6 if durations_s else 0.0
    m[layer + ".n"] = len(durations_s)


def step_seconds(steps):
    return sum(steps[i + 1] - steps[i] for i in range(0, len(steps), 2))


def union_length(intervals):
    total, end = 0.0, float("-inf")
    for s, e in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def overhead_pct(untraced, traced):
    return (traced - untraced) / untraced * 100.0


def traced_rounds(seconds, one_round):
    """Repeat one_round(samples) -- an untraced pass, then a traced one --
    until `seconds` have passed, at least once.  Rounds append their
    per-layer samples to the shared dict and return their tracing
    overhead; the result is the pooled samples and the median overhead."""
    samples, overheads, t0 = {}, [], time.perf_counter()
    while not overheads or time.perf_counter() - t0 < seconds:
        overheads.append(one_round(samples))
    return samples, statistics.median(overheads)


def pool(samples, name, values):
    samples.setdefault(name, []).extend(values)


def per_request_s(doc):
    return (doc["loop"][1] - doc["loop"][0]) / doc["requests"]


# ---------------------------------------------------------------------------
# Workloads


def census_s16(seed, seconds, trace, t):
    """census-s16 -- `qsynth census -q 4 -d 5 --jobs 1`, paper18 on 4 wires.

    Why: the ROADMAP's scaling workload.  Nearly all of its time is
    Search/State_arena expand, dedup and merge writing the arena (1.15M
    states, ~520 MB); no index or serving code runs.  Image-vector keys,
    a wider conjugator field and an RSS guard land here.  The census is
    deterministic, so the seed changes nothing but the run's identity."""
    del seed
    if trace:
        return census_s16_traced(seconds, t)
    setup = median_setup(lambda: qsynth("census", "-q", "4", "-d", "0",
                                        "--jobs", "1").wall, 15)

    def unit():
        p = qsynth("census", "-q", "4", "-d", "5", "--jobs", "1")
        t.op(p.ok and parse_row(p.stdout, "|G[k]|") == S16_ROW,
             f"census-s16: status {p.status} or |G[k]| row differs")
        return p

    units = timed_units(seconds, unit)
    return {
        "setup_s": setup,
        "wall_s": statistics.median(u.wall for u in units),
        "cpu_s": statistics.median(u.cpu for u in units),
        "peak_rss_mb": max(u.rss_mb for u in units),
    }


def census_s16_traced(seconds, t):
    def one_round(samples):
        u = run_tracer("census")
        d = run_tracer("census", "--traced")
        for doc in (u, d):
            t.op(doc["completed"] and doc["counts"] == S16_ROW,
                 "census-s16 traced: |G[k]| row differs")
        step_s = step_seconds(d["steps"])
        pool(samples, "search.step_s", [step_s])
        pool(samples, "search.states", [d["states"]])
        pool(samples, "search.bytes_per_state", [d["arena_bytes"] / d["states"]])
        pool(samples, "search.states_per_s", [d["states"] / step_s])
        pool(samples, "fmcf.self_s", [d["run"][1] - d["run"][0] - step_s])
        return overhead_pct(u["run"][1] - u["run"][0], d["run"][1] - d["run"][0])

    samples, overhead = traced_rounds(seconds, one_round)
    m = {name: statistics.median(v) for name, v in samples.items()}
    m["trace.overhead_pct"] = overhead
    return m


def closure_s8(seed, seconds, trace, t):
    """closure-s8 -- census to closure for each registered 3-wire library,
    emitting a complete index, then reloading it with full witness replay
    (`batch --verify-index` on an empty request file).  paper18 uses
    `-d 13 --quotient`, nct `-d 9`, nft `-d 8`.

    Why: the "precompute the universe" path.  Most of its time is
    Census_index.build (witness reconstruction and pack) plus save;
    Search and Symmetry are a minor share.  It writes the indexes that
    batch-s8 and serve-hot read.  Deterministic; the seed is unused."""
    del seed
    os.makedirs(os.path.join(WORK, "idx"), exist_ok=True)
    empty = os.path.join(WORK, "empty.jsonl")
    write_lines(empty, [])
    if trace:
        return closure_s8_traced(seconds, t)

    setup = median_setup(lambda: sum(closure_census(lib, 0, q).wall
                                     for lib, _, q, _, _ in CLOSURES), 9)
    digests = {}

    def unit():
        procs = []
        for lib, depth, quotient, spectrum, label in CLOSURES:
            path = os.path.join(WORK, "idx", lib + ".idx")
            p = closure_census(lib, depth, quotient, "--emit-index", path)
            v = qsynth("batch", "--library", lib, "--index", path,
                       "--verify-index", empty)
            digest = sha256(path) if p.ok else None
            ok = (p.ok and v.ok and parse_row(p.stdout, label) == spectrum
                  and "(complete)" in p.stdout
                  and digests.setdefault(lib, digest) == digest)
            t.op(ok, f"closure-s8 {lib}: census/verify status {p.status}/{v.status}, "
                 "spectrum, completeness or index bytes differ")
            procs += [p, v]
        return procs

    passes = timed_units(seconds, unit)
    return {
        "setup_s": setup,
        "wall_s": statistics.median(sum(p.wall for p in ps) for ps in passes),
        "cpu_s": statistics.median(sum(p.cpu for p in ps) for ps in passes),
        "peak_rss_mb": max(p.rss_mb for ps in passes for p in ps),
    }


def closure_s8_traced(seconds, t):
    idx = os.path.join(WORK, "idx")

    def one_round(samples):
        u = run_tracer("closure", "--dir", idx)
        d = run_tracer("closure", "--dir", idx, "--traced")
        for doc in (u, d):
            for lib, (name, _, _, spectrum, _) in zip(doc["libraries"], CLOSURES):
                hist = list(lib["histogram"])
                while hist and hist[-1] == 0:
                    hist.pop()
                t.op(lib["name"] == name and lib["complete"] and hist == spectrum,
                     f"closure-s8 traced {name}: spectrum or completeness differs")
        libs = d["libraries"]
        step_s = sum(step_seconds(lib["steps"]) for lib in libs)
        states = sum(lib["states"] for lib in libs)
        pool(samples, "search.step_s", [step_s])
        pool(samples, "search.states", [states])
        pool(samples, "search.bytes_per_state",
             [sum(lib["arena_bytes"] for lib in libs) / states])
        pool(samples, "search.states_per_s", [states / step_s])
        pool(samples, "fmcf.self_s",
             [sum(lib["marks"][2] - lib["marks"][1] for lib in libs) - step_s])
        for lib in libs:
            name, marks = lib["name"], lib["marks"]
            pool(samples, f"fmcf.run_s.{name}", [marks[2] - marks[1]])
            pool(samples, f"census_index.build_s.{name}", [marks[3] - marks[2]])
            pool(samples, f"census_index.save_s.{name}", [marks[4] - marks[3]])
            pool(samples, f"census_index.load_s.{name}", [marks[5] - marks[4]])
            pool(samples, f"census_index.bytes.{name}", [lib["bytes"]])
        return overhead_pct(u["wall"][1] - u["wall"][0], d["wall"][1] - d["wall"][0])

    samples, overhead = traced_rounds(seconds, one_round)
    m = {name: statistics.median(v) for name, v in samples.items()}
    m["trace.overhead_pct"] = overhead
    return m


BATCH_REQUESTS = 100_000


def batch_inputs(seed, t):
    """Requests drawn uniformly from all 40320 S8 functions, and the
    complete paper18 index they are answered from."""
    rng = random.Random(f"batch-s8/{seed}")
    requests = [request_line(s8_spec(rng)) for _ in range(BATCH_REQUESTS)]
    req_path = os.path.join(WORK, "requests.jsonl")
    write_lines(req_path, requests)
    index = os.path.join(WORK, "paper18.idx")
    emit_paper18_index(index, t)
    return requests, req_path, index


def batch_s8(seed, seconds, trace, t):
    """batch-s8 -- `qsynth batch --index <complete paper18 index>` over
    100k seeded requests, each drawn uniformly from all 40320 S8
    functions (max_depth 13, so every answer is a synthesized cascade).

    Why: offline throughput with no socket.  40320 keys against the
    1024-entry LRU means almost every request misses the cache, inserts
    and evicts: the time goes to JSON decode, Mce.Request validation and
    key, the Census_index probe with NOT-coset stripping and witness
    decode, and Mce.Response encode."""
    requests, req_path, index = batch_inputs(seed, t)
    empty = os.path.join(WORK, "empty.jsonl")
    write_lines(empty, [])
    if trace:
        return batch_s8_traced(seconds, requests, req_path, index, t)
    setup = median_setup(lambda: qsynth("batch", "--index", index, empty).wall, 15)
    first = os.path.join(WORK, "responses.jsonl")
    later = os.path.join(WORK, "responses-later.jsonl")
    reference = []

    def unit():
        out = later if reference else first
        with open(out, "wb") as f:
            p = qsynth("batch", "--index", index, req_path, stdout=f)
        digest = sha256(out)
        if not reference:
            reference.append(digest)
        t.op(p.ok and reference[0] == digest,
             f"batch-s8: status {p.status} or responses differ from the run's first batch",
             BATCH_REQUESTS)
        return p

    units = timed_units(seconds, unit)
    # Outside the timed loop: every response of the first batch must be Ok
    # with a cascade that replays to its target; the later batches were
    # byte-compared to it above.
    check_answers(requests, first, t, "batch-s8")
    return {
        "setup_s": setup,
        "wall_s": statistics.median(u.wall for u in units),
        "cpu_s": statistics.median(u.cpu for u in units),
        "peak_rss_mb": max(u.rss_mb for u in units),
    }


BATCH_LAYERS = ("json.of_string", "mce.request_of_json", "service.answer",
                "mce.response_to_string", "mce.solve", "mce.request_key",
                "census_index.find")


def batch_s8_traced(seconds, requests, req_path, index, t):
    plain = os.path.join(WORK, "responses-untraced.jsonl")
    traced = os.path.join(WORK, "responses-traced.jsonl")
    args = ["batch", "--index", index, "--requests", req_path, "--responses"]
    reference = []

    def one_round(samples):
        u = run_tracer(*args, plain)
        d = run_tracer(*args, traced, "--traced")
        if not reference:
            check_answers(requests, traced, t, "batch-s8 traced")
            reference.append(sha256(traced))
        t.op(sha256(plain) == sha256(traced) == reference[0],
             "batch-s8 traced: responses differ between passes", 2 * len(requests))
        rows, probe = d["rows"], d["probe"]
        col = lambda a, b: [r[b] - r[a] for r in rows]
        pool(samples, "json.of_string", col(1, 2))
        pool(samples, "mce.request_of_json", col(2, 3))
        pool(samples, "service.answer", col(3, 4))
        pool(samples, "mce.response_to_string", col(4, 5))
        pool(samples, "mce.solve", [x for x in d["solve_s"] if x > 0])
        pool(samples, "mce.request_key", [r[3] - r[2] for r in probe])
        pool(samples, "census_index.find", [r[4] - r[3] for r in probe])
        # per-request time: from one request's input_line to the next one's
        total = [rows[i + 1][0] - rows[i][0] for i in range(len(rows) - 1)]
        pool(samples, "request.total", total)
        pool(samples, "request.uncovered",
             [x - (r[5] - r[1]) for x, r in zip(total, rows)])
        pool(samples, "hits", [d["hits"]])
        pool(samples, "misses", [d["misses"]])
        return overhead_pct(per_request_s(u), per_request_s(d))

    samples, overhead = traced_rounds(seconds, one_round)
    m = {"trace.overhead_pct": overhead}
    for layer in BATCH_LAYERS:
        span_stats(m, layer, samples[layer])
    request_stats(m, samples["request.total"], samples["request.uncovered"])
    cache_stats(m, sum(samples["hits"]), sum(samples["misses"]))
    return m


def request_stats(m, total, uncovered):
    m["request.total_us.p50"] = statistics.median(total) * 1e6
    m["request.total_us.p99"] = pct(total, 99) * 1e6
    m["request.uncovered_us.p50"] = statistics.median(uncovered) * 1e6
    m["request.uncovered_us.p99"] = pct(uncovered, 99) * 1e6
    m["request.n"] = len(total)


def cache_stats(m, hits, misses):
    m["service.cache_hits"] = hits
    m["service.cache_misses"] = misses
    m["service.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0


HOT_SET = 64
SERVE_BLOCK = 20_000


def serve_inputs(seed, t):
    """A hot set of 64 distinct S8 functions, a seeded draw sequence over
    it, and the local (`qsynth batch`) answers each must match."""
    rng = random.Random(f"serve-hot/{seed}")
    specs = []
    while len(specs) < HOT_SET:
        s = s8_spec(rng)
        if s not in specs:
            specs.append(s)
    hot = [request_line(s) for s in specs]
    hot_path = os.path.join(WORK, "hot.jsonl")
    write_lines(hot_path, hot)
    index = os.path.join(WORK, "paper18.idx")
    emit_paper18_index(index, t)
    expected_path = os.path.join(WORK, "expected.jsonl")
    with open(expected_path, "wb") as f:
        p = qsynth("batch", "--index", index, hot_path, stdout=f)
    t.check(p.ok, "serve-hot: local answers failed")
    check_answers(hot, expected_path, t, "serve-hot local answers")
    with open(expected_path) as f:
        expected = f.read().splitlines()
    return rng, hot, hot_path, expected, expected_path, index


def serve_hot(seed, seconds, trace, t):
    """serve-hot -- `qsynth serve --index <complete paper18 index>
    --workers 1` with one lock-step client connection (closed loop, like
    `qsynth query` and `batch --socket`) sending a seeded draw from a
    64-function hot set.

    Why: the hot set fits the 1024-entry cache, and the client warms it
    with one pass before timing, so every timed answer is a cache hit.
    The time is Server.Protocol framing, Server.Daemon's
    reader -> queue -> worker handoff and the cache-hit path -- the
    layers batch-s8 never runs.  Open loop is left out: arrival-schedule
    load measured the scheduler on a 2-core host, not the daemon."""
    rng, hot, hot_path, expected, expected_path, index = serve_inputs(seed, t)
    sock = os.path.join(WORK, "qs.sock")
    if trace:
        return serve_hot_traced(seconds, rng, hot_path, expected_path, index, sock, t)

    def launch():
        # Ready = the first request answered.  `serve` prints "serving on"
        # a moment before it installs its SIGTERM drain handler, so the
        # daemon also gets a short settle before it is stopped.
        d = Daemon(index, sock)
        try:
            c = Client(sock)
            t.op(c.call(frame(hot[0])) == expected[0].encode(),
                 "serve-hot: first answer differs from the local one")
            ready = time.perf_counter() - d.t0
            c.close()
            time.sleep(0.05)
        finally:
            t.check(d.stop(), "serve-hot: daemon did not drain cleanly")
        return ready

    setup = median_setup(launch, 9)
    frames = [frame(h) for h in hot]
    want = [e.encode() for e in expected]
    d = Daemon(index, sock)
    try:
        c = Client(sock)
        for k in range(HOT_SET):
            t.op(c.call(frames[k]) == want[k], "serve-hot: warm-up answer differs")
        rtts, cpus = [], []
        t0 = time.perf_counter()
        pc = time.perf_counter
        while len(cpus) < 3 or pc() - t0 < seconds:
            seq = [rng.randrange(HOT_SET) for _ in range(SERVE_BLOCK)]
            bad = 0
            cpu0 = d.cpu_s()
            for k in seq:
                a = pc()
                reply = c.call(frames[k])
                rtts.append(pc() - a)
                bad += reply != want[k]
            cpus.append((d.cpu_s() - cpu0) / SERVE_BLOCK)
            t.add(SERVE_BLOCK, bad, f"serve-hot: {bad} answers differ from local ones")
        rss = d.peak_rss_mb()
        c.close()
    finally:
        t.check(d.stop(), "serve-hot: daemon did not drain cleanly")
    return {
        "setup_s": setup,
        "wall_s": statistics.median(rtts),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
    }


# The daemon keeps at most 50k spans per process (Telemetry.Span.max_spans),
# about four per cache-hit request.
SERVE_TRACED = 10_000


SERVE_LAYERS = ("protocol.write_frame", "protocol.read_wait", "daemon.queue_wait",
                "daemon.request", "daemon.write", "service.answer", "mce.solve",
                "json.of_string", "mce.request_of_json", "mce.request_key",
                "mce.response_to_string")


def serve_hot_traced(seconds, rng, hot_path, expected_path, index, sock, t):
    seq_path = os.path.join(WORK, "sequence.txt")
    spans_path = os.path.join(WORK, "daemon-trace.jsonl")
    args = ["serve", "--socket", sock, "--hot", hot_path, "--expected", expected_path,
            "--sequence", seq_path]

    def client(extra, traced):
        d = Daemon(index, sock, extra)
        try:
            doc = run_tracer(*args, *(["--traced"] if traced else []))
            if traced:
                doc["hits"] = d.metric("qsynth_server_cache_hit_total")
                doc["misses"] = d.metric("qsynth_server_cache_miss_total")
        finally:
            t.check(d.stop(), "serve-hot traced: daemon did not drain cleanly")
        t.op(doc["mismatches"] == 0, "serve-hot traced: answers differ from local ones",
             doc["requests"] + HOT_SET)
        return doc

    def one_round(samples):
        write_lines(seq_path, [str(rng.randrange(HOT_SET)) for _ in range(SERVE_TRACED)])
        u = client([], False)
        d = client(["--trace-file", spans_path, "--metrics-port", "0"], True)
        pool(samples, "client.rtt", [c - a for a, _, c in u["rows"]])
        pool(samples, "hits", [d["hits"]])
        pool(samples, "misses", [d["misses"]])
        join_daemon_spans(samples, d, spans_path, t)
        probe = d["probe"]
        pool(samples, "json.of_string", [r[1] - r[0] for r in probe])
        pool(samples, "mce.request_of_json", [r[2] - r[1] for r in probe])
        pool(samples, "mce.request_key", [r[3] - r[2] for r in probe])
        pool(samples, "mce.response_to_string", [r[5] - r[4] for r in probe])
        return overhead_pct(per_request_s(u), per_request_s(d))

    samples, overhead = traced_rounds(seconds, one_round)
    rtt = samples["client.rtt"]
    m = {"trace.overhead_pct": overhead,
         "client.rtt_us.p50": statistics.median(rtt) * 1e6,
         "client.rtt_us.p99": pct(rtt, 99) * 1e6}
    for layer in SERVE_LAYERS:
        span_stats(m, layer, samples.get(layer, []))
    request_stats(m, samples["request.total"], samples["request.uncovered"])
    cache_stats(m, int(sum(samples["hits"])), int(sum(samples["misses"])))
    return m


def join_daemon_spans(samples, doc, spans_path, t):
    """Pool the client's spans and the daemon's --trace-file spans of one
    traced pass.  The daemon's server.queue_wait and server.request spans
    (children: server.cache, server.coalesce_wait, mce.solve, server.write)
    are matched to requests by trace id.  Client and daemon share one CPU,
    so a daemon span can stay open while the client already runs; every
    daemon span is clipped to its request's client window first."""
    spans = {}
    with open(spans_path) as f:
        for line in f:
            s = json.loads(line)
            tid = s.get("attrs", {}).get("trace")
            if s.get("type") == "span" and tid:
                spans.setdefault(tid, []).append(
                    (s["name"], s["start_s"], s["start_s"] + s["dur_s"]))
    base = doc["base_s"]
    for (a, b, c), tid in zip(doc["rows"], doc["ids"]):
        if tid not in spans:
            t.check(False, "serve-hot traced: response without daemon spans")
            continue
        pool(samples, "protocol.write_frame", [b - a])
        pool(samples, "protocol.read_wait", [c - b])
        pool(samples, "request.total", [c - a])
        a, b, c = base + a, base + b, base + c
        by = {}
        for name, s, e in spans[tid]:
            by.setdefault(name, []).append((max(s, a), min(e, c)))
        dur = lambda *names: sum(max(0.0, e - s) for n in names for s, e in by.get(n, []))
        pool(samples, "request.uncovered", [(c - a) - union_length(
            [(a, b)] + by.get("server.queue_wait", []) + by.get("server.request", []))])
        pool(samples, "daemon.queue_wait", [dur("server.queue_wait")])
        pool(samples, "daemon.request", [dur("server.request") - dur(
            "server.cache", "server.coalesce_wait", "mce.solve", "server.write")])
        pool(samples, "daemon.write", [dur("server.write")])
        pool(samples, "service.answer", [dur("server.cache", "server.coalesce_wait",
                                             "mce.solve")])
        pool(samples, "mce.solve", [e - s for s, e in by.get("mce.solve", [])])


WORKLOADS = {
    "census-s16": census_s16,
    "closure-s8": closure_s8,
    "batch-s8": batch_s8,
    "serve-hot": serve_hot,
}


# ---------------------------------------------------------------------------


def build(trace):
    targets = ["./bin/qsynth.exe"] + (["./perfbench/tracer/tracer.exe"] if trace else [])
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", *targets], env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSONL file")
    a = ap.parse_args()

    for needed in ("dune-project", "bin/qsynth.ml", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail_setup(f"{needed} not found: run from the root of a qsynth checkout")
    declared = declared_metrics(a.trace)
    build(a.trace)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # One CPU for the benchmark and every process it starts: a lock-step
    # round trip between two cores measured ~30% slower and far less
    # steadily than on one, and pinning removes migrations from censuses.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    t = Tally()
    try:
        values = WORKLOADS[a.workload](a.seed, a.seconds, a.trace == 1, t)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for err in t.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    result = {"correct": t.failed == 0 and t.attempted > 0,
              "attempted": t.attempted, "failed": t.failed, "metrics": metrics}
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, "result": result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
