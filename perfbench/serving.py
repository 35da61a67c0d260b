"""serve-mixed: a closed-loop client mix against ``repro serve``.

Set-up warms a fresh store with a fixed sweep over small catalog
designs and boots the server as its own process with ``--jobs nproc``,
so flows run in the server's pooled workers and store hits are not
queued behind a flow holding the server's interpreter lock.  One
asyncio client then runs a closed loop (no think time) over a seeded
mix: mostly keys already in the store, some fresh keys (a flow run
plus a store write), and some fresh keys sent twice at once on two
connections, so that the second joins the first one's single flight.

The run's tree quality is that of the warm keys' records, so it does
not depend on how many fresh keys the run found time for.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from harness import ROOT, nproc, percentile, record_quality, summarize

#: Small catalog designs at a small scale (about 60-90 sinks each).
DESIGNS = ("s38584", "s38417", "s35932")
SCALE = 0.05
#: Flow seeds of the warm keys, the same on every run (the store holds
#: len(DESIGNS) * len(WARM_SEEDS) records before the client starts).
WARM_SEEDS = range(5)
#: Request mix, dealt in shuffled decks of ten requests: 7 store hits,
#: 1 fresh key, and 1 fresh key sent twice at once (a pair: one request
#: runs the flow, the other joins its single flight).  Independent
#: draws let a run's hit share wander with the seed, and the median
#: latency and throughput with it (1.8 vs 2.3 ms, repeatably, between
#: two seeds).  One client, not one per CPU: with two clients, two
#: flows often ran at once and the latencies measured the scheduler
#: (median-latency quartile spreads 0.20 and 0.28 over two ten-seed
#: series).
DECK = ("hit",) * 7 + ("fresh", "pair")
BOOT_TIMEOUT_S = 60.0
#: Each measured window follows a warm-up window on the same server,
#: whose replies are checked but not timed: in the first seconds after
#: boot the fresh flows took 330-440 ms against ~180 ms later, and
#: those few set the run's p99.
WARMUP_S = 3.0
#: A reply slower than this counts as a failed request.
REQUEST_TIMEOUT_S = 60.0


def warm_payloads() -> list[dict]:
    return [{"design": d, "scale": SCALE, "config": {"seed": s}}
            for d in DESIGNS for s in WARM_SEEDS]


class Mix:
    """The seeded request sequence of the client."""

    def __init__(self, seed: int, window: int):
        self.rng = random.Random(seed * 7919 + window)
        self.warm = warm_payloads()
        # flow seeds no warm key and no other window of the run uses
        self.fresh_next = 1_000_000 * (seed + 1) + 100_000 * window
        self.deck: list[str] = []

    def draw(self) -> tuple[str, dict]:
        """The next card: ("hit" | "fresh" | "pair", payload)."""
        if not self.deck:
            self.deck = list(DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "hit":
            return kind, self.rng.choice(self.warm)
        # designs in turn, so every run computes the same share of each
        payload = {"design": DESIGNS[self.fresh_next % len(DESIGNS)],
                   "scale": SCALE, "config": {"seed": self.fresh_next}}
        self.fresh_next += 1
        return kind, payload


# ----------------------------------------------------------------------
# A minimal HTTP/1.1 client (the server closes every connection)
# ----------------------------------------------------------------------
async def http(port: int, method: str, path: str, body: bytes = b"",
               on_line=None) -> tuple[int, bytes]:
    """One request; returns (status, body).  With ``on_line`` the
    chunked NDJSON body is delivered line by line as it arrives."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        if b"transfer-encoding: chunked" not in head.lower():
            return status, await reader.read()
        chunks = []
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                break
            chunk = await reader.readexactly(size + 2)
            chunks.append(chunk[:-2])
            if on_line is not None:
                on_line(chunk[:-2])
        return status, b"\n".join(chunks)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def start_server(store: str, workdir: str, jobs: int,
                 spans_out: str | None = None):
    """Boot ``repro serve --jobs <jobs>`` on an ephemeral port; returns
    (process, port) once ``/healthz`` answers.  With ``spans_out`` the
    server runs under the benchmark's layer wrappers and writes its
    spans there on shutdown."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONUNBUFFERED="1", TMPDIR=workdir)
    args = ["serve", "--store", store, "--port", "0", "--jobs", str(jobs)]
    if spans_out is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
               spans_out, *args]
    proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    try:
        port = None
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while port is None:
            line = proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError("repro serve exited before listening")
            if "listening on http://" in line:
                port = int(line.split("listening on http://")[1]
                           .split()[0].rsplit(":", 1)[1])
        while asyncio.run(http(port, "GET", "/healthz"))[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.02)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class ServeWorkload:
    def __init__(self):
        self.jobs = nproc()      # the server's --jobs

    def setup(self, args) -> dict:
        from repro.sweep import SweepStore, run_sweep, spec_from_dict

        store = os.path.join(args.workdir, "serve-store")
        warm = spec_from_dict({
            "name": "perfbench-warm", "designs": list(DESIGNS),
            "scales": [SCALE], "grid": {"seed": list(WARM_SEEDS)},
        })
        report = run_sweep(warm, SweepStore(store), jobs=1)
        if report.failed:
            raise RuntimeError(f"store warm-up: {report.failed} points failed")
        proc, port = start_server(store, args.workdir, self.jobs)
        return {"store": store, "proc": proc, "port": port}

    def teardown(self, state) -> None:
        if state.get("proc") is not None:
            stop_server(state["proc"])
            state["proc"] = None

    def measure(self, state, args) -> dict:
        warmup, samples, wall = self._window(state, args, 0, stream=False)
        rss = peak_rss_mb(state["proc"].pid)
        return self._outcome(samples, wall, rss, state["store"], warmup)

    def measure_traced(self, state, args, log) -> dict:
        """An untraced window on the plain server, then a traced one on
        a server started under the layer wrappers, with fresh keys
        streamed so queue waits can be read from event arrival times."""
        from tracing import by_name, layer_metrics

        _, plain, _ = self._window(state, args, 0, stream=False)
        self.teardown(state)
        spans_out = os.path.join(args.workdir, "serve-spans.json")
        state["proc"], state["port"] = start_server(
            state["store"], args.workdir, self.jobs, spans_out=spans_out)
        warmup, samples, wall = self._window(state, args, 1, stream=True)
        rss = peak_rss_mb(state["proc"].pid)
        _, body = asyncio.run(http(state["port"], "GET", "/metrics"))
        snapshot = json.loads(body)
        self.teardown(state)
        with open(spans_out, encoding="utf-8") as fh:
            spans = json.load(fh)
        out = self._outcome(samples, wall, rss, state["store"], warmup)
        out["layers"] = layer_metrics(snapshot)
        p50 = statistics.median(s["latency"] for s in samples)
        p50_plain = statistics.median(s["latency"] for s in plain)
        out["layers"].update({
            "obs.trace_overhead_frac": (p50 - p50_plain) / p50_plain,
            "quality.violations": out["quality"]["violations"]})
        extra = {}
        for source in ("cache", "computed", "coalesced"):
            lat = [s["latency"] for s in samples if s.get("source") == source]
            if lat:
                label = "hit" if source == "cache" else source
                extra[f"serve.{label}_p50_ms"] = (percentile(lat, 50) * 1e3,
                                                  "ms")
        waits = [s["queue_wait"] for s in samples
                 if s.get("queue_wait") is not None]
        if waits:
            extra["serve.queue_wait_ms"] = (percentile(waits, 50) * 1e3, "ms")
        rows = by_name(spans)
        for name in ("store.get", "store.put"):
            if name in rows:
                extra[f"{name}_ms"] = (
                    percentile(rows[name]["durations"], 50) * 1e3, "ms")
        out["layer_extra"] = extra
        out["spans"] = spans
        out["snapshot"] = snapshot
        return out

    def _window(self, state, args, window: int, stream: bool):
        """A warm-up window, then the measured window ``window`` of
        ``args.seconds``; returns (warm-up samples, samples, wall)."""
        warmup, _ = asyncio.run(self._loop(state["port"], args.seed,
                                           window + 2, WARMUP_S, stream))
        samples, wall = asyncio.run(self._loop(state["port"], args.seed,
                                               window, args.seconds, stream))
        return warmup, samples, wall

    async def _loop(self, port: int, seed: int, window: int, seconds: float,
                    stream: bool):
        """Run the closed loop for ``seconds``; returns samples and the
        wall time from the first send to the last reply."""
        mix = Mix(seed, window)
        samples: list[dict] = []
        start = time.perf_counter()
        while time.perf_counter() < start + seconds:
            kind, payload = mix.draw()
            copies = 2 if kind == "pair" else 1
            samples += await asyncio.gather(*(
                self._request(port, kind, payload, stream and kind != "hit")
                for _ in range(copies)))
        return samples, time.perf_counter() - start

    @staticmethod
    async def _request(port: int, kind: str, payload: dict,
                       stream: bool) -> dict:
        """One timed request; ``stream`` asks for NDJSON progress, whose
        ``queued`` and ``started`` arrival times give the queue wait."""
        body = dict(payload, stream=True) if stream else payload
        sample = {"kind": kind, "payload": payload}
        events: dict[str, float] = {}

        def on_line(line):
            events.setdefault(json.loads(line).get("event"),
                              time.perf_counter())

        t0 = time.perf_counter()
        try:
            status, reply = await asyncio.wait_for(http(
                port, "POST", "/v1/cts", json.dumps(body).encode(),
                on_line=on_line), REQUEST_TIMEOUT_S)
        except (OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError) as exc:
            status, reply = 0, repr(exc).encode()
        sample["latency"] = time.perf_counter() - t0
        sample["status"] = status
        sample["reply"] = reply
        if "queued" in events and "started" in events:
            sample["queue_wait"] = events["started"] - events["queued"]
        return sample

    def _outcome(self, samples, wall, rss, store, warmup) -> dict:
        """Timing over the measured ``samples``; every reply, warm-up
        included, is checked and counted."""
        problems = check_replies(warmup + samples, store)
        ok = [s for s in samples if not s.get("bad")]
        # a failed or refused request misses every latency limit
        lat = [s["latency"] if not s.get("bad") else wall for s in samples]
        summary = summarize(lat)
        quality = record_quality(warm_records(store))
        e2e = {
            "op_p50_ms": summary["p50"] * 1e3,
            "op_p99_ms": summary["p99"] * 1e3,
            "work_per_s": len(ok) / wall,
            "skew_ps": quality["skew_ps"],
            "latency_ps": quality["latency_ps"],
            "wirelength_um": quality["wirelength_um"],
            "buffers": quality["buffers"],
            "peak_rss_mb": rss,
        }
        n = len(samples)
        named = [("serve_p50_ms", e2e["op_p50_ms"], "ms", n),
                 ("serve_p99_ms", e2e["op_p99_ms"], "ms", n)]
        if summary["tail_q"] not in (None, 99.0):   # p99 is printed above
            named.append((f"serve_p{summary['tail_q']:g}_ms",
                          summary["tail"] * 1e3, "ms", n))
        named += [("serve_rps", e2e["work_per_s"], "1/s", n),
                  ("peak_rss_mb", rss, "MB", 1)]
        named += [(f"replies.{src}", sum(1 for s in ok if s["source"] == src),
                   "count", n) for src in ("cache", "computed", "coalesced")]
        return {
            "attempted": len(warmup) + n,
            "failed": sum(1 for s in warmup + samples if s.get("bad")),
            "problems": problems,
            "e2e": e2e,
            "quality": quality,
            "named": named,
        }


def warm_records(store: str) -> list[dict]:
    """The stored records of the warm keys (served bytes are checked
    against these files by ``check_replies``)."""
    from repro.serve.schema import parse_request

    records = []
    for payload in warm_payloads():
        path = os.path.join(store, "records",
                            f"{parse_request(payload).key}.json")
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def check_replies(samples: list[dict], store: str) -> list[str]:
    """Mark and describe every reply that breaks the serve contract:
    HTTP 200, an ok record, the key ``parse_request`` gives, and the
    same record bytes for every reply of one key (the stored bytes)."""
    from repro.serve.schema import parse_request
    from repro.sweep.store import canonical_json

    keys: dict[str, str] = {}
    seen: dict[str, str] = {}
    problems = []
    for s in samples:
        label = json.dumps(s["payload"], sort_keys=True)
        why = None
        if s["status"] != 200:
            why = f"HTTP {s['status']}: {s['reply'][:200]!r}"
        else:
            lines = s["reply"].splitlines()
            reply = json.loads(lines[-1])
            if reply.get("event") not in (None, "result"):
                why = f"stream ended with {reply.get('event')}"
            else:
                record = reply.get("record") or {}
                if label not in keys:
                    keys[label] = parse_request(s["payload"]).key
                data = canonical_json(record)
                if record.get("status") != "ok":
                    why = f"record status {record.get('status')!r}"
                elif reply.get("key") != keys[label]:
                    why = "reply key differs from parse_request(body).key"
                elif seen.setdefault(keys[label], data) != data:
                    why = "repeated key returned different record bytes"
                else:
                    s.update(key=keys[label], record=record,
                             source=reply.get("source"))
        if why is not None:
            s["bad"] = True
            problems.append(f"{label}: {why}")
    for key, data in seen.items():
        path = os.path.join(store, "records", f"{key}.json")
        with open(path, encoding="utf-8") as fh:
            if fh.read() == data + "\n":
                continue
        problems.append(f"{key[:12]}: served bytes differ from the store")
        for s in samples:
            if s.get("key") == key:
                s["bad"] = True
    return problems
