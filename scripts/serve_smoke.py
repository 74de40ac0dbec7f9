#!/usr/bin/env python3
"""Serve-mode smoke: drive `t1map --serve` with a JSONL script of mixed
generator/BLIF jobs (with repeats) and assert response ordering, cache
hit/miss counters, and repeat-determinism of the statistics.

Two transports:

  serve_smoke.py PATH/TO/t1map [extra t1map flags...]
      Stream mode (stdin/stdout pipe), memory tier only — the historical
      smoke, assertions unchanged.

  serve_smoke.py --socket [--warm-binary WARM] PATH/TO/t1map [flags...]
      Unix-socket mode with a persistent --cache-dir.  Runs the same jobs,
      then SIGTERMs the server mid-connection (graceful drain), restarts it
      on the same cache directory, and asserts every job is served as a
      warm bit-identical disk hit.  With --warm-binary the restart runs
      WARM instead, so a directory one build wrote is served by another.
"""
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


BLIF = (".model smoke\n.inputs a b c\n.outputs f\n"
        ".names a b t\n11 1\n.names t c f\n10 1\n.end\n")

JOBS = [
    {"id": 1, "gen": "adder16"},
    {"id": 2, "gen": "mul8", "config": "nphi", "cec": False},
    {"id": 3, "gen": "adder16"},                   # repeat of 1 -> hit
    {"id": 4, "blif": BLIF, "verify_rounds": 0},
    {"id": 5, "gen": "adder16"},                   # repeat of 1 -> hit
    {"id": 6, "blif": BLIF, "verify_rounds": 0},   # repeat of 4 -> hit
    {"id": 7, "gen": "voter25", "cec": False},
]
COLD_CACHED = [False, False, True, False, True, True, False]
REPEATS = [(2, 0), (4, 0), (5, 3)]  # (repeat index, original index)
STATS = {"id": 99, "cmd": "stats"}
QUIT = {"id": 100, "cmd": "quit"}


def check_flow_responses(flows, jobs):
    assert [f["id"] for f in flows] == [j["id"] for j in jobs], \
        f"response order: {[f['id'] for f in flows]}"
    assert all(f["ok"] for f in flows), "every response must be ok"
    for repeat, of in REPEATS:
        assert flows[repeat]["stats"] == flows[of]["stats"], \
            f"repeat {repeat} stats drifted from {of}"
    assert flows[0]["cec"] == "equivalent", flows[0]
    assert flows[1]["cec"] == "skipped", flows[1]


def tier(stats, name):
    matches = [t for t in stats["cache"]["tiers"] if t["name"] == name]
    assert len(matches) == 1, stats["cache"]["tiers"]
    return matches[0]


def run_stream(t1map, extra):
    script = "".join(json.dumps(j) + "\n" for j in JOBS + [STATS])
    proc = subprocess.run([t1map, "--serve"] + extra, input=script,
                          capture_output=True, text=True, check=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]

    assert len(lines) == len(JOBS) + 1, f"{len(lines)} responses"
    check_flow_responses(lines[:-1], JOBS)
    assert [f["cached"] for f in lines[:-1]] == COLD_CACHED

    stats = lines[-1]["serve"]
    cache = stats["cache"]
    # 4 unique (circuit, config) keys; 3 repeats served from the cache.
    assert cache["insertions"] == 4, cache
    assert cache["hits"] == 3, cache
    assert cache["entries"] == 4, cache
    assert stats["errors"] == 0, stats
    print("serve smoke ok (stream):", json.dumps(stats))
    return 0


class SocketClient:
    """Blocking line-oriented client for a Unix-domain serve socket."""

    def __init__(self, path, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(path)
                break
            except OSError:
                self.sock.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        self.sock.settimeout(timeout_s)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def ask(self, jobs):
        payload = "".join(json.dumps(j) + "\n" for j in jobs)
        self.sock.sendall(payload.encode())
        return [json.loads(self.reader.readline()) for _ in jobs]

    def expect_eof(self):
        tail = self.reader.readline()
        assert tail == "", f"expected EOF, got {tail!r}"

    def close(self):
        self.reader.close()
        self.sock.close()


def start_server(t1map, sock_path, cache_dir, extra):
    return subprocess.Popen(
        [t1map, "--serve", "--serve-listen", "unix:" + sock_path,
         "--cache-dir", cache_dir] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def run_socket(t1map, extra, warm_t1map):
    tmp = tempfile.mkdtemp(prefix="t1map_smoke_")
    sock_path = os.path.join(tmp, "serve.sock")
    cache_dir = os.path.join(tmp, "cache")

    # --- Cold run: populate the disk tier, then SIGTERM mid-connection. ---
    proc = start_server(t1map, sock_path, cache_dir, extra)
    try:
        client = SocketClient(sock_path)
        flows = client.ask(JOBS)
        check_flow_responses(flows, JOBS)
        assert [f["cached"] for f in flows] == COLD_CACHED

        stats = client.ask([STATS])[0]["serve"]
        assert stats["cache"]["insertions"] == 4, stats["cache"]
        assert stats["cache"]["hits"] == 3, stats["cache"]
        assert tier(stats, "memory")["entries"] == 4, stats["cache"]
        disk = tier(stats, "disk")
        assert disk["entries"] == 4, disk
        assert disk["recovered_entries"] == 0, disk
        assert stats["errors"] == 0, stats

        # Kill-and-restart: graceful drain must hand this client an EOF.
        proc.send_signal(signal.SIGTERM)
        client.expect_eof()
        client.close()
        assert proc.wait(timeout=30) == 0, proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # --- Warm run: same cache dir, every job is a bit-identical disk hit. ---
    proc = start_server(warm_t1map, sock_path, cache_dir, extra)
    try:
        client = SocketClient(sock_path)
        warm = client.ask(JOBS)
        check_flow_responses(warm, JOBS)
        assert all(f["cached"] for f in warm), [f["cached"] for f in warm]
        assert all(f["ms"] == 0 for f in warm), [f["ms"] for f in warm]
        for cold_f, warm_f in zip(flows, warm):
            for key in ("design", "status", "cec", "input", "stats"):
                assert warm_f[key] == cold_f[key], \
                    f"warm response drifted on {key!r}: {warm_f}"

        stats = client.ask([STATS])[0]["serve"]
        disk = tier(stats, "disk")
        assert disk["recovered_entries"] == 4, disk
        assert disk["recovered_truncated_bytes"] == 0, disk
        assert disk["hits"] == 4, disk                     # one per unique key
        assert tier(stats, "memory")["hits"] == 3, stats   # repeats, promoted
        assert tier(stats, "memory")["entries"] == 4, stats
        assert stats["cache"]["hits"] == 7, stats["cache"]
        assert stats["cache"]["insertions"] == 0, stats["cache"]
        assert stats["errors"] == 0, stats

        quit_resp = client.ask([QUIT])[0]
        assert quit_resp.get("quit") is True, quit_resp
        client.expect_eof()
        client.close()
        assert proc.wait(timeout=30) == 0, proc.returncode
        print("serve smoke ok (socket+restart):", json.dumps(stats))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return 0


def main() -> int:
    argv = sys.argv[1:]
    use_socket = False
    warm_t1map = None
    if argv and argv[0] == "--socket":
        use_socket = True
        argv = argv[1:]
        if argv[:1] == ["--warm-binary"] and len(argv) > 2:
            warm_t1map, argv = argv[1], argv[2:]
    if not argv or argv[0] == "--warm-binary":
        print(__doc__, file=sys.stderr)
        return 2
    t1map, extra = argv[0], argv[1:]
    if use_socket:
        return run_socket(t1map, extra, warm_t1map or t1map)
    return run_stream(t1map, extra)


if __name__ == "__main__":
    sys.exit(main())
