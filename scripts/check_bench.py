#!/usr/bin/env python3
"""Paired bench gate: fail when HEAD's t1map is slower than BASE's.

Runs both binaries itself, in ROUNDS rounds that alternate which side
runs first.  Within a round each circuit of the base's set is one
`t1map --bench --gen NAME BENCH_ARGS` run per side, so the two runs of
a pair are moments apart.  The near-duplicate set cannot be addressed
with --gen, so a round runs it whole per side (about 2 s), over
WHOLE_SET_ROUNDS rounds.  Every (circuit, stage) row reads a head/base
ratio of its `min_ms` per round, and the row fails when the median of
those ratios exceeds its bound: SLOW_BOUND for rows whose
base takes SLOW_MS or more, FAST_BOUND for rows of FLOOR_MS to SLOW_MS
and for every row of the near-duplicate set, whose whole-set rounds
spread far wider.  Rows below FLOOR_MS measure scheduler jitter and are
skipped, as is a stage the head no longer reports.  A failed run of
either binary fails the gate, and so does a base circuit the head
cannot run.

Usage:
  check_bench.py BASE_T1MAP HEAD_T1MAP -- BENCH_ARGS...

e.g. `check_bench.py base/t1map build/t1map -- --bench-set deep
--bench-runs 3 --no-cec --verify-rounds 0`.  Exits 0 when every row is
within its bound, else 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

ROUNDS = 50
WHOLE_SET_ROUNDS = 25
FLOOR_MS = 0.5
SLOW_MS = 2.0
FAST_BOUND = 1.25  # rows of FLOOR_MS to SLOW_MS; near-duplicate rows
SLOW_BOUND = 1.12  # rows of SLOW_MS and more


class RunFailed(Exception):
    pass


def bench(binary, args):
    """One `--bench` run; returns its JSON root."""
    cmd = [binary, "--bench", *args, "--bench-out", "-"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def split_set(args):
    """BENCH_ARGS without `--bench-set NAME`, and NAME (None if absent)."""
    rest, name = [], None
    it = iter(args)
    for arg in it:
        if arg == "--bench-set":
            name = next(it, None)
        else:
            rest.append(arg)
    return rest, name


def gate(base, head, bench_args):
    rest, set_name = split_set(bench_args)
    whole_set = set_name == "nearduplicate"
    sides = {"base": base, "head": head}
    # Warm-up, untimed: each binary's first run pays for loading it.  The
    # base's run also names the circuits the rounds compare.
    circuits = list(bench(base, bench_args)["circuits"])
    bench(head, bench_args)
    if whole_set:
        rounds, units = WHOLE_SET_ROUNDS, [bench_args]
    else:
        rounds, units = ROUNDS, [rest + ["--gen", name] for name in circuits]

    # samples[side][circuit][stage] = [min_ms per round]
    samples = {side: {} for side in sides}
    for r in range(rounds):
        order = ["base", "head"] if r % 2 == 0 else ["head", "base"]
        for args in units:
            for side in order:
                for name, entry in bench(sides[side], args)["circuits"].items():
                    rows = samples[side].setdefault(name, {})
                    for stage, sample in entry["stages"].items():
                        rows.setdefault(stage, []).append(sample["min_ms"])

    missing = [name for name in circuits if name not in samples["head"]]
    if missing:
        print(f"FAIL: base circuit(s) absent from the head's run: "
              f"{', '.join(missing)}")
        return 1

    failures, skipped = [], 0
    print(f"{'circuit':16s} {'stage':14s} {'base ms':>9s} {'head ms':>9s} "
          f"{'ratio':>6s} {'bound':>6s}")
    for name in circuits:
        for stage, base_ms in samples["base"][name].items():
            head_ms = samples["head"][name].get(stage)
            base_median = statistics.median(base_ms)
            if head_ms is None or base_median < FLOOR_MS:
                skipped += 1
                continue
            ratio = statistics.median(h / b for h, b in zip(head_ms, base_ms))
            tight = base_median >= SLOW_MS and not whole_set
            bound = SLOW_BOUND if tight else FAST_BOUND
            marker = ""
            if ratio > bound:
                failures.append(f"{name}/{stage} {ratio:.3f}x > {bound:.2f}x")
                marker = "  <-- REGRESSION"
            print(f"{name:16s} {stage:14s} {base_median:9.3f} "
                  f"{statistics.median(head_ms):9.3f} {ratio:6.3f} "
                  f"{bound:6.2f}{marker}")
    print(f"\n{rounds} rounds; skipped {skipped} rows below {FLOOR_MS} ms "
          f"or absent from the head")
    if failures:
        print(f"FAIL: {len(failures)} row(s) over their bound (median "
              f"head/base ratio):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("OK: every row within its bound")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="check_bench.py BASE_T1MAP HEAD_T1MAP -- BENCH_ARGS...")
    parser.add_argument("base", help="t1map built from the base commit")
    parser.add_argument("head", help="t1map built from the commit under test")
    parser.add_argument("bench_args", nargs="*",
                        help="t1map --bench flags, after --")
    args = parser.parse_args()

    start = time.monotonic()
    try:
        status = gate(args.base, args.head, args.bench_args)
    except RunFailed as err:
        print(f"FAIL: {err}")
        status = 1
    print(f"gate wall time {time.monotonic() - start:.1f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
