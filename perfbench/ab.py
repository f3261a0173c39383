#!/usr/bin/env python3
"""Interleaved A/B of two revisions on this benchmark.

    python3 perfbench/ab.py --base REV [--head REV] --workdir DIR \\
        [--workloads small_checks,heavy_checks] [--pairs 10] [--seeds 1]

Each side is a source tree extracted with `git archive REV` into
DIR/<side>/src (the head defaults to the working tree, copied from
`git ls-files`). Both sides get this working tree's perfbench/ and
BENCHMARK.json, so the benchmark code is identical, and both read the
same input bytes: a build of the working tree (DIR/gen) generates them
once per (workload, seed) into DIR/inputs. Every run lasts the
run_seconds of BENCHMARK.json.

Pairs alternate which side runs first. For every (workload, metric)
the report gives each side's median and quartiles over the pairs and
the share of pairs each side won (ties count for neither). A change is
called a gain or a loss only when one side wins at least nine tenths
of the pairs and the medians differ by more than the base side's own
quartile spread; otherwise it is "no change" when the medians differ
by less than that spread, else "unresolved". A side that fails more
ops (failed / attempted) than the other never wins: such rows say
"head fails more ops" or "base fails more ops". A wrong answer on
either side stops the comparison.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def extract(rev, dest):
    """Source tree of `rev` (None: the working tree) at dest."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev is None:
        files = subprocess.run(
            ["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=REPO,
            check=True, capture_output=True).stdout.split(b"\0")
        for f in files:
            if not f:
                continue
            src = os.path.join(REPO, f.decode())
            if os.path.isfile(src):
                dst = os.path.join(dest, f.decode())
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                shutil.copy2(src, dst)
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=REPO,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    # Identical benchmark code on both sides.
    bench = os.path.join(dest, "perfbench")
    if os.path.exists(bench):
        shutil.rmtree(bench)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(REPO, "BENCHMARK.json"), dest)


def run_side(side_dir, workload, seed, seconds, inputs):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--inputs", inputs,
           "--build-dir", os.path.join(side_dir, ".bench_build")]
    r = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        record = None
    # Failed ops exit non-zero but still report; they are compared
    # below. A wrong answer or a missing record ends the comparison.
    if record is None or record.get("correct") is not True:
        log("run failed in %s (exit %d):\n%s" % (side_dir, r.returncode,
                                                 r.stderr[-2000:]))
        return None
    return record


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0])
    q = statistics.quantiles(v, n=4)
    return (q[0], statistics.median(v), q[2])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workloads", default="small_checks,repeat_checks,"
                    "heavy_checks,sessions")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workdir = os.path.abspath(args.workdir)
    sides = {"base": os.path.join(workdir, "base", "src"),
             "head": os.path.join(workdir, "head", "src")}
    extract(args.base, sides["base"])
    extract(args.head, sides["head"])
    # The inputs come from this working tree's generators, so both sides
    # read the same bytes even where their generators or printers differ.
    gen_dir = os.path.join(workdir, "gen", "src")
    extract(None, gen_dir)

    # Build every tree once (a throwaway run builds the harness).
    inputs_dir = os.path.join(workdir, "inputs")
    os.makedirs(inputs_dir, exist_ok=True)
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    for name, d in list(sides.items()) + [("gen", gen_dir)]:
        r = subprocess.run(["python3", "perfbench/run.py", "--workload",
                            "sessions", "--seed", "0", "--seconds", "0.1",
                            "--trace", "0", "--build-dir",
                            os.path.join(d, ".bench_build")],
                           cwd=d, capture_output=True, text=True)
        exe = os.path.join(d, ".bench_build", "harness", "perfbench_harness")
        if not os.path.exists(exe):
            rev = {"base": args.base, "head": args.head}.get(name)
            log("%s tree (%s) does not build:\n%s" % (
                name, rev or "worktree", r.stderr[-3000:]))
            return 1
    gen_exe = os.path.join(gen_dir, ".bench_build", "harness",
                           "perfbench_harness")
    inputs = {}
    for w in workloads:
        for s in seeds:
            path = os.path.join(inputs_dir, "%s-%d.txt" % (w, s))
            subprocess.run([gen_exe, "gen", "--workload", w, "--seed", str(s),
                            "--out", path], check=True)
            inputs[(w, s)] = path

    results = {w: {"base": [], "head": []} for w in workloads}
    counts = {w: {"base": [0, 0], "head": [0, 0]} for w in workloads}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for w in workloads:
            s = seeds[i % len(seeds)]
            pair = {}
            for side in order:
                pair[side] = run_side(sides[side], w, s, seconds, inputs[(w, s)])
            if pair["base"] is None or pair["head"] is None:
                return 1
            for side in ("base", "head"):
                results[w][side].append(pair[side]["metrics"])
                counts[w][side][0] += pair[side]["failed"]
                counts[w][side][1] += pair[side]["attempted"]
            log("pair %d/%d %s done" % (i + 1, args.pairs, w))

    print("%-14s %20s %20s" % ("workload", "base failed share",
                                "head failed share"))
    failed_share = {}
    for w in workloads:
        failed_share[w] = {s: counts[w][s][0] / max(1, counts[w][s][1])
                           for s in ("base", "head")}
        print("%-14s %20.3g %20.3g" % (w, failed_share[w]["base"],
                                       failed_share[w]["head"]))
    print("%-14s %-14s %28s %28s %7s %6s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
        "delta", "head", "base", "verdict"))
    for w in workloads:
        for m, direction in better.items():
            b = [r[m]["value"] for r in results[w]["base"] if m in r]
            h = [r[m]["value"] for r in results[w]["head"] if m in r]
            if not b or not h:
                continue
            sign = 1 if direction == "higher" else -1
            head_wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
            base_wins = sum(1 for x, y in zip(b, h) if sign * (x - y) > 0)
            bq, hq = quartiles(b), quartiles(h)
            spread = bq[2] - bq[0]
            diff = hq[1] - bq[1]
            n = len(b)
            fs = failed_share[w]
            if head_wins >= 0.9 * n and abs(diff) > spread:
                verdict = ("gain" if fs["head"] <= fs["base"]
                           else "head fails more ops")
            elif base_wins >= 0.9 * n and abs(diff) > spread:
                verdict = ("loss" if fs["base"] <= fs["head"]
                           else "base fails more ops")
            elif abs(diff) <= spread:
                verdict = "no change"
            else:
                verdict = "unresolved"
            delta = diff / bq[1] * 100 if bq[1] else 0.0
            print("%-14s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%+6.1f%% %5.0f%% %5.0f%%  %s" % (
                      w, m, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2], delta,
                      100.0 * head_wins / n, 100.0 * base_wins / n, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
