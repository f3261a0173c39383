#!/usr/bin/env python3
"""End-to-end benchmark of the analysis service.

Run from the root of a source tree:

    python3 perfbench/run.py --workload small_checks --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/harness, Release) against the tree's
library sources, generates the workload's inputs for the seed as text,
checks them against the frozen digests in perfbench/inputs.sha256, runs
the workload and prints, as the last line of standard output, one JSON
record: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.

Options beyond the four above:
    --inputs FILE   read frozen inputs instead of generating them (the
                    A/B script passes the same file to both sides)
    --build-dir DIR build directory (default: $CARGO_TARGET_DIR, else
                    .bench_build)

Exit codes: 0 success; 1 a failed op or wrong answer, a failed build,
changed inputs or a malformed result; 2 usage or not a source tree.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["small_checks", "repeat_checks", "heavy_checks", "sessions"]
# A run (set-up, timed phase, checks) must finish well inside 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the library sources and build files the harness
    compiles, so results are tied to the exact tree measured."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for top in ("src", os.path.join("perfbench", "harness")):
        for d, _, files in os.walk(os.path.join(root, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def revision(root):
    git = shutil.which("git")
    if git and os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run([git, "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "none"


def build(root, build_dir):
    """Configures and builds the harness; build output goes to stderr."""
    harness_build = os.path.join(build_dir, "harness")
    cmd = ["cmake", "-S", os.path.join(root, "perfbench", "harness"),
           "-B", harness_build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(harness_build, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (cmd, ["cmake", "--build", harness_build, "-j", jobs]):
        r = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("build failed: " + " ".join(step))
            return None
    exe = os.path.join(harness_build, "perfbench_harness")
    return exe if os.path.exists(exe) else None


def frozen_digests():
    table = {}
    path = os.path.join(HERE, "inputs.sha256")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 3:
                    table[(parts[0], parts[1])] = parts[2]
    return table


def file_sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--inputs")
    ap.add_argument("--build-dir")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run from the root of a source tree (no CMakeLists.txt/src here)")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(args.build_dir or os.environ.get(
        "CARGO_TARGET_DIR") or ".bench_build")
    exe = build(root, build_dir)
    if exe is None:
        return 1

    # Inputs: generated once per run as text, checked against the frozen
    # digest of (workload, seed), then read back by the harness.
    inputs = args.inputs
    if inputs is None:
        inputs_dir = os.path.join(build_dir, "inputs")
        os.makedirs(inputs_dir, exist_ok=True)
        inputs = os.path.join(inputs_dir,
                              "%s-%d.txt" % (args.workload, args.seed))
        r = subprocess.run([exe, "gen", "--workload", args.workload,
                            "--seed", str(args.seed), "--out", inputs])
        if r.returncode != 0:
            log("input generation failed")
            return 1
    digest = file_sha256(inputs)
    want = frozen_digests().get((args.workload, str(args.seed)))
    if args.inputs is None and want is not None and want != digest:
        log("inputs of %s seed %d changed (sha256 %s, frozen %s): a change "
            "to src/workload or a printer moved what this benchmark "
            "measures; refresh perfbench/inputs.sha256 in a change of its "
            "own" % (args.workload, args.seed, digest, want))
        return 1

    src = source_digest(root)
    rev = revision(root)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--inputs", os.path.relpath(inputs, root), "--revision", rev]
    if args.trace == "1":
        # One file per workload, overwritten by its next traced run, so
        # repeated runs do not pile up traces of ~50 MB each.
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    print("# provenance-run " + json.dumps({
        "revision": rev, "source_sha256": src, "inputs_sha256": digest,
        "nproc": os.cpu_count()}))
    if not lines:
        log("harness printed no result (exit %d)" % r.returncode)
        return 1
    try:
        record = json.loads(lines[-1])
    except ValueError:
        log("harness result is not JSON: " + lines[-1][:200])
        return 1

    # A failed op (an error, a refusal or a wrong answer) fails the run.
    ok = (r.returncode == 0 and record.get("correct") is True
          and record.get("failed") == 0)
    if record.get("failed"):
        log("%s of %s ops failed" % (record.get("failed"),
                                     record.get("attempted")))
    # heavy_checks: verdicts and node counts must repeat across runs of
    # the same tree, seed and worker count.
    for l in lines:
        if l.startswith("# heavy-reference ") and args.inputs is None:
            expect_dir = os.path.join(build_dir, "expect")
            os.makedirs(expect_dir, exist_ok=True)
            path = os.path.join(expect_dir, "heavy-%s-%d-%d.txt" % (
                src[:16], args.seed, os.cpu_count() or 1))
            ref = l[len("# heavy-reference "):]
            if os.path.exists(path):
                with open(path) as f:
                    if f.read() != ref:
                        log("heavy_checks verdicts or node counts differ "
                            "from an earlier run of this tree and seed")
                        record["correct"] = False
                        ok = False
            else:
                with open(path, "w") as f:
                    f.write(ref)

    # The record must carry exactly the metrics BENCHMARK.json names.
    key = "per_layer" if args.trace == "1" else "end_to_end"
    want_metrics = {m["name"]: m["unit"] for m in spec[key]}
    got = record.get("metrics", {})
    missing = sorted(set(want_metrics) - set(got))
    wrong_unit = sorted(n for n in want_metrics
                        if n in got and got[n].get("unit") != want_metrics[n])
    if missing or wrong_unit:
        log("result lacks metrics %s or has wrong units for %s"
            % (missing, wrong_unit))
        ok = False
    record["metrics"] = {n: got[n] for n in want_metrics if n in got}
    print(json.dumps(record))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
