#!/usr/bin/env python3
"""Rewrites perfbench/inputs.sha256, the frozen digests of the
generated inputs.

    python3 perfbench/freeze_inputs.py [--seeds 0-199]

Run from the root of the source tree. Builds the harness like run.py,
generates every workload's inputs for each seed and records their
sha256. run.py refuses a seed whose freshly generated inputs no longer
match, so a change to src/workload or to a printer cannot silently
change what the benchmark measures; refresh this file in a change of its
own when that is intended.
"""

import argparse
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-199")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    root = os.getcwd()
    exe = run.build(root, os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    if exe is None:
        return 1
    lines = []
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        path = os.path.join(tmp, "inputs.txt")
        for w in run.WORKLOADS:
            for s in seeds:
                subprocess.run([exe, "gen", "--workload", w, "--seed", str(s),
                                "--out", path], check=True)
                lines.append("%s %d %s\n" % (w, s, run.file_sha256(path)))
    with open(os.path.join(HERE, "inputs.sha256"), "w") as f:
        f.writelines(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
