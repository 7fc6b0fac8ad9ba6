#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cust-batch --seed 1 --seconds 20 --trace 0

The binary is built in release mode, offline, into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root). Cargo's output goes to
stderr, so the last line on stdout is the benchmark's JSON result. The
DCD_SCALE, DCD_THREADS and DCD_CHUNK_ROWS knobs are removed from the
environment: the benchmark fixes its sizes, pool width and chunk size
itself, and the values it ran with are printed in its host line.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def main() -> int:
    env = dict(os.environ)
    for knob in ("DCD_SCALE", "DCD_THREADS", "DCD_CHUNK_ROWS"):
        env.pop(knob, None)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    run = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
