#!/usr/bin/env python3
"""Build the e9perf benchmark and `e9patchd` from source, then run it.

Run from the repository root:

    python3 e9perf/run.py --workload chrome-a1|table1-a2|daemon-mix \
        --seed N --seconds S --trace 0|1 [--tiny]

Cargo output goes to stderr; the benchmark's last stdout line is its
JSON result. Build artifacts go to $CARGO_TARGET_DIR (default
`.bench_build`); spans and daemon sockets go to `e9perf/out/`.

The benchmark runs with glibc malloc told to keep the memory it frees
(no mmap for large blocks, no trimming of the heap). A multi-GiB rewrite
would otherwise hand its memory back to the kernel after every op and
fault it in again in the next, and on a VM that reports free pages to
its host the cost of those faults follows the host's load, not the
program.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("e9perf: run from the repository root (no Cargo.toml and crates/ here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("e9perf", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "e9proto", "--bin", "e9patchd"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("e9perf: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967296"
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "e9perf")] + sys.argv[1:] + [
        "--daemon", os.path.join(release, "e9patchd"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
