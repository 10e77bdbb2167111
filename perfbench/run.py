#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The dune build's own output goes to stderr, so the benchmark's last
stdout line stays its JSON result. The exit code is the benchmark's
(non-zero on a wrong verdict, a vacuous scope or a failed build).
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def source_digest():
    """MD5 over the library and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    h = hashlib.md5()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a source checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env = dict(os.environ, PERFBENCH_SOURCE=source_digest(),
               PERFBENCH_COMMIT=git_commit())
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
