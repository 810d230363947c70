#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload linerate --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's sources
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with
the Go build cache, temporary files and Go's user configuration kept
there too, and then run in place of this process with the given
arguments. Its standard output passes through unchanged; the last line
is the JSON result. The exit code is the program's, or 2 when the build
fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = os.path.join(build, "perfbench")
    for d in ("gocache", "gotmp", "gopath", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOTOOLCHAIN": "local",
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "gotmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOPROXY": "off",
    })
    binary = os.path.join(out, "perfbench")
    build_cmd = ["go", "build", "-o", binary, "."]
    if subprocess.run(build_cmd, cwd=here, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Replace this process with the benchmark, so no child outlives it.
    os.chdir(root)
    os.execve(binary, [binary, *sys.argv[1:], "--out", out], env)


if __name__ == "__main__":
    sys.exit(main())
