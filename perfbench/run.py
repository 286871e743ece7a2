#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 10 --trace 0

Every build product, cache and output stays under .bench_build in the
repository root (CARGO_TARGET_DIR, when set, names that directory). A failed
build exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(build, "out")
    return subprocess.run([binary] + sys.argv[1:] + ["--out", out], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
