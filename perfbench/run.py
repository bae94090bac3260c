#!/usr/bin/env python3
"""Build the benchmark and oocd from source, then run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 35 --trace 0

Arguments are passed on to the perfbench binary. Binaries, the Go build
cache and span traces go under $CARGO_TARGET_DIR (default .bench_build),
so a run reads and writes only inside the checkout. The last line of
stdout is the run's JSON result; a failed build exits non-zero without
printing one.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, out)
    env = dict(os.environ)
    # Keep the toolchain's caches and config inside the checkout and
    # never reach for the network: the module has no dependencies.
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    bench = os.path.join(out, "perfbench")
    oocd = os.path.join(out, "oocd")
    builds = [
        (os.path.join(ROOT, "perfbench"), bench, "."),
        (ROOT, oocd, "./cmd/oocd"),
    ]
    for cwd, target, pkg in builds:
        done = subprocess.run(["go", "build", "-o", target, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: building %s failed" % pkg, file=sys.stderr)
            return done.returncode or 1
    args = [bench] + sys.argv[1:] + ["-oocd", oocd, "-trace-dir", os.path.join(out, "traces")]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
