#!/usr/bin/env python3
"""Build hdltsd, dagen and the e2ebench load generator from this checkout, then run
one benchmark workload (or the harness self-test).

Run from the repository root:

    python3 e2ebench/run.py --workload sched-cybershake2k --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Every file the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, binaries, daemon state, spans and results.
The last line of standard output is the result as one JSON object.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    """Environment that keeps the Go toolchain offline and inside BUILD."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    return env


def build(env):
    """Build the three binaries; return False when any build fails."""
    targets = [
        (ROOT, "./cmd/hdltsd", "hdltsd"),
        (ROOT, "./cmd/dagen", "dagen"),
        (os.path.join(ROOT, "e2ebench"), ".", "e2ebench"),
    ]
    for cwd, pkg, name in targets:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            print(f"e2ebench: no go.mod in {cwd}; run from a full checkout", file=sys.stderr)
            return False
        out = os.path.join(BIN, name)
        proc = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr, timeout=850)
        if proc.returncode != 0:
            print(f"e2ebench: building {name} failed", file=sys.stderr)
            return False
    return True


def main():
    env = go_env()
    if not build(env):
        return 2
    bench = os.path.join(BIN, "e2ebench")
    args = [bench, "--hdltsd", os.path.join(BIN, "hdltsd"),
            "--dagen", os.path.join(BIN, "dagen"), "--work", BUILD] + sys.argv[1:]
    os.chdir(ROOT)
    os.execve(bench, args, env)


if __name__ == "__main__":
    sys.exit(main())
