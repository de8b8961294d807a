#!/usr/bin/env python3
"""Build and run ch-bench, the end-to-end build benchmark.

Run from the repository root:

    python3 chbench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0

--workload all runs every workload in turn, each in its own process, and
exits non-zero if any of them does. Every other argument is passed to the
benchmark binary unchanged.

The binary is built from source into .bench_build/ (or $CARGO_TARGET_DIR
when set), with the Go build cache and temporary files kept there too, so
the benchmark reads and writes only inside the checkout. Without the
repository's Go sources next to chbench/ the build fails and the script
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

WORKLOADS = ["cli-cold", "cli-warm", "daemon-open"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build(root, out_dir):
    bench_dir = os.path.join(root, "chbench")
    exe = os.path.join(out_dir, "ch-bench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOTMPDIR": os.path.join(out_dir, "tmp"),
        "TMPDIR": os.path.join(out_dir, "tmp"),
        "GOFLAGS": "",
        "XDG_CONFIG_HOME": os.path.join(out_dir, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", exe, "."], cwd=bench_dir, env=env,
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        return None
    return exe


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("ch-bench: no Go module at %s: run from a full checkout" % root, file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    try:
        exe = build(root, out_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("ch-bench: build failed: %s" % e, file=sys.stderr)
        return 2
    if exe is None:
        print("ch-bench: build failed", file=sys.stderr)
        return 2

    args = list(argv)
    names = None
    for i, a in enumerate(args):
        if a == "--workload" and i + 1 < len(args) and args[i + 1] == "all":
            names = WORKLOADS
            del args[i:i + 2]
            break
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    work = ["--work", os.path.join(out_dir, "chbench")]
    status = 0
    for cmd in ([exe, "--workload", n] + args + work for n in names) if names else [[exe] + args + work]:
        try:
            code = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("ch-bench: %s timed out" % " ".join(cmd[1:3]), file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
