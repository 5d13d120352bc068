#!/usr/bin/env python3
"""Launch the repository benchmark.

Usage (from the root of a fasttrack checkout):

    python3 perfbench/run.py --workload run-kernel --seed 1 --seconds 20 --trace 0

Builds the Go harness in perfbench/ and runs it. Everything the run
writes -- the Go build cache, temporary files, binaries, inputs and span
dumps -- stays under .bench_build/perfbench in the checkout. The harness
prints the result as the last line of standard output; see README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# Building the harness into an empty build cache compiles the fasttrack
# packages it imports; later builds are cache hits.
BUILD_TIMEOUT_S = 600


def checkout_ok():
    try:
        with open(os.path.join(ROOT, "go.mod")) as f:
            first = f.readline().split()
    except OSError:
        return False
    return first == ["module", "fasttrack"] and os.path.isdir(os.path.join(ROOT, "cmd", "racedetect"))


def main():
    if not checkout_ok():
        print("perfbench: %s is not a fasttrack checkout (no go.mod for module fasttrack "
              "with cmd/racedetect); run the benchmark from inside one" % ROOT, file=sys.stderr)
        return 2
    dirs = {name: os.path.join(WORK, name) for name in ("gocache", "gomodcache", "tmp", "home")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"], GOMODCACHE=dirs["gomodcache"],
               TMPDIR=dirs["tmp"], GOTMPDIR=dirs["tmp"],
               HOME=dirs["home"], XDG_CONFIG_HOME=dirs["home"], XDG_CACHE_HOME=dirs["home"],
               GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off")
    harness = os.path.join(WORK, "bin", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", harness, "."], cwd=HERE, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: building the harness: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: building the harness failed", file=sys.stderr)
        return 2
    return subprocess.call([harness, "--root", ROOT, "--work", WORK] + sys.argv[1:], cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
