#!/usr/bin/env python3
"""Build and run the repository benchmark (see e2ebench/README.md).

    python3 e2ebench/run.py --workload offline|serve --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --test      # unit tests of the benchmark itself

Run from the repository root. The first run configures and builds the
gaplan libraries, gaplan_router, gaplan_worker and the e2ebench driver into
.bench_build/ (Release); later runs only re-check the build. The driver's
last stdout line is the result object; the line before it is the detailed
report (host block, sample counts, per-window tables, span totals).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures (once) and builds `targets`; build logs go to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 2)]
    for t in targets:
        cmd += ["--target", t]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def source_sha():
    """The git commit, or (outside a git checkout) a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def slo_ms(spec, workload):
    """The latency limit the workload's `why` fixes ("... slo 100 ms ...")."""
    for w in spec["workloads"]:
        if w["name"] == workload:
            m = re.search(r"slo (\d+(?:\.\d+)?) ms", w["why"])
            if not m:
                fail("BENCHMARK.json gives workload %s no 'slo <N> ms'" % workload)
            return m.group(1)
    fail("unknown workload %r" % workload)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        build(["e2ebench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "e2ebench_test")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    spec = load_spec()
    limit = slo_ms(spec, args.workload)
    build(["e2ebench"])
    env = dict(os.environ, E2EBENCH_SOURCE_SHA=source_sha())
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--slo-ms", limit,
           "--bin-dir", os.path.join(BUILD, "gaplan", "examples")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("driver printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail("driver metrics do not match BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(declared.items())))
    print(lines[-2])
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
