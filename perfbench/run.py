#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild only what changed. The benchmark's stdout is passed through; its
last line is the result object.

On top of the benchmark's own checks, this script remembers each run's
solution digest in the build directory, keyed by the workload, seed,
window, trace flag and a hash of the sources (src/ and perfbench/), and
marks a run incorrect when a repeat of the same code with the same
arguments produced different solution bits.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("burst-tenants", "closed-large", "timestep")
# A run must end within 180 s; the build check before it takes seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, stdout):
    """Run cmd to completion; on a timeout, or when this script is
    terminated, kill it and wait for it to end. Returns (code, stdout)."""
    with subprocess.Popen(cmd, stdout=stdout, text=True) as p:
        try:
            out, _ = p.communicate(timeout=timeout)
            return p.returncode, out
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "solve", "service.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "serve_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if code != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(bdir, "serve_bench")


def source_hash():
    """Hash of every file under src/ and perfbench/: the code's identity."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def remember(bdir, ctx, result, args, sources):
    """Fail a run whose solution bits differ from an earlier run of the
    same code with the same arguments."""
    path = os.path.join(bdir, "digests.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    key = f"{args.workload}:{args.seed}:{args.seconds!r}:{args.trace}:{sources}"
    digest = ctx["solution_digest"]
    if seen.get(key, digest) != digest:
        print(f"perfbench: solution digest {digest} differs from {seen[key]} "
              f"of an earlier run of the same code and arguments",
              file=sys.stderr)
        result["correct"] = False
    seen.setdefault(key, digest)
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)


def main():
    # Terminated from outside: unwind, so run() stops the child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    sources = source_hash()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = out.splitlines()
    if code != 0 and (not lines or not lines[-1].startswith("{")):
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}", 1)
    try:
        result = json.loads(lines[-1])
        ctx = json.loads(lines[-2])["context"]
    except (IndexError, ValueError, KeyError):
        sys.stdout.write(out)
        fail("benchmark printed no result", 1)
    for line in lines[:-1]:
        print(line)
    remember(bdir, ctx, result, args, sources)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
