#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, end to end.

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. It configures the repository with its own
build files plus perfbench/attach.cmake, which adds the benchmark's package
(Release, one build in .bench_build/wfd), refuses to time a build that is
not optimized or that carries sanitizer or coverage instrumentation, records
the run context, and runs the workload. The last line of standard output is
the JSON result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1 (which also writes a Perfetto trace and prints the tracing
overhead). Exit status is 0 only if every output check passed.

    python3 perfbench/run.py --selftest   # the benchmark's own tests

Workloads, metrics and their rationale: perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
TREE = BUILD / "wfd"
OUT = BUILD / "perfbench-out"
WORKLOADS = ("serve_fresh", "mc_check")
JOBS = "3"  # build parallelism: leave one of four vCPUs to the rest


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "w") as out:
        result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT)
    if result.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed ({result.returncode}): {' '.join(map(str, cmd))}")


def read_cache(build_dir):
    values = {}
    cache = Path(build_dir) / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def guard(cache):
    """Refuse builds whose timings would not describe the program."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo"):
        fail(f"refusing to time a {build_type or 'unset'} build "
             "(need Release or RelWithDebInfo)")
    if cache.get("WFD_SANITIZE", ""):
        fail(f"refusing to time a WFD_SANITIZE={cache['WFD_SANITIZE']} build")
    if cache.get("WFD_COVERAGE", "OFF").upper() not in ("OFF", "0", "FALSE", "NO", ""):
        fail("refusing to time a WFD_COVERAGE build")
    flags = " ".join(v for k, v in cache.items() if "FLAGS" in k)
    if "-fsanitize" in flags or "--coverage" in flags or "-fprofile-arcs" in flags:
        fail("refusing to time a build with sanitizer or coverage flags")


def build():
    """Configure (every call, so the cache never goes stale) and build the
    benchmark binary, its self-tests and wfd_serve; returns the cache."""
    BUILD.mkdir(exist_ok=True)
    run_logged(["cmake", "-S", ROOT, "-B", TREE, "-DCMAKE_BUILD_TYPE=Release",
                "-DCMAKE_PROJECT_wfdining_INCLUDE="
                + str(ROOT / "perfbench" / "attach.cmake")],
               BUILD / "configure.log")
    cache = read_cache(TREE)
    guard(cache)
    run_logged(["cmake", "--build", TREE, "-j", JOBS, "--target",
                "wfd_perfbench", "perfbench_selftest"], BUILD / "build.log")
    return cache


def source_digest():
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def context(cache):
    """Machine and build of this run; the binary's first output line adds
    the workload's thread, connection and CPU counts."""
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "CMAKE_BUILD_TYPE": cache.get("CMAKE_BUILD_TYPE", ""),
        "WFD_SANITIZE": cache.get("WFD_SANITIZE", ""),
        "WFD_COVERAGE": cache.get("WFD_COVERAGE", ""),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def conform(result, trace):
    """Order the binary's metrics as BENCHMARK.json lists them, in place.

    A per-layer metric of a layer the workload does not reach reads 0. A
    missing end-to-end metric, a unit that differs from the listed one, or
    a metric BENCHMARK.json does not list marks the result incorrect.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = dict(result["metrics"])
    metrics = {}
    problems = []
    for listed in bench["per_layer" if trace else "end_to_end"]:
        name, unit = listed["name"], listed["unit"]
        entry = got.pop(name, None)
        if entry is None:
            if not trace:
                problems.append(f"end-to-end metric {name} missing")
            entry = {"value": 0, "unit": unit}
        elif entry["unit"] != unit:
            problems.append(f"{name} in {entry['unit']}, listed in {unit}")
        metrics[name] = entry
    problems += [f"{name} is not listed in BENCHMARK.json" for name in got]
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    result["metrics"] = metrics
    if problems:
        result["correct"] = False
        result["failed"] = max(1, result["failed"])
    return not problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds is not None and not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in 1..3600")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    for needed in ("CMakeLists.txt", "src/serve/serve.hpp", "tests/vectors"):
        if not (ROOT / needed).exists():
            fail(f"no repository sources here ({ROOT / needed} is missing)")

    cache = build()
    if args.selftest:
        sys.exit(subprocess.run([TREE / "perfbench" / "perfbench_selftest"]
                                ).returncode)

    OUT.mkdir(parents=True, exist_ok=True)
    ctx = context(cache)
    print("context: " + json.dumps(ctx, sort_keys=True), flush=True)
    cmd = [TREE / "perfbench" / "wfd_perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve", TREE / "bench" / "wfd_serve",
           "--vectors", "tests/vectors",
           "--out-dir", OUT.relative_to(ROOT)]
    child = subprocess.Popen([str(c) for c in cmd], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    lines = []
    for line in child.stdout:
        lines.append(line.rstrip("\n"))
        if not line.startswith("{"):
            print(line, end="", flush=True)
    code = child.wait()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("wfd_perfbench printed no result", 1)
    if not conform(result, args.trace):
        code = code or 1
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": ctx, "result": result,
                                  "output": lines[:-1]}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
