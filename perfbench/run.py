#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The workloads are serve_hot, serve_miss,
engine_churn and scenario_matrix (perfbench/README.md says what each one
measures). --trace 0 reports the end-to-end metrics named in BENCHMARK.json;
--trace 1 makes a separate traced run that reports the per-layer metrics and
writes its spans to .bench_out/spans-<workload>.jsonl.

The build goes to $CARGO_TARGET_DIR (default .bench_build), configured as a
Release build. Every run prints a "stamp" line (nproc, CPU model, compiler,
build type, commit), one "metric" line per value, and as its last line a
JSON object with the keys correct, attempted, failed and metrics. The exit
code is nonzero when an output check fails or the sources are missing.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_miss", "engine_churn", "scenario_matrix")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        die(f"cannot read {path}: {error}")


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_pins(documents):
    """Fails loudly when the pinned scenario documents moved or changed."""
    files = []
    for pin in documents:
        path = os.path.join(ROOT, pin["file"])
        if not os.path.isfile(path):
            die(f"pinned scenario document {pin['file']} is missing")
        actual = sha256_of(path)
        if actual != pin["sha256"]:
            die(f"pinned scenario document {pin['file']} changed "
                f"(sha256 {actual}, pinned {pin['sha256']}); "
                "re-pin it in perfbench/workloads.json in a benchmark change")
        files.append(path)
    return files


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit, or a hash of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(names):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                digest.update(sha256_of(path).encode())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir, jobs):
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources (src/) not found; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, check=False).returncode != 0:
            die("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "-j", str(jobs)]
    if subprocess.run(compile_cmd, stdout=sys.stderr, check=False).returncode != 0:
        die("build failed")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        die(f"build produced no {binary}")
    return binary


def select_metrics(workload, listed, required, produced):
    """The result's metrics: every `listed` spec, valued from `produced`.

    A metric named in `required` must have been produced. Any other listed
    metric that was not produced belongs to a layer this workload does not
    run, and reads 0.
    """
    metrics = {}
    for spec in listed:
        name = spec["name"]
        if name in produced:
            metrics[name] = {"value": produced[name]["value"], "unit": spec["unit"]}
        elif name in required:
            die(f"{workload} did not report {name}")
        else:
            metrics[name] = {"value": 0, "unit": spec["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("answer", "digest"),
                        help="self-test only: corrupt one checked output")
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    threads = nproc()

    workload_args = []
    settings = config[args.workload]
    if args.workload in ("serve_hot", "serve_miss"):
        workload_args += ["--open-rate", str(settings["open_rate_qps"])]
    elif args.workload == "scenario_matrix":
        for path in check_pins(settings["documents"]):
            workload_args += ["--scenario", path]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir, threads)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads)] + workload_args
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        run = subprocess.run(command, capture_output=True, text=True, check=False,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if not lines:
        die(f"{args.workload} printed nothing (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{args.workload} did not end with a result line")

    info = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("info "):
            _, key, value = line.split(" ", 2)
            info[key] = value
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": threads,
        "cpu_model": cpu_model(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "optimized": info.get("optimized", "unknown"),
        "commit": commit(),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for failure in result.get("failures", []):
        print(f"check failed: {failure}")

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    required = (settings["per_layer"] if args.trace
                else [spec["name"] for spec in listed])
    metrics = select_metrics(args.workload, listed, required, result.get("metrics", {}))
    correct = bool(result.get("correct")) and run.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(result.get("attempted", 0)),
                      "failed": int(result.get("failed", 0)),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
