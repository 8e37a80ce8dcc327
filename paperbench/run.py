#!/usr/bin/env python3
"""Paper-workload benchmark for Ark.

Builds the Ark library in the release-bench configuration (Release +
LTO, baseline ISA) together with the paperbench binary, runs one
workload and prints every metric by name and unit. The last line of
stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

    python3 paperbench/run.py --workload sec45 --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Run it from the repository root; see README.md for
what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
WORKLOADS = ("sec45", "puf_crp", "maxcut")

# Set-up is paid once per process, so each run starts this many extra
# processes that only set up, and reports the median set-up time of
# these plus the timed process.
SETUP_PROCESSES = 4

# A run must end within 180 s of starting once the build is done.
RUN_BUDGET_S = 170.0

# Variables that would change the execution tier or compiler being
# measured; they are removed from the benchmark's environment.
UNSET_VARS = ("ARK_JIT_FORCE", "ARK_TAPE_REASSOC", "ARK_CC")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "paperbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "paperbench")


def source_digest():
    """sha256 over the library sources, its build file and the benchmark."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "paperbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


class Runner:
    """Runs the paperbench binary; every process is waited for."""

    def __init__(self, binary, args, env, deadline):
        self.binary = binary
        self.args = args
        self.env = env
        self.deadline = deadline

    def run(self, mode):
        start_ns = time.monotonic_ns()
        result = subprocess.run(
            [self.binary, "--workload", self.args.workload,
             "--seed", str(self.args.seed),
             "--seconds", str(self.args.seconds), "--mode", mode],
            env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        if result.returncode != 0:
            raise RuntimeError(f"paperbench --mode {mode} exited "
                               f"{result.returncode}: {result.stderr.strip()}")
        out = json.loads(result.stdout.strip().splitlines()[-1])
        # Set-up runs from process start (before exec) to the end of
        # the first, untimed iteration; both clocks are CLOCK_MONOTONIC.
        out["setup_s"] = (out["setup_end_ns"] - start_ns) / 1e9
        for error in out["errors"]:
            log(f"check failed ({mode}): {error}")
        return out


def tail(samples):
    """Highest percentile with at least 10 samples beyond it.

    A run too short to have one reports its maximum instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n, beyond


def end_to_end(runner):
    runs = [runner.run("setup") for _ in range(SETUP_PROCESSES)]
    timed = runner.run("timed")
    runs.append(timed)
    iters = timed["iter_s"]
    value, pct, n, beyond = tail(iters)
    print(f"iter_s.tail is p{pct:.1f} of {n} timed iterations "
          f"({beyond} beyond it)")
    p50 = statistics.median(iters)
    values = {
        # Throughput at the median iteration: on a shared host the
        # mean-based rate (sum of items over sum of times) follows the
        # slowest iterations and spread twice as much between runs.
        "items_per_s": timed["items"] / p50,
        "iter_s.p50": p50,
        "iter_s.tail": value,
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return runs, timed["config"], values


def per_layer(runner):
    traced = runner.run("traced")
    return [traced], traced["config"], traced["layers"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
        # A fresh, empty JIT kernel cache: no leftover kernel from an
        # earlier run can change the tier being measured.
        env["ARK_JIT_CACHE_DIR"] = os.path.join(scratch, "jit")
        env["TMPDIR"] = scratch
        runner = Runner(binary, args, env, time.monotonic() + RUN_BUDGET_S)
        runs, config, values = (per_layer if args.trace else end_to_end)(runner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    config.update({
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    })
    print("config", json.dumps(config, sort_keys=True))
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<24} {value:>16.6g} {metric['unit']}")
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as error:
        log(f"paperbench: {error}")
        sys.exit(1)
