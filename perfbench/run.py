#!/usr/bin/env python3
"""OrcGC benchmark: one workload, one process, two workers (README.md).

    python3 perfbench/run.py --workload tree-write --seed 1 --seconds 50 --trace 0

Run from the repository root. The first run builds perfbench/orc_bench and
the library from source into .bench_build/perfbench. The run prints its
environment stamp, every metric by name with its unit and base, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import summarize  # noqa: E402

WORKLOADS = ("tree-read", "tree-write", "queue-pairs")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", "2"], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "orc_bench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be a git tree)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp(result):
    env = dict(result["env"])
    env.update(nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
               kernel=platform.release(), commit=commit(), source_sha256=source_digest())
    return env


def end_to_end(result):
    rounds = summarize.measured_rounds(result)
    windows = summarize.measured_windows(result)
    n, nw = len(rounds), len(windows)
    over_rounds = lambda key: statistics.median(r[key] for r in rounds)
    over_windows = lambda key: statistics.median(w[key] * 1e-3 for w in windows)
    calls = windows[0]["calls"]
    stride = result["env"]["stride"]
    lat_n = statistics.median(w["lat_samples"] for w in windows)
    setup_n, teardown_n = rounds[0]["setup_samples"], rounds[0]["teardown_samples"]
    return [
        ("throughput_mops",
         statistics.median(w["calls"] / w["wall_s"] / 1e6 for w in windows), "Mops/s",
         f"median of {nw} windows in {n} rounds; {calls} calls per window by "
         f"{result['env']['workers']} workers, barrier release to last finish"),
        ("op_p50_us", over_windows("lat_p50_ns"), "us",
         f"median of {nw} windows' p50; {lat_n:.0f} timed calls per window (1 in {stride})"),
        ("op_p99_us", over_windows("lat_p99_ns"), "us",
         f"median of {nw} windows' p99; {lat_n:.0f} timed calls per window"),
        ("max_rss_mb", result["max_rss_kb"] / 1024, "MB", "getrusage ru_maxrss, whole process"),
        ("setup_s", over_rounds("setup_s"), "s",
         f"median of {n} rounds' median of {setup_n} set-ups "
         f"(build + prefill of {result['prefill']})"),
        ("teardown_s", over_rounds("teardown_s"), "s",
         f"median of {n} rounds' median of {teardown_n} whole-structure teardowns"),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_base = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}")
    if args.trace:
        os.makedirs(os.path.dirname(trace_base), exist_ok=True)
        cmd += ["--spans", trace_base + ".spans"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"orc_bench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"orc_bench exited with {proc.returncode}")
    result = json.loads(proc.stdout)

    print("env " + json.dumps(env_stamp(result), sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(result['rounds'])} (1 warm-up) elapsed_s={result['elapsed_s']}")
    if args.trace:
        result["spans_file"] = os.path.basename(trace_base) + ".spans"
        with open(trace_base + ".json", "w") as f:
            json.dump(result, f)
        rows = summarize.per_layer(result, summarize.load_spans(trace_base + ".spans"))
    else:
        rows = end_to_end(result)
    summarize.print_rows(rows)
    for note in result["failures"]:
        print(f"check failed: {note}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))


if __name__ == "__main__":
    main()
