#!/usr/bin/env python3
"""Turn a traced orc_bench run into the per-layer table (README.md).

    python3 perfbench/summarize.py .bench_build/perfbench/traces/tree-write-seed1.json

The JSON is orc_bench's result for a --trace 1 run (run.py saves it, with
its span file beside it). Every ratio is printed with its base: operations,
retires, CPU seconds or samples.
"""
import json
import os
import statistics
import struct
import sys

SPAN = struct.Struct("<BBHIqq")  # kind, worker, round, pad, start_ns, end_ns
KINDS = ["contains", "insert", "remove", "enqueue", "dequeue",
         "setup", "measured", "teardown", "probes", "probe_heavy", "probe_load"]
CALL_KINDS = KINDS[:5]


def load_spans(path):
    with open(path, "rb") as f:
        data = f.read()
    return [(KINDS[k], w, r, s, e) for k, w, r, _, s, e in SPAN.iter_unpack(data)]


def percentile(sorted_values, q):
    """Nearest rank, the same rule orc_bench uses."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measured_rounds(result):
    """Every round but the warm-up one."""
    return [r for r in result["rounds"] if not r["warmup"]]


def measured_windows(result):
    """The measured windows of every round but the warm-up one."""
    return [w for r in measured_rounds(result) for w in r["windows"]]


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, spans):
    """Return [(name, value, unit, base)] for every per-layer metric."""
    rounds = measured_rounds(result)
    windows = measured_windows(result)
    traced = [w for w in windows if w["traced"]]
    untraced = [w for w in windows if not w["traced"]]
    calls = sum(r["calls"] for r in rounds)
    m = {k: sum(r["measured"][k] for r in rounds) for k in rounds[0]["measured"]}
    td = {k: sum(r["teardown"][k] for r in rounds) for k in rounds[0]["teardown"]}
    cpu_s = m["utime_s"] + m["stime_s"]
    wall_s = sum(w["wall_s"] for w in windows)
    workers = result["env"]["workers"]
    ops_base = f"{calls} calls in {len(rounds)} rounds"
    rows = []

    # ds: latency per call kind, from the traced windows' spans.
    durs = {k: [] for k in CALL_KINDS}
    for kind, _, _, s, e in spans:
        if kind in durs:
            durs[kind].append(e - s)
    for v in durs.values():
        v.sort()
    stride = result["env"]["stride"]

    def lat(kind, q):
        n = len(durs[kind])
        base = (f"{n} timed {kind} calls (1 in {stride} loop iterations, "
                f"{len(traced)} traced windows)")
        return percentile(durs[kind], q) / 1e3, base

    for kind, q in [("contains", 50), ("contains", 99), ("insert", 50), ("remove", 50),
                    ("remove", 99), ("enqueue", 50), ("dequeue", 50), ("dequeue", 99)]:
        value, base = lat(kind, q / 100)
        rows.append((f"ds.{kind}_p{q}_us", value, "us", base))
    timed_max = max((v[-1] for v in durs.values() if v), default=0) / 1e3
    stall_max = max(r["stall_max_s"] for r in rounds) * 1e6
    rows.append(("ds.op_max_us", max(timed_max, stall_max), "us",
                 f"max of the longest timed call ({timed_max:.1f} us) and the longest stall "
                 f"of one worker's loop seen by the {len(rounds)}-round 10 ms sampler "
                 f"({stall_max:.1f} us)"))
    skews = [w["first_finish_s"] / w["wall_s"] for w in windows]
    rows.append(("ds.finish_skew", statistics.median(skews), "ratio",
                 f"median over {len(windows)} windows of first/last worker finish time"))
    ua = sum(r["update_attempts"] for r in rounds)
    uo = sum(r["update_ok"] for r in rounds)
    rows.append(("ds.update_success_ratio", ratio(uo, ua), "ratio",
                 f"{uo} successful of {ua} insert+remove calls"))
    da = sum(r["deq_attempts"] for r in rounds)
    de = sum(r["deq_empty"] for r in rounds)
    rows.append(("ds.dequeue_empty_ratio", ratio(de, da), "ratio",
                 f"{de} empty of {da} dequeue calls"))

    # orc_atomic and asym_fence probes, run at the workload's thread count.
    probes = result["probes"]
    loads = sorted((e - s) / probes["load_batch"] for k, _, _, s, e in spans if k == "probe_load")
    rows.append(("orc_atomic.load_ns", percentile(loads, 0.5), "ns",
                 f"p50 of {len(loads)} batches of {probes['load_batch']} load()+release on "
                 f"{workers} workers"))
    heavies = sorted((e - s) / 1e3 for k, _, _, s, e in spans if k == "probe_heavy")
    heavy_us = percentile(heavies, 0.5)
    heavy_per_op = ratio(m["heavy_fences"], calls)
    rows.append(("asym_fence.heavy_per_op", heavy_per_op, "1/op",
                 f"{m['heavy_fences']} heavy fences / {ops_base}"))
    rows.append(("asym_fence.heavy_us", heavy_us, "us",
                 f"p50 of {len(heavies)} asym::heavy() calls, fence mode "
                 f"{result['env']['asym_fence_mode']}, while the other worker spins"))
    mean_op_us = ratio(workers * wall_s, calls) * 1e6
    rows.append(("asym_fence.share_est", heavy_per_op * ratio(heavy_us, mean_op_us), "ratio",
                 f"heavy_per_op x heavy_us / mean op time ({mean_op_us:.3f} us = "
                 f"{workers} workers x {wall_s:.3f} s / {calls} calls)"))

    # orc_domain: OrcDomain::global().metrics() deltas over the measured phases.
    freed = m["freed_batch"] + m["freed_slow"]
    for key in ["retired", "cascades"]:
        rows.append((f"orc_domain.{key}_per_op", ratio(m[key], calls), "1/op",
                     f"{m[key]} / {ops_base}"))
    rows.append(("orc_domain.freed_per_op", ratio(freed, calls), "1/op",
                 f"{freed} (batch {m['freed_batch']} + slow {m['freed_slow']}) / {ops_base}"))
    for key in ["handovers", "slots_scanned", "resurrected"]:
        rows.append((f"orc_domain.{key}_per_retire", ratio(m[key], m["retired"]), "1/retire",
                     f"{m[key]} / {m['retired']} retires"))
    td_freed = td["freed_batch"] + td["freed_slow"]
    rows.append(("orc_domain.freed_batch_share",
                 ratio(m["freed_batch"] + td["freed_batch"], freed + td_freed), "ratio",
                 f"batch frees / all frees over measured+teardown: measured "
                 f"{m['freed_batch']}/{freed}, teardown {td['freed_batch']}/{td_freed}"))
    for key in ["scans_shared", "chunks_stolen", "shard_pushes"]:
        rows.append((f"orc_domain.{key}_per_op", ratio(m[key], calls), "1/op",
                     f"{m[key]} / {ops_base}"))
    rows.append(("orc_domain.bg_wakes", m["bg_wakes"] + td["bg_wakes"], "count",
                 f"measured {m['bg_wakes']} + teardown {td['bg_wakes']} over {len(rounds)} rounds"))
    ticks = sum(r["sampler_ticks"] for r in rounds)
    rows.append(("orc_domain.live_objs_peak", max(r["live_peak"] for r in rounds), "count",
                 f"max object_count() over {ticks} samples, {len(rounds)} rounds"))
    rows.append(("orc_domain.pending_objs_peak", max(r["pending_peak"] for r in rounds), "count",
                 f"max of object_count() minus the nodes the structure's size implies, "
                 f"{ticks} samples"))
    rows.append(("orc_domain.peak_unreclaimed", result["peak_unreclaimed"], "count",
                 "the engine's own gauge, whole process"))

    # proc: getrusage deltas over the measured phases.
    rows.append(("proc.sys_share", ratio(m["stime_s"], cpu_s), "ratio",
                 f"{m['stime_s']:.3f} system s / {cpu_s:.3f} CPU s"))
    rows.append(("proc.cpu_us_per_op", ratio(cpu_s, calls) * 1e6, "us",
                 f"{cpu_s:.3f} CPU s / {ops_base}"))
    rows.append(("proc.invol_ctx_switches", m["nivcsw"], "count",
                 f"over {cpu_s:.3f} CPU s, {len(rounds)} measured phases"))

    tput = lambda ws: statistics.median(w["calls"] / w["wall_s"] / 1e6 for w in ws)
    off, on = tput(untraced), tput(traced)
    rows.append(("bench.trace_overhead_pct", ratio(off - on, off) * 100, "%",
                 f"untraced {off:.4f} vs traced {on:.4f} Mops/s, medians of "
                 f"{len(untraced)} + {len(traced)} alternating windows"))
    return rows


def print_rows(rows, out=sys.stdout):
    for name, value, unit, base in rows:
        print(f"{name:34} {value:14.6g} {unit:9} {base}", file=out)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        result = json.load(f)
    spans = load_spans(os.path.join(os.path.dirname(argv[1]), result["spans_file"]))
    print_rows(per_layer(result, spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
