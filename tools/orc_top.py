#!/usr/bin/env python3
"""orc_top: terminal viewer for OrcGC telemetry exports.

Renders the per-source counter table (plus histograms with --hist) from an
"orcgc-telemetry-v1" JSON export — either a bare export (ORC_TELEMETRY_JSON,
ORC_TELEMETRY_DUMP_MS) or a bench --json artifact carrying a "telemetry" key.
Stdlib only.

Usage:
  tools/orc_top.py telemetry.json             one-shot table
  tools/orc_top.py --hist telemetry.json      table + histograms
  tools/orc_top.py --watch 2 telemetry.json   re-read and redraw every 2 s
                                              (pair with ORC_TELEMETRY_DUMP_MS
                                              for a live view of a running
                                              process)

Columns: retired/freed/scans are monotonic totals; backlog is retired−freed
at capture; peak is the sampled high-water backlog. Histogram buckets are
powers of two (b holds values in [2^(b−1), 2^b−1]).

When the export carries an "orcsan" source (a -DORCGC_ORCSAN=ON build, see
DESIGN.md §1.9), a sanitizer panel follows the table: the four violation
counters (double_retire, unprotected_deref, poison_torn, cross_domain_retire
— any non-zero value is flagged) and the quarantine occupancy/peak gauges.

Sources carrying a retire_free_age histogram (see DESIGN.md §1.8) get a
latency panel: retire→free age percentiles (p50/p99/p999, in
telemetry::coarse_now ticks) plus the stalled-reader watchdog gauges —
stall_suspects (reader slots whose heartbeat froze while pinning growing
garbage; any non-zero value is flagged) and stall_pinned (objects those
slots hold hostage).
"""
import argparse
import json
import sys
import time


def load_sources(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    telem = doc.get("telemetry", doc)
    if telem.get("schema") != "orcgc-telemetry-v1":
        raise ValueError(f"{path}: not an orcgc-telemetry-v1 export")
    return telem.get("sources", [])


def fmt_count(n):
    if n >= 10_000_000:
        return f"{n / 1e6:.0f}M"
    if n >= 10_000:
        return f"{n / 1e3:.0f}k"
    return str(n)


def render_table(sources, out):
    header = f"{'SOURCE':<16} {'RETIRED':>9} {'FREED':>9} {'BACKLOG':>8} {'PEAK':>8} {'SCANS':>9}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for src in sorted(sources, key=lambda s: s["name"]):
        c = src.get("common", {})
        retired, freed = c.get("retired", 0), c.get("freed", 0)
        print(
            f"{src['name']:<16} {fmt_count(retired):>9} {fmt_count(freed):>9} "
            f"{fmt_count(max(retired - freed, 0)):>8} "
            f"{fmt_count(c.get('peak_unreclaimed', 0)):>8} {fmt_count(c.get('scans', 0)):>9}",
            file=out,
        )


ORCSAN_VIOLATIONS = ("double_retire", "unprotected_deref", "poison_torn",
                     "cross_domain_retire")


def render_orcsan(sources, out):
    """Sanitizer panel for -DORCGC_ORCSAN=ON exports: violation counters
    (flagged when non-zero) and the quarantine gauges."""
    for src in sources:
        if src.get("name") != "orcsan":
            continue
        counters = src.get("counters", {})
        gauges = src.get("gauges", {})
        total = sum(counters.get(k, 0) for k in ORCSAN_VIOLATIONS)
        verdict = "!! VIOLATIONS" if total else "clean"
        print(f"\norcsan [{verdict}]", file=out)
        for k in ORCSAN_VIOLATIONS:
            n = counters.get(k, 0)
            flag = "  <-- " + "!" * 8 if n else ""
            print(f"  {k:<20} {fmt_count(n):>9}{flag}", file=out)
        print(f"  {'quarantine':<20} {fmt_count(gauges.get('quarantine_occupancy', 0)):>9}"
              f"  (peak {fmt_count(gauges.get('quarantine_peak', 0))})", file=out)


def render_latency(sources, out):
    """Reclamation-latency panel: retire→free age percentiles per source
    plus the stalled-reader watchdog gauges (flagged when suspects > 0)."""
    rows = []
    for src in sorted(sources, key=lambda s: s["name"]):
        age = src.get("histograms", {}).get("retire_free_age")
        gauges = src.get("gauges", {})
        suspects = gauges.get("stall_suspects")
        if (age is None or age.get("count", 0) == 0) and not suspects:
            continue
        rows.append((src["name"], age or {}, gauges))
    if not rows:
        return
    header = (f"\n{'LATENCY':<16} {'AGE n':>9} {'p50':>8} {'p99':>8} "
              f"{'p999':>8} {'STALLS':>7} {'PINNED':>7}")
    print(header, file=out)
    print("-" * len(header), file=out)
    for name, age, gauges in rows:
        suspects = gauges.get("stall_suspects", 0)
        flag = "  <-- stalled reader(s)" if suspects else ""
        print(
            f"{name:<16} {fmt_count(age.get('count', 0)):>9} "
            f"{fmt_count(age.get('p50', 0)):>8} {fmt_count(age.get('p99', 0)):>8} "
            f"{fmt_count(age.get('p999', 0)):>8} {fmt_count(suspects):>7} "
            f"{fmt_count(gauges.get('stall_pinned', 0)):>7}{flag}",
            file=out,
        )


def render_histograms(sources, out):
    for src in sorted(sources, key=lambda s: s["name"]):
        for name, hist in sorted(src.get("histograms", {}).items()):
            count = hist.get("count", 0)
            if count == 0:
                continue
            print(f"\n{src['name']} / {name} (n={count})", file=out)
            buckets = [b for b in hist.get("buckets", []) if b["count"] > 0]
            top = max(b["count"] for b in buckets)
            for b in buckets:
                span = str(b["lower"]) if b["lower"] == b["upper"] else f"{b['lower']}-{b['upper']}"
                bar = "#" * max(1, round(40 * b["count"] / top))
                print(f"  {span:>12} {b['count']:>9} {bar}", file=out)


def main() -> int:
    parser = argparse.ArgumentParser(description="OrcGC telemetry viewer")
    parser.add_argument("artifact", help="telemetry JSON (bare export or bench --json)")
    parser.add_argument("--hist", action="store_true", help="also render histograms")
    parser.add_argument("--watch", type=float, metavar="SECS",
                        help="redraw every SECS seconds until interrupted")
    args = parser.parse_args()

    while True:
        try:
            sources = load_sources(args.artifact)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"orc_top: {err}", file=sys.stderr)
            if args.watch is None:
                return 1
            time.sleep(args.watch)
            continue
        if args.watch is not None:
            sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
        render_table(sources, sys.stdout)
        render_latency(sources, sys.stdout)
        render_orcsan(sources, sys.stdout)
        if args.hist:
            render_histograms(sources, sys.stdout)
        sys.stdout.flush()
        if args.watch is None:
            return 0
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
