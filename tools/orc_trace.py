#!/usr/bin/env python3
"""orc_trace: convert OrcGC trace-ring dumps into Chrome trace-event JSON.

Input is the JSONL file ORC_TRACE_DUMP=<path> produces at process exit (one
object per ring record: source, tid, tsc, type, obj, arg). Output is the
Chrome trace-event format — load the result in chrome://tracing or Perfetto
(ui.perfetto.dev). Stdlib only.

Usage:
  tools/orc_trace.py trace_dump.jsonl -o trace.json     convert
  tools/orc_trace.py trace_dump.jsonl --validate        check, no output
  tools/orc_trace.py dump.jsonl -o t.json --tsc-ghz 3.0 calibrated timestamps
  tools/orc_trace.py trace_dump.jsonl --summary         time per span kind

Mapping:
  * One track per (source, tid): each telemetry source becomes a trace
    process (pid), each OrcGC dense thread id a thread (tid) inside it.
  * span_begin/span_end records (TraceSpan pairs — scan generations, their
    settle loops and heavy fences) become duration events (ph B/E) named by
    their SpanKind; the end record's obj field carries the span's item count
    as args.items.
  * Every other record type (retire, free_batch, handover, ...) becomes an
    instant event (ph i, thread scope) with obj/arg attached as args.
  * Timestamps are (tsc - min_tsc) / (tsc_ghz * 1000) microseconds. The
    default --tsc-ghz 1.0 keeps relative ordering and proportions; pass the
    machine's invariant-TSC frequency for wall-clock-accurate spans.

Validation (--validate, also run before every conversion):
  * per-track tsc monotonicity (the rings are single-writer, so a
    non-monotone track means a corrupt or hand-edited dump);
  * balanced span pairing per track, with ring-wrap tolerance: a bounded
    ring may evict a span's begin while keeping its end (orphan end at the
    start of a track) or be dumped while a span is open (dangling begin at
    the end) — both are dropped with a note, anything else fails.

Summary (--summary, computed after validation): one row per span kind with
its count, total, mean and self time. Self time is a span's duration minus
the durations of the spans nested directly inside it on the same track —
heavy_fence nests inside scan_generation, so scan_generation's self time is
its walk without the fence. Wrap-orphaned spans are left out, as in the
conversion. Times are scaled by --tsc-ghz like the trace timestamps.
"""
import argparse
import json
import sys

# Kept in sync with telemetry::SpanKind (src/common/telemetry.hpp).
SPAN_KINDS = {
    1: "scan_generation",
    5: "heavy_fence",
    6: "settle_generation",
}


def load_records(path):
    """Parses a JSONL ring dump into a list of record dicts."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not JSON: {err}") from err
            for key in ("source", "tid", "tsc", "type"):
                if key not in rec:
                    raise ValueError(f"{path}:{lineno}: record missing '{key}'")
            records.append(rec)
    return records


def group_tracks(records):
    """Groups records by (source, tid), preserving dump order (which is ring
    order — oldest first — per track)."""
    tracks = {}
    for rec in records:
        tracks.setdefault((rec["source"], rec["tid"]), []).append(rec)
    return tracks


def validate(tracks, out=sys.stderr):
    """Returns (ok, notes): hard failures make ok False; wrap-tolerated
    orphans only produce notes."""
    ok = True
    notes = []
    for (source, tid), recs in sorted(tracks.items()):
        label = f"{source}/tid{tid}"
        last_tsc = None
        open_spans = []  # stack of (kind, tsc)
        seen_any_span_activity = False
        for rec in recs:
            tsc = rec["tsc"]
            if last_tsc is not None and tsc < last_tsc:
                print(f"orc_trace: {label}: tsc went backwards "
                      f"({last_tsc} -> {tsc})", file=out)
                ok = False
            last_tsc = tsc
            if rec["type"] == "span_begin":
                seen_any_span_activity = True
                open_spans.append((rec.get("arg", 0), tsc))
            elif rec["type"] == "span_end":
                if not open_spans:
                    if seen_any_span_activity:
                        # An end after balanced activity with no open begin
                        # cannot come from ring eviction: wrap only eats the
                        # OLDEST records.
                        print(f"orc_trace: {label}: unpaired span_end "
                              f"mid-track at tsc={tsc}", file=out)
                        ok = False
                    else:
                        notes.append(f"{label}: orphan span_end at track "
                                     f"start (ring wrap), dropped")
                    continue
                seen_any_span_activity = True
                kind, _ = open_spans.pop()
                if rec.get("arg", 0) != kind:
                    print(f"orc_trace: {label}: span_end kind "
                          f"{rec.get('arg')} does not match open span_begin "
                          f"kind {kind} at tsc={tsc}", file=out)
                    ok = False
        for kind, tsc in open_spans:
            notes.append(f"{label}: dangling span_begin "
                         f"({SPAN_KINDS.get(kind, kind)}) at tsc={tsc} "
                         f"(dump raced the span or ring wrapped), dropped")
    return ok, notes


def to_chrome(tracks, tsc_ghz):
    """Builds the Chrome trace-event object. Orphan/dangling span records
    (already reported by validate) are skipped."""
    t0 = min((rec["tsc"] for recs in tracks.values() for rec in recs),
             default=0)

    def ts(tsc):
        return (tsc - t0) / (tsc_ghz * 1000.0)

    events = []
    pids = {}
    for (source, tid), recs in sorted(tracks.items()):
        pid = pids.setdefault(source, len(pids) + 1)
        depth = 0
        pending_ends = 0
        # Pre-count wrap-orphaned ends so the B/E stream stays balanced.
        for rec in recs:
            if rec["type"] == "span_begin":
                pending_ends += 1
            elif rec["type"] == "span_end" and pending_ends > 0:
                pending_ends -= 1
        for rec in recs:
            if rec["type"] == "span_begin":
                depth += 1
                events.append({
                    "ph": "B", "pid": pid, "tid": tid, "ts": ts(rec["tsc"]),
                    "name": SPAN_KINDS.get(rec.get("arg", 0),
                                           f"span{rec.get('arg', 0)}"),
                    "cat": "orcgc",
                })
            elif rec["type"] == "span_end":
                if depth == 0:
                    continue  # orphan end (ring wrap)
                depth -= 1
                events.append({
                    "ph": "E", "pid": pid, "tid": tid, "ts": ts(rec["tsc"]),
                    "args": {"items": int(rec.get("obj", "0x0"), 16)},
                })
            else:
                events.append({
                    "ph": "i", "pid": pid, "tid": tid, "ts": ts(rec["tsc"]),
                    "name": rec["type"], "s": "t", "cat": "orcgc",
                    "args": {"obj": rec.get("obj", "0x0"),
                             "arg": rec.get("arg", 0)},
                })
        # Close dangling begins at the track's last timestamp so viewers
        # render them instead of discarding the whole track.
        if depth > 0 and recs:
            for _ in range(depth):
                events.append({
                    "ph": "E", "pid": pid, "tid": tid,
                    "ts": ts(recs[-1]["tsc"]),
                    "args": {"items": 0, "truncated": True},
                })
    # Name the process tracks after their telemetry sources.
    for source, pid in pids.items():
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"orcgc:{source}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(tracks):
    """Returns {kind: [count, total_ticks, self_ticks]} over the paired spans
    of every track; a parent's self time excludes its directly nested
    children."""
    stats = {}
    for recs in tracks.values():
        open_spans = []  # stack of [kind, begin tsc, ticks in nested spans]
        for rec in recs:
            if rec["type"] == "span_begin":
                open_spans.append([rec.get("arg", 0), rec["tsc"], 0])
            elif rec["type"] == "span_end" and open_spans:
                kind, begin, nested = open_spans.pop()
                duration = rec["tsc"] - begin
                row = stats.setdefault(kind, [0, 0, 0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - nested
                if open_spans:
                    open_spans[-1][2] += duration
    return stats


def print_summary(stats, tsc_ghz):
    """One row per span kind, largest self time first."""
    scale = 1.0 / (tsc_ghz * 1000.0)  # ticks -> microseconds
    print(f"{'span kind':<18} {'count':>9} {'total_us':>12} {'mean_us':>10} "
          f"{'self_us':>12}")
    for kind, (count, total, self_ticks) in sorted(
            stats.items(), key=lambda kv: -kv[1][2]):
        name = SPAN_KINDS.get(kind, f"span{kind}")
        print(f"{name:<18} {count:>9} {total * scale:>12.1f} "
              f"{total * scale / count:>10.3f} {self_ticks * scale:>12.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="OrcGC ring dump -> Chrome trace-event JSON")
    parser.add_argument("dump", help="JSONL ring dump (ORC_TRACE_DUMP)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write Chrome trace JSON here")
    parser.add_argument("--validate", action="store_true",
                        help="validate only (no output unless -o given)")
    parser.add_argument("--summary", action="store_true",
                        help="print count, total, mean and self time per "
                             "span kind")
    parser.add_argument("--tsc-ghz", type=float, default=1.0,
                        help="TSC frequency in GHz for microsecond "
                             "timestamps (default 1.0: raw tick scale)")
    args = parser.parse_args()
    if not (args.validate or args.output or args.summary):
        parser.error("need -o/--output, --validate and/or --summary")
    if args.tsc_ghz <= 0:
        parser.error("--tsc-ghz must be positive")

    try:
        records = load_records(args.dump)
    except (OSError, ValueError) as err:
        print(f"orc_trace: {err}", file=sys.stderr)
        return 1
    if not records:
        print(f"orc_trace: {args.dump}: empty dump (was tracing enabled? "
              f"run with ORC_TRACE=1)", file=sys.stderr)
        return 1

    tracks = group_tracks(records)
    ok, notes = validate(tracks)
    for note in notes:
        print(f"orc_trace: note: {note}", file=sys.stderr)
    if not ok:
        print("orc_trace: validation FAILED", file=sys.stderr)
        return 1
    spans = sum(1 for r in records if r["type"] == "span_begin")
    print(f"orc_trace: {len(records)} records, {len(tracks)} tracks, "
          f"{spans} spans: OK", file=sys.stderr)

    if args.output:
        doc = to_chrome(tracks, args.tsc_ghz)
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"orc_trace: wrote {len(doc['traceEvents'])} events to "
              f"{args.output}", file=sys.stderr)
    if args.summary:
        print_summary(summarize(tracks), args.tsc_ghz)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
