// OrcMetrics: the per-OrcDomain telemetry provider.
//
// Every OrcDomain owns one of these (domain->metrics()); the domain's retire
// machinery calls the on_* hooks at the protocol points the paper's §5
// evaluates — token takes, hp scans, snapshots, handovers, frees. Hooks fire
// through a Hot handle that resolves the calling thread's cacheline-padded
// block once per cascade; each block has exactly one writer, so every
// increment is a plain relaxed load+store pair (no lock prefix — see
// bump()) and the always-on cost per retired node is a few ordinary stores
// the pipeline hides (tools/telemetry_overhead.py gates the total at 2%).
// The load /
// protect fast path (get_protected, protect_ptr, scratch_protect) is NOT
// instrumented at all — tests/test_telemetry.cpp greps the engine source to
// keep it that way.
//
// Counter taxonomy (DESIGN.md "Observability"):
//   retired        fresh retire tokens taken (release_idx / increment_orc /
//                  decrement_orc CAS successes). NOT one per retire() call:
//                  handover drains re-enter retire() with an already-counted
//                  token.
//   freed_batch    deletes proven by a generation snapshot
//   freed_slow     deletes proven by a per-object scan
//   resurrected    retire tokens dropped because the counter left zero
//                  (a later decrement re-takes — and re-counts — the token)
//   scans          per-object try_handover passes
//   snapshots      full-hp-array snapshots taken
//   slots_scanned  hp slots loaded by scans + snapshots
//   handovers      objects parked on a covering hp's handover slot (the
//                  retiring thread's own slots included)
//   cascades       top-level retire() calls (cascade roots)
//
// Histograms (log2 buckets):
//   retire_latency_gens   cascade generation index at free — how many scan
//                         generations an object waited from cascade start
//   handover_chain_len    successful handovers per retire_one invocation
//   snapshot_hps          published hps captured per snapshot
//   cascade_slots_scanned hp slots touched per top-level cascade
//   retire_free_age       coarse_now() ticks from the retire-token CAS that
//                         stamped the object (orc_base::_orc_rts) to its
//                         delete — the wall-clock life of one piece of
//                         garbage. SAMPLED 1-in-64 per retiring thread
//                         (telemetry::kAgeSampleMask): stamped objects are
//                         measured at full clock resolution on whichever
//                         free path settles them (batched generation or
//                         per-object rescan), unstamped ones record
//                         nothing. Exported with p50/p99/p999
//
// peak_unreclaimed is SAMPLED, not exact: a per-node aggregate walk would
// put kMaxThreads relaxed loads of other threads' lines on the retire path.
// Instead the walk runs every 64th per-thread token take and on every
// external read (snapshot / common_counters), which is exact at quiescence.
//
// Event tracing: off by default; enabled per domain via set_tracing(true) or
// process-wide for new domains via ORC_TRACE=1. While off, the only cost on
// the instrumented paths is one relaxed load of a read-mostly flag per Hot
// handle (latched at construction); no ring storage exists until the first
// enable.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/cacheline.hpp"
#include "common/telemetry.hpp"
#include "common/thread_registry.hpp"

namespace orcgc {

class OrcMetrics final : public telemetry::MetricProvider {
    struct ThreadBlock;  // defined below; Hot holds a reference

    enum : int {
        kRetired,
        kFreedBatch,
        kFreedSlow,
        kResurrected,
        kScans,
        kSnapshots,
        kSlotsScanned,
        kHandovers,
        kCascades,
        kNumCounters
    };
    enum : int {
        kHistLatencyGens,
        kHistChainLen,
        kHistSnapshotHps,
        kHistCascadeSlots,
        kHistAge,
        kNumHists
    };

  public:
    /// Trace ring capacity per thread (records kept per thread once tracing
    /// is enabled; older records are overwritten).
    static constexpr std::size_t kTraceCapacity = 256;

    explicit OrcMetrics(bool is_global) : name_(is_global ? "orc/global" : "orc/domain") {
        if constexpr (telemetry::kTelemetryEnabled) {
            telemetry::register_provider(this);
            if (telemetry::trace_requested()) set_tracing(true);
        }
    }
    ~OrcMetrics() {
        if constexpr (telemetry::kTelemetryEnabled) {
            // Unregister first: the registry folds this provider's final
            // totals into its accumulated-by-name table, which reads the
            // blocks about to be freed.
            telemetry::unregister_provider(this);
            for (auto& slot : tl_) delete slot.load(std::memory_order_acquire);
        }
    }
    OrcMetrics(const OrcMetrics&) = delete;
    OrcMetrics& operator=(const OrcMetrics&) = delete;

    // ---- hooks (owner-thread, called from OrcDomain's retire machinery) ----
    //
    // A cascade fires several hooks per retired node. The retire machinery
    // takes one Hot handle up front — one thread_id() lookup for the whole
    // cascade — and drives every hook through it; the standalone on_* members
    // below re-resolve the block and exist for one-shot call sites (token
    // CAS, handover drain) where a handle would not amortize.

    /// Owner-thread hook handle with the calling thread's block resolved
    /// once. Valid only on the creating thread (blocks are keyed by dense
    /// thread id) and only within the call frame that created it.
    ///
    /// Counter bumps go straight to the block — single-writer plain
    /// load+store pairs (see bump()); cascade scratch (generation index,
    /// slots-scanned tally) lives in the handle, and the tracing flag is
    /// latched at construction: one acquire load per cascade instead of one
    /// per hook, so set_tracing() takes effect on the next cascade, not
    /// mid-flight.
    class Hot {
      public:
        /// A fresh retire token was taken for `obj`.
        void on_retire_token(const void* obj) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                const std::uint64_t mine = bump(t_->c[kRetired]);
                // Subsampled peak refresh (see header comment).
                if ((mine & 63) == 0) m_.refresh_peak();
                if (tracing_) t_->trace.record(telemetry::TraceType::kRetire, obj, 0);
            } else {
                (void)obj;
            }
        }

        /// `obj` is about to be deleted; `batched` selects the proving path;
        /// `age` is its retire→free age in coarse_now() ticks, or
        /// telemetry::kNoAge when the object carried no stamp (ages are
        /// 1-in-64 sampled — see telemetry::kAgeSampleMask). kNoAge frees
        /// record nothing: folding them into bucket 0 would crush the
        /// percentiles toward zero.
        void on_free(const void* obj, bool batched,
                     std::uint64_t age = telemetry::kNoAge) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[batched ? kFreedBatch : kFreedSlow]);
                t_->hist[kHistLatencyGens].record_owner(gen_);
                if (age != telemetry::kNoAge) {
                    t_->hist[kHistAge].record_owner(age);
                }
                if (tracing_) {
                    t_->trace.record(telemetry::TraceType::kFree, obj, batched ? 1 : 0);
                }
            } else {
                (void)obj;
                (void)batched;
                (void)age;
            }
        }

        /// The retire token for `obj` was dropped because its counter left
        /// zero.
        void on_resurrect(const void* obj) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) bump(t_->c[kResurrected]);
            (void)obj;
        }

        void on_scan_begin(const void* obj) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[kScans]);
                if (tracing_) t_->trace.record(telemetry::TraceType::kScanBegin, obj, 0);
            } else {
                (void)obj;
            }
        }

        void on_scan_end(const void* obj, std::uint64_t slots) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[kSlotsScanned], slots);
                cascade_slots_ += slots;
                if (tracing_) t_->trace.record(telemetry::TraceType::kScanEnd, obj, slots);
            } else {
                (void)obj;
                (void)slots;
            }
        }

        void on_handover(const void* obj) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[kHandovers]);
                if (tracing_) t_->trace.record(telemetry::TraceType::kHandover, obj, 0);
            } else {
                (void)obj;
            }
        }

        /// Successful handovers performed by one retire_one invocation.
        void on_chain(std::uint32_t length) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                if (length != 0) t_->hist[kHistChainLen].record_owner(length);
            } else {
                (void)length;
            }
        }

        /// One generation snapshot: `published` hps captured, `slots` loaded.
        void on_snapshot(std::uint64_t published, std::uint64_t slots) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[kSnapshots]);
                bump(t_->c[kSlotsScanned], slots);
                cascade_slots_ += slots;
                t_->hist[kHistSnapshotHps].record_owner(published);
            } else {
                (void)published;
                (void)slots;
            }
        }

        void on_cascade_begin() noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                cascade_slots_ = 0;
                gen_ = 0;
            }
        }

        /// Generation index within the current cascade (0 = the root object).
        void set_generation(std::uint32_t gen) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) gen_ = gen;
        }

        void on_cascade_end() noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                bump(t_->c[kCascades]);
                t_->hist[kHistCascadeSlots].record_owner(cascade_slots_);
            }
        }

        /// A parked object was taken out of a handover slot for reprocessing.
        void on_drain(const void* obj) noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                if (tracing_) t_->trace.record(telemetry::TraceType::kDrain, obj, 0);
            } else {
                (void)obj;
            }
        }

        /// The calling thread's trace ring while tracing is on, else null.
        /// telemetry::TraceSpan takes this pointer: with tracing off (the
        /// latched flag) a span collapses to two null tests.
        telemetry::TraceRing* span_ring() noexcept {
            if constexpr (telemetry::kTelemetryEnabled) {
                return tracing_ ? &t_->trace : nullptr;
            } else {
                return nullptr;
            }
        }

      private:
        friend class OrcMetrics;
        /// `t` is null only in telemetry-off builds, where every member that
        /// would touch it is compiled out.
        Hot(OrcMetrics& m, ThreadBlock* t) noexcept
            : m_(m),
              t_(t),
              tracing_(telemetry::kTelemetryEnabled &&
                       m.trace_on_.load(std::memory_order_acquire)) {}
        OrcMetrics& m_;
        ThreadBlock* const t_;
        const bool tracing_;
        std::uint64_t cascade_slots_ = 0;
        std::uint32_t gen_ = 0;
    };

    /// One thread-block lookup for a whole cascade of hooks.
    Hot hot() noexcept {
        if constexpr (telemetry::kTelemetryEnabled) {
            return Hot(*this, &tb());
        } else {
            return Hot(*this, nullptr);
        }
    }

    // One-shot forms for call sites outside a cascade frame. The token hook
    // runs once per retired node (orc_ptr stores take tokens outside any
    // cascade), so it skips the Hot handle and does the single bump it
    // needs directly.
    void on_retire_token(const void* obj) noexcept {
        if constexpr (telemetry::kTelemetryEnabled) {
            ThreadBlock& t = tb();
            const std::uint64_t mine = bump(t.c[kRetired]);
            // Subsampled peak refresh (see header comment).
            if ((mine & 63) == 0) refresh_peak();
            if (trace_on_.load(std::memory_order_acquire)) {
                t.trace.record(telemetry::TraceType::kRetire, obj, 0);
            }
        } else {
            (void)obj;
        }
    }
    void on_free(const void* obj, bool batched,
                 std::uint64_t age = telemetry::kNoAge) noexcept {
        hot().on_free(obj, batched, age);
    }
    void on_resurrect(const void* obj) noexcept { hot().on_resurrect(obj); }
    void on_scan_begin(const void* obj) noexcept { hot().on_scan_begin(obj); }
    void on_scan_end(const void* obj, std::uint64_t slots) noexcept {
        hot().on_scan_end(obj, slots);
    }
    void on_handover(const void* obj) noexcept { hot().on_handover(obj); }
    void on_chain(std::uint32_t length) noexcept { hot().on_chain(length); }
    void on_snapshot(std::uint64_t published, std::uint64_t slots) noexcept {
        hot().on_snapshot(published, slots);
    }
    void on_cascade_begin() noexcept { hot().on_cascade_begin(); }
    void set_generation(std::uint32_t gen) noexcept { hot().set_generation(gen); }
    void on_cascade_end() noexcept { hot().on_cascade_end(); }
    void on_drain(const void* obj) noexcept {
        if constexpr (telemetry::kTelemetryEnabled) {
            // Trace-only, fired per drained handover: skip the Hot handle
            // and the block lookup unless tracing is actually on.
            if (trace_on_.load(std::memory_order_acquire)) {
                tb().trace.record(telemetry::TraceType::kDrain, obj, 0);
            }
        } else {
            (void)obj;
        }
    }

    /// Wires the domain's stalled-reader watchdog gauges (suspect slots and
    /// the objects their published HPs are pinning — see
    /// OrcDomain::watchdog_sample) into this provider's export. Pointees
    /// must outlive the provider (all are OrcDomain members).
    void wire_stall_suspects(const std::atomic<std::uint64_t>* suspects,
                             const std::atomic<std::uint64_t>* pinned) noexcept {
        stall_suspects_ = suspects;
        stall_pinned_ = pinned;
    }

    // ---- reading -----------------------------------------------------------

    struct Snapshot {
        std::uint64_t retired = 0;
        std::uint64_t freed_batch = 0;
        std::uint64_t freed_slow = 0;
        std::uint64_t resurrected = 0;
        std::uint64_t scans = 0;
        std::uint64_t snapshots = 0;
        std::uint64_t slots_scanned = 0;
        std::uint64_t handovers = 0;
        std::uint64_t cascades = 0;
        // Always 0; kept because perfbench/orc_bench.cpp prints these seven.
        std::uint64_t shard_pushes = 0;
        std::uint64_t shard_drained = 0;
        std::uint64_t scans_shared = 0;
        std::uint64_t chunks_stolen = 0;
        std::uint64_t items_stolen = 0;
        std::uint64_t bg_wakes = 0;
        std::uint64_t bg_parks = 0;
        std::uint64_t peak_unreclaimed = 0;
        /// retired - freed - resurrected, clamped at zero (exact at
        /// quiescence; a mid-cascade read can transiently disagree).
        std::uint64_t unreclaimed = 0;
        telemetry::HistogramSnapshot retire_latency_gens;
        telemetry::HistogramSnapshot handover_chain_len;
        telemetry::HistogramSnapshot snapshot_hps;
        telemetry::HistogramSnapshot cascade_slots_scanned;
        telemetry::HistogramSnapshot retire_free_age;
    };

    Snapshot snapshot() const {
        Snapshot s;
        if constexpr (!telemetry::kTelemetryEnabled) return s;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            const ThreadBlock* bp = tl_[it].load(std::memory_order_acquire);
            if (bp == nullptr) continue;
            const ThreadBlock& t = *bp;
            s.retired += t.c[kRetired].load(std::memory_order_relaxed);
            s.freed_batch += t.c[kFreedBatch].load(std::memory_order_relaxed);
            s.freed_slow += t.c[kFreedSlow].load(std::memory_order_relaxed);
            s.resurrected += t.c[kResurrected].load(std::memory_order_relaxed);
            s.scans += t.c[kScans].load(std::memory_order_relaxed);
            s.snapshots += t.c[kSnapshots].load(std::memory_order_relaxed);
            s.slots_scanned += t.c[kSlotsScanned].load(std::memory_order_relaxed);
            s.handovers += t.c[kHandovers].load(std::memory_order_relaxed);
            s.cascades += t.c[kCascades].load(std::memory_order_relaxed);
            t.hist[kHistLatencyGens].read_into(s.retire_latency_gens);
            t.hist[kHistChainLen].read_into(s.handover_chain_len);
            t.hist[kHistSnapshotHps].read_into(s.snapshot_hps);
            t.hist[kHistCascadeSlots].read_into(s.cascade_slots_scanned);
            t.hist[kHistAge].read_into(s.retire_free_age);
        }
        const std::uint64_t settled = s.freed_batch + s.freed_slow + s.resurrected;
        s.unreclaimed = s.retired > settled ? s.retired - settled : 0;
        // An external read is also a peak sample point: fold the current
        // backlog in, then report the max ever observed.
        const_cast<OrcMetrics*>(this)->raise_peak(s.unreclaimed);
        s.peak_unreclaimed = peak_.load(std::memory_order_relaxed);
        return s;
    }

    /// Drains every counter and histogram to zero and resets the peak.
    /// Exact only at quiescence: the hooks use owner-exclusive plain
    /// load+store increments (see bump()), so a reset racing a live hook can
    /// double-count the increments it drains. Benches and tests reset at
    /// join points, where this never occurs.
    void reset() noexcept {
        if constexpr (!telemetry::kTelemetryEnabled) return;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            ThreadBlock* bp = tl_[it].load(std::memory_order_acquire);
            if (bp == nullptr) continue;
            ThreadBlock& t = *bp;
            for (auto& c : t.c) c.exchange(0, std::memory_order_relaxed);
            telemetry::HistogramSnapshot discard;
            for (auto& h : t.hist) h.drain_into(discard);
        }
        peak_.store(0, std::memory_order_relaxed);
    }

    // ---- tracing -----------------------------------------------------------

    bool tracing() const noexcept {
        return trace_on_.load(std::memory_order_acquire);
    }

    /// Enabling allocates each thread's ring on first use (kTraceCapacity
    /// records x kMaxThreads); disabling only lowers the flag — recorded
    /// events stay readable.
    void set_tracing(bool on) {
        if constexpr (!telemetry::kTelemetryEnabled) {
            (void)on;
            return;
        }
        trace_on_.store(on, std::memory_order_release);
        if (on) {
            // Flag first, then walk: a block created after the walk passes
            // its slot sees the raised flag and reserves its own ring in
            // make_block(); one created during the walk may reserve twice,
            // which reserve() tolerates.
            for (auto& slot : tl_) {
                ThreadBlock* b = slot.load(std::memory_order_acquire);
                if (b != nullptr) b->trace.reserve(kTraceCapacity);
            }
        }
    }

    /// All threads' trace rings, decoded. Meaningful at quiescence.
    std::vector<telemetry::TraceRecord> trace_records() const {
        std::vector<telemetry::TraceRecord> out;
        if constexpr (!telemetry::kTelemetryEnabled) return out;
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            const ThreadBlock* b = tl_[it].load(std::memory_order_acquire);
            if (b == nullptr || !b->trace.reserved()) continue;
            auto part = b->trace.snapshot();
            out.insert(out.end(), part.begin(), part.end());
        }
        return out;
    }

    // ---- MetricProvider ----------------------------------------------------

    const char* telemetry_name() const noexcept override { return name_; }

    telemetry::CommonCounters common_counters() const override {
        const Snapshot s = snapshot();
        telemetry::CommonCounters c;
        c.retired = s.retired;
        c.freed = s.freed_batch + s.freed_slow;
        c.peak_unreclaimed = s.peak_unreclaimed;
        c.scans = s.scans;
        return c;
    }

    void visit_extras(telemetry::MetricSink& sink) const override {
        const Snapshot s = snapshot();
        sink.counter("freed_batch", s.freed_batch);
        sink.counter("freed_slow", s.freed_slow);
        sink.counter("resurrected", s.resurrected);
        sink.counter("snapshots", s.snapshots);
        sink.counter("slots_scanned", s.slots_scanned);
        sink.counter("handovers", s.handovers);
        sink.counter("cascades", s.cascades);
        sink.gauge("unreclaimed", s.unreclaimed);
        if (stall_suspects_ != nullptr) {
            sink.gauge("stall_suspects", stall_suspects_->load(std::memory_order_acquire));
        }
        if (stall_pinned_ != nullptr) {
            sink.gauge("stall_pinned", stall_pinned_->load(std::memory_order_acquire));
        }
        sink.histogram("retire_latency_gens", s.retire_latency_gens);
        sink.histogram("handover_chain_len", s.handover_chain_len);
        sink.histogram("snapshot_hps", s.snapshot_hps);
        sink.histogram("cascade_slots_scanned", s.cascade_slots_scanned);
        sink.histogram("retire_free_age", s.retire_free_age);
    }

    void dump_trace(std::FILE* out) const override {
        if constexpr (!telemetry::kTelemetryEnabled) {
            (void)out;
            return;
        }
        const int wm = thread_id_watermark();
        for (int it = 0; it < wm; ++it) {
            const ThreadBlock* b = tl_[it].load(std::memory_order_acquire);
            if (b == nullptr || !b->trace.reserved()) continue;
            for (const telemetry::TraceRecord& r : b->trace.snapshot()) {
                std::fprintf(out,
                             "{\"source\": \"%s\", \"tid\": %d, \"tsc\": %llu, "
                             "\"type\": \"%s\", \"obj\": \"0x%llx\", \"arg\": %llu}\n",
                             name_, it, static_cast<unsigned long long>(r.tsc),
                             telemetry::trace_type_name(r.type),
                             static_cast<unsigned long long>(r.obj),
                             static_cast<unsigned long long>(r.arg));
            }
        }
    }

  private:
    struct alignas(kCacheLineSize) ThreadBlock {
        // The counters fill the leading cachelines; a Hot flush touches them
        // once per cascade (cascade scratch lives in the Hot handle itself).
        // orc-lint: allow(R8) this IS the telemetry layer the rule points to
        std::atomic<std::uint64_t> c[kNumCounters] = {};
        telemetry::LogHistogram hist[kNumHists];
        telemetry::TraceRing trace;
    };

    /// The calling thread's block, created on first use. Blocks are heap
    /// side-allocations rather than an inline tl_[kMaxThreads] array so a
    /// telemetry-on OrcDomain keeps the exact footprint and field layout of
    /// a telemetry-off one: inlining ~kMaxThreads x 2.5 KB of blocks into
    /// every domain measurably hurt the retire benches (zero-init on
    /// construction, hot domain arrays spread across far more pages).
    ThreadBlock& tb() noexcept {
        std::atomic<ThreadBlock*>& slot = tl_[thread_id()];
        ThreadBlock* b = slot.load(std::memory_order_acquire);
        if (b == nullptr) b = make_block(slot);
        return *b;
    }

    /// Cold path of tb(). Only the owning thread writes its slot, so a plain
    /// release store publishes the block to cross-thread readers (snapshot,
    /// refresh_peak). noinline/cold: tb() is inlined at every token-CAS
    /// site, and letting this allocation path inline with it bloats those
    /// hot functions enough to show up in the retire benches.
    __attribute__((noinline, cold)) ThreadBlock* make_block(std::atomic<ThreadBlock*>& slot) {
        // orc-lint: allow(R6) once per thread x domain, never on a retire path
        ThreadBlock* b = new ThreadBlock();
        if (trace_on_.load(std::memory_order_acquire)) b->trace.reserve(kTraceCapacity);
        slot.store(b, std::memory_order_release);
        return b;
    }

    /// Owner-exclusive increment. Each ThreadBlock is written only by its
    /// owning thread, so a plain load+store replaces fetch_add: no lock
    /// prefix, no pipeline serialization. On the ~100 ns retire paths the
    /// difference between nine locked RMWs and nine of these IS the telemetry
    /// overhead budget (tools/telemetry_overhead.py gates it at 2%).
    static std::uint64_t bump(std::atomic<std::uint64_t>& c,
                              std::uint64_t n = 1) noexcept {
        const std::uint64_t v = c.load(std::memory_order_relaxed) + n;
        c.store(v, std::memory_order_relaxed);
        return v;
    }

    /// Aggregate walk + CAS-max; amortized on the hot path (see header).
    /// noinline: called (rarely, every 64th token) from hook code that is
    /// itself inlined into the retire hot paths — the walk loop and CAS must
    /// not be.
    __attribute__((noinline)) void refresh_peak() noexcept {
        const int wm = thread_id_watermark();
        std::uint64_t retired = 0;
        std::uint64_t settled = 0;
        for (int it = 0; it < wm; ++it) {
            const ThreadBlock* bp = tl_[it].load(std::memory_order_acquire);
            if (bp == nullptr) continue;
            const ThreadBlock& t = *bp;
            retired += t.c[kRetired].load(std::memory_order_relaxed);
            settled += t.c[kFreedBatch].load(std::memory_order_relaxed) +
                       t.c[kFreedSlow].load(std::memory_order_relaxed) +
                       t.c[kResurrected].load(std::memory_order_relaxed);
        }
        if (retired > settled) raise_peak(retired - settled);
    }

    void raise_peak(std::uint64_t candidate) noexcept {
        std::uint64_t cur = peak_.load(std::memory_order_relaxed);
        while (candidate > cur &&
               !peak_.compare_exchange_weak(cur, candidate, std::memory_order_relaxed)) {
        }
    }

    const char* name_;
    std::atomic<bool> trace_on_{false};
    std::atomic<std::uint64_t> peak_{0};
    /// Stalled-reader watchdog gauges, owned by the domain (see
    /// wire_stall_suspects); null until wired.
    const std::atomic<std::uint64_t>* stall_suspects_ = nullptr;
    const std::atomic<std::uint64_t>* stall_pinned_ = nullptr;
    /// Per-thread block pointers, filled lazily by tb(). See tb() for why
    /// the blocks are side-allocations instead of an inline array.
    std::atomic<ThreadBlock*> tl_[telemetry::kTelemetryEnabled ? kMaxThreads : 1] = {};
};

}  // namespace orcgc
