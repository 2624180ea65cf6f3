// orc_bench: one process, one workload, two worker threads, fixed work per
// window. Drives the paper's NM-tree (Figs. 7-8) and MS-queue (Figs. 1-2)
// workloads through the public API of src/ds/orc and reads the library's
// public counters before and after each measured phase; nothing inside the
// library is timed or extended. perfbench/run.py builds and runs this binary
// and turns its JSON into the benchmark's metrics (README.md).
//
//   orc_bench --workload tree-read|tree-write|queue-pairs --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// A run repeats rounds while another one fits in S seconds: a one-window
// warm-up round, whose figures run.py leaves out (a process's first
// whole-structure cascade takes page faults later ones do not), then at
// least kMinRounds more. Each round: generate inputs from (seed, round) ->
// build and prefill the structure (setup) -> measured windows back to back,
// each releasing both workers on a fixed number of loop iterations ->
// check outputs -> destroy the structure (teardown) -> check that every
// object was reclaimed. With --trace 1 the measured windows alternate
// untraced/traced, traced windows keep one span per timed call in
// per-worker memory, two unit-cost probes run after the last round, and
// every span is written to FILE at exit.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/telemetry.hpp"
#include "core/orc.hpp"
#include "ds/orc/ms_queue_orc.hpp"
#include "ds/orc/nm_tree_orc.hpp"

#ifndef ORC_BENCH_BUILD_TYPE
#define ORC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ORC_BENCH_CXX_FLAGS
#define ORC_BENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace orcgc;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 2;
constexpr int kMinRounds = 3;
constexpr std::uint32_t kKeyRange = 1'000'000;
constexpr std::uint32_t kPrefillKeys = kKeyRange / 2;
constexpr std::uint32_t kInsertBit = 1u << 31;  // tree-write op: insert if set, else remove
constexpr std::uint64_t kQueuePrefill = 256;
constexpr int kQueueSpares = 32;        // spare queues set up and torn down per round
constexpr int kStride = 32;             // every kStride-th loop iteration is timed
constexpr std::uint32_t kCheckSample = 1u << 16;  // keys re-read with contains() per round
constexpr int kSamplerTickMs = 10;
constexpr int kTreeSentinels = 5;       // nodes NMTreeOrc's constructor allocates
constexpr int kHeavyProbeCalls = 4000;
constexpr int kLoadProbeBatches = 4000;
constexpr int kLoadProbeBatch = 64;

// Span kinds; summarize.py carries the same table.
enum Kind : std::uint8_t {
    kContains, kInsert, kRemove, kEnqueue, kDequeue,  // timed calls
    kPhaseSetup, kPhaseMeasured, kPhaseTeardown, kPhaseProbes,
    kProbeHeavy,  // one asym::heavy() call
    kProbeLoad,   // kLoadProbeBatch orc_atomic::load() + orc_ptr releases
};

struct Span {
    std::uint8_t kind;
    std::uint8_t worker;  // 255 = main thread
    std::uint16_t round;
    std::uint32_t pad;
    std::int64_t start_ns;
    std::int64_t end_ns;
};
static_assert(sizeof(Span) == 24, "summarize.py unpacks 24-byte spans");

const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

[[noreturn]] void die(const char* msg) {
    std::fprintf(stderr, "orc_bench: %s\n", msg);
    std::exit(2);
}

struct SplitMix {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }
};

std::uint64_t stream_seed(std::uint64_t seed, int round, int stream) {
    SplitMix m{seed * 0x100000001B3ULL + static_cast<std::uint64_t>(round) * 977 +
               static_cast<std::uint64_t>(stream)};
    return m.next();
}

enum class Workload { kTreeRead, kTreeWrite, kQueuePairs };

struct Config {
    Workload workload = Workload::kTreeRead;
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_path;
    std::uint64_t iters = 0;  // loop iterations per worker per measured window
    int windows = 1;          // measured windows per round (the warm-up round has one)
};

// Loop iterations per worker per window, and windows per round: a tree
// iteration is one call, a queue iteration is an enqueue/dequeue pair (two
// calls). A tree prefill takes 1-2 s, so a tree round measures several
// windows of about 0.2 s on one tree. One teardown differs from the next by
// up to a fifth, so a tree-write round keeps to three windows and a 50 s
// run holds 9-12 rounds (as many set-up and teardown samples) and 27-36
// windows. A queue round is one window, and a run 57-70 of them, each long
// enough that the peak backlog (hence max RSS) is not the extreme of many
// tiny rounds.
Config shape(Config c) {
    switch (c.workload) {
        case Workload::kTreeRead: c.iters = 30'000, c.windows = 8; break;
        case Workload::kTreeWrite: c.iters = 25'000, c.windows = 3; break;
        case Workload::kQueuePairs: c.iters = 250'000, c.windows = 1; break;
    }
    return c;
}

// ---- per-round state shared between main, workers and the sampler ---------

struct alignas(64) Progress {
    std::atomic<std::uint64_t> iters{0};
    std::atomic<std::int64_t> net{0};  // structure-size change made by this worker
};

struct WorkerOut {
    std::vector<std::uint32_t> ops;     // tree inputs of the round: key | kInsertBit
    std::vector<std::uint8_t> ok;       // tree outcome per op
    std::vector<std::uint64_t> got;     // queue: values this worker dequeued
    std::vector<std::uint32_t> lat_ns;  // untraced window: duration of each timed call
    std::vector<Span> spans;            // traced windows: all spans of this worker
    std::int64_t finish_ns = 0;         // end of this worker's part of the window
    std::uint64_t update_attempts = 0, update_ok = 0, deq_attempts = 0, deq_empty = 0;

    // Clears for the next round but keeps every buffer's pages, so the
    // measured phase never faults them in again.
    void reset() {
        ops.clear();
        ok.clear();
        got.clear();
        lat_ns.clear();
        spans.clear();
        finish_ns = 0;
        update_attempts = update_ok = deq_attempts = deq_empty = 0;
    }
};

using Tree = NMTreeOrc<std::uint64_t>;
using Queue = MSQueueOrc<std::uint64_t>;

struct ProbeNode : orc_base {
    orc_atomic<ProbeNode*> next;
};

enum class Job { kIdle, kRun, kProbeHeavy, kProbeLoad, kExit };

struct Shared {
    Config cfg;
    std::atomic<int> epoch{0};  // bumped to release the workers; futex-waited
    std::atomic<int> done{0};
    Job job = Job::kIdle;
    int round = 0;
    int windows = 1;  // windows in this round
    int window = 0;   // the window being measured
    bool traced_window = false;
    std::int64_t release_ns = 0;
    Tree* tree = nullptr;
    Queue* queue = nullptr;
    ProbeNode* probe_node = nullptr;
    std::atomic<bool> probe_stop{false};
    Progress progress[kWorkers];
    WorkerOut out[kWorkers];
};

template <bool Traced>
struct Timer {
    WorkerOut& out;
    std::uint8_t worker;
    std::uint16_t round;
    void record(Kind k, std::int64_t t0, std::int64_t t1) {
        if constexpr (Traced) {
            out.spans.push_back(Span{k, worker, round, 0, t0, t1});
        } else {
            out.lat_ns.push_back(
                static_cast<std::uint32_t>(std::min<std::int64_t>(t1 - t0, UINT32_MAX)));
        }
    }
};

template <bool Traced>
void run_tree(Shared& sh, int w) {
    WorkerOut& out = sh.out[w];
    Progress& prog = sh.progress[w];
    Tree& tree = *sh.tree;
    Timer<Traced> timer{out, static_cast<std::uint8_t>(w), static_cast<std::uint16_t>(sh.round)};
    const bool reads = sh.cfg.workload == Workload::kTreeRead;
    const std::uint64_t begin = static_cast<std::uint64_t>(sh.window) * sh.cfg.iters;
    const std::uint64_t end = begin + sh.cfg.iters;
    std::int64_t net = prog.net.load(std::memory_order_relaxed);
    std::uint64_t updated = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint32_t op = out.ops[i];
        const std::uint64_t key = op & ~kInsertBit;
        const Kind kind = reads ? kContains : ((op & kInsertBit) ? kInsert : kRemove);
        const bool timed = i % kStride == 0;
        const std::int64_t t0 = timed ? now_ns() : 0;
        bool r;
        if (kind == kContains) {
            r = tree.contains(key);
        } else if (kind == kInsert) {
            r = tree.insert(key);
            net += r;
            updated += r;
        } else {
            r = tree.remove(key);
            net -= r;
            updated += r;
        }
        if (timed) timer.record(kind, t0, now_ns());
        out.ok[i] = r;
        prog.iters.store(i + 1, std::memory_order_relaxed);
        prog.net.store(net, std::memory_order_relaxed);
    }
    if (!reads) {
        out.update_attempts += sh.cfg.iters;
        out.update_ok += updated;
    }
}

// Queue values carry (producer, sequence): producer 0 is the prefill.
constexpr std::uint64_t qval(std::uint64_t producer, std::uint64_t seq) {
    return (producer << 40) | seq;
}

template <bool Traced>
void run_queue(Shared& sh, int w) {
    WorkerOut& out = sh.out[w];
    Progress& prog = sh.progress[w];
    Queue& queue = *sh.queue;
    Timer<Traced> timer{out, static_cast<std::uint8_t>(w), static_cast<std::uint16_t>(sh.round)};
    const std::uint64_t begin = static_cast<std::uint64_t>(sh.window) * sh.cfg.iters;
    const std::uint64_t end = begin + sh.cfg.iters;
    const std::uint64_t producer = static_cast<std::uint64_t>(w) + 1;
    std::int64_t net = prog.net.load(std::memory_order_relaxed);
    for (std::uint64_t i = begin; i < end; ++i) {
        const bool timed = i % kStride == 0;
        std::int64_t t0 = timed ? now_ns() : 0;
        queue.enqueue(qval(producer, i));
        ++net;
        if (timed) {
            const std::int64_t t1 = now_ns();
            timer.record(kEnqueue, t0, t1);
            t0 = now_ns();
        }
        const std::optional<std::uint64_t> v = queue.dequeue();
        if (timed) timer.record(kDequeue, t0, now_ns());
        if (v) {
            out.got.push_back(*v);
            --net;
        } else {
            ++out.deq_empty;
        }
        prog.iters.store(i + 1, std::memory_order_relaxed);
        prog.net.store(net, std::memory_order_relaxed);
    }
    out.deq_attempts += sh.cfg.iters;
}

// Probes: asym::heavy() timed on worker 0 while worker 1 spins; the
// orc_atomic::load() + orc_ptr release pair timed in batches on both.
void probe_heavy(Shared& sh, int w) {
    WorkerOut& out = sh.out[w];
    if (w != 0) {
        while (!sh.probe_stop.load(std::memory_order_acquire)) {
        }
        return;
    }
    for (int i = 0; i < kHeavyProbeCalls; ++i) {
        const std::int64_t t0 = now_ns();
        asym::heavy();
        out.spans.push_back(
            Span{kProbeHeavy, 0, static_cast<std::uint16_t>(sh.round), 0, t0, now_ns()});
    }
    sh.probe_stop.store(true, std::memory_order_release);
}

void probe_load(Shared& sh, int w) {
    WorkerOut& out = sh.out[w];
    orc_atomic<ProbeNode*>& link = sh.probe_node->next;
    for (int b = 0; b < kLoadProbeBatches; ++b) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kLoadProbeBatch; ++i) {
            orc_ptr<ProbeNode*> p = link.load();  // publish + validate, then release
        }
        out.spans.push_back(Span{kProbeLoad, static_cast<std::uint8_t>(w),
                                 static_cast<std::uint16_t>(sh.round), 0, t0, now_ns()});
    }
}

void worker_main(Shared& sh, int w) {
    int seen = 0;
    while (true) {
        sh.epoch.wait(seen, std::memory_order_acquire);
        seen = sh.epoch.load(std::memory_order_acquire);
        switch (sh.job) {
            case Job::kRun:
                if (sh.cfg.workload == Workload::kQueuePairs) {
                    sh.traced_window ? run_queue<true>(sh, w) : run_queue<false>(sh, w);
                } else {
                    sh.traced_window ? run_tree<true>(sh, w) : run_tree<false>(sh, w);
                }
                sh.out[w].finish_ns = now_ns();
                break;
            case Job::kProbeHeavy: probe_heavy(sh, w); break;
            case Job::kProbeLoad: probe_load(sh, w); break;
            case Job::kExit: return;
            case Job::kIdle: break;
        }
        sh.done.fetch_add(1, std::memory_order_acq_rel);
        sh.done.notify_all();
    }
}

// Releases both workers on `job` and blocks (futex, not spin: a spinning main
// thread would change the heavy fence's cost) until both report done.
void dispatch(Shared& sh, Job job) {
    sh.job = job;
    sh.done.store(0, std::memory_order_relaxed);
    sh.release_ns = now_ns();
    sh.epoch.fetch_add(1, std::memory_order_acq_rel);
    sh.epoch.notify_all();
    for (int d = sh.done.load(std::memory_order_acquire); d < kWorkers;
         d = sh.done.load(std::memory_order_acquire)) {
        sh.done.wait(d, std::memory_order_acquire);
    }
}

// ---- counters read from outside the library --------------------------------

struct Counters {
    OrcMetrics::Snapshot orc;
    std::uint64_t heavy = 0;
    std::int64_t objects = 0, alloc_live = 0, double_destroys = 0, dead_accesses = 0;
    double utime = 0, stime = 0;
    long nivcsw = 0, minflt = 0;
};

double tv_s(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

Counters read_counters() {
    Counters c;
    OrcDomain& dom = OrcDomain::global();
    c.orc = dom.metrics().snapshot();
    c.heavy = asym::heavy_fences();
    c.objects = dom.object_count();
    AllocCounters& ac = AllocCounters::instance();
    c.alloc_live = ac.live_count();
    c.double_destroys = ac.double_destroys();
    c.dead_accesses = ac.dead_accesses();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    c.utime = tv_s(ru.ru_utime);
    c.stime = tv_s(ru.ru_stime);
    c.nivcsw = ru.ru_nivcsw;
    c.minflt = ru.ru_minflt;
    return c;
}

// Counter names and accessors, in the order they are printed.
#define ORC_BENCH_ORC_COUNTERS(X)                                                     \
    X(retired) X(freed_batch) X(freed_slow) X(resurrected) X(scans) X(snapshots)    \
    X(slots_scanned) X(handovers) X(cascades) X(shard_pushes) X(shard_drained)      \
    X(scans_shared) X(chunks_stolen) X(items_stolen) X(bg_wakes) X(bg_parks)

void print_delta(FILE* f, const Counters& a, const Counters& b) {
    std::fputc('{', f);
#define X(name) std::fprintf(f, "\"" #name "\": %" PRIu64 ", ", b.orc.name - a.orc.name);
    ORC_BENCH_ORC_COUNTERS(X)
#undef X
    std::fprintf(f,
                 "\"heavy_fences\": %" PRIu64 ", \"utime_s\": %.6f, \"stime_s\": %.6f, "
                 "\"nivcsw\": %ld, \"minflt\": %ld}",
                 b.heavy - a.heavy, b.utime - a.utime, b.stime - a.stime, b.nivcsw - a.nivcsw,
                 b.minflt - a.minflt);
}

// ---- memory / stall sampler ------------------------------------------------

struct SamplerOut {
    std::int64_t live_peak = 0;
    std::int64_t pending_peak = 0;
    std::int64_t stall_max_ns = 0;  // longest a worker's iteration count stood still
    int samples = 0;
};

void sampler_main(Shared& sh, std::atomic<bool>& stop, std::int64_t implied_base,
                  int nodes_per_item, SamplerOut& so) {
    OrcDomain& dom = OrcDomain::global();
    const std::uint64_t round_iters = sh.cfg.iters * static_cast<std::uint64_t>(sh.windows);
    std::uint64_t last[kWorkers] = {};
    std::int64_t since[kWorkers];
    for (auto& s : since) s = now_ns();
    while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kSamplerTickMs));
        const std::int64_t t = now_ns();
        std::int64_t size = 0;
        for (int w = 0; w < kWorkers; ++w) {
            const std::uint64_t it = sh.progress[w].iters.load(std::memory_order_relaxed);
            size += sh.progress[w].net.load(std::memory_order_relaxed);
            if (it != last[w] || it % sh.cfg.iters == 0 || it == round_iters) {
                last[w] = it;
                since[w] = t;
            } else {
                so.stall_max_ns = std::max(so.stall_max_ns, t - since[w]);
            }
        }
        const std::int64_t live = dom.object_count();
        so.live_peak = std::max(so.live_peak, live);
        so.pending_peak =
            std::max(so.pending_peak, live - (implied_base + nodes_per_item * size));
        ++so.samples;
    }
}

// ---- output checks ---------------------------------------------------------

struct Checks {
    std::uint64_t attempted = 0;  // calls made by the workers
    std::uint64_t failed = 0;     // calls or items an output check refuted
    std::vector<std::string> notes;
    void fail(std::uint64_t n, const char* what) {
        if (n == 0) return;
        failed += n;
        if (notes.size() < 16) notes.push_back(std::to_string(n) + " " + what);
    }
};

std::vector<std::uint8_t> prefill_set(std::uint64_t seed, int round,
                                      std::vector<std::uint32_t>& order) {
    order.resize(kKeyRange);
    for (std::uint32_t k = 0; k < kKeyRange; ++k) order[k] = k;
    SplitMix rng{stream_seed(seed, round, 100)};
    for (std::uint32_t k = kKeyRange - 1; k > 0; --k) std::swap(order[k], order[rng.below(k + 1)]);
    order.resize(kPrefillKeys);  // the first half of a shuffle: a random half, in random order
    std::vector<std::uint8_t> present(kKeyRange, 0);
    for (std::uint32_t k : order) present[k] = 1;
    return present;
}

void check_tree(Shared& sh, Tree& tree, const std::vector<std::uint8_t>& present, Checks& ck) {
    if (sh.cfg.workload == Workload::kTreeRead) {
        std::uint64_t wrong = 0;
        for (const WorkerOut& o : sh.out) {
            for (std::size_t i = 0; i < o.ops.size(); ++i) wrong += o.ok[i] != present[o.ops[i]];
        }
        ck.fail(wrong, "contains() results disagree with the prefill");
        return;
    }
    std::vector<std::int32_t> net(present.begin(), present.end());
    for (const WorkerOut& o : sh.out) {
        for (std::size_t i = 0; i < o.ops.size(); ++i) {
            if (o.ok[i]) net[o.ops[i] & ~kInsertBit] += (o.ops[i] & kInsertBit) ? 1 : -1;
        }
    }
    std::uint64_t bad_net = 0;
    for (std::int32_t v : net) bad_net += v != 0 && v != 1;
    ck.fail(bad_net, "keys with a net insert/remove tally outside {0,1}");
    SplitMix rng{stream_seed(sh.cfg.seed, sh.round, 200)};
    std::uint64_t wrong = 0;
    for (std::uint32_t s = 0; s < kCheckSample; ++s) {
        const std::uint32_t k = rng.below(kKeyRange);
        wrong += tree.contains(k) != (net[k] == 1);
    }
    ck.fail(wrong, "sampled contains() disagreeing with the net tallies");
}

void check_queue(Shared& sh, Queue& queue, Checks& ck) {
    // Producers: 0 = prefill (kQueuePrefill values), w+1 = worker w (iters values).
    std::vector<std::vector<std::uint8_t>> seen(kWorkers + 1);
    seen[0].assign(kQueuePrefill, 0);
    for (int w = 0; w < kWorkers; ++w) seen[w + 1].assign(sh.cfg.iters * sh.windows, 0);
    std::uint64_t bad = 0, order = 0;
    auto consume = [&](const std::vector<std::uint64_t>& got) {
        std::vector<std::int64_t> last(kWorkers + 1, -1);
        for (std::uint64_t v : got) {
            const std::uint64_t p = v >> 40, s = v & ((1ULL << 40) - 1);
            if (p > kWorkers || s >= seen[p].size() || seen[p][s]++ != 0) {
                ++bad;
                continue;
            }
            if (static_cast<std::int64_t>(s) <= last[p]) ++order;
            last[p] = static_cast<std::int64_t>(s);
        }
    };
    for (const WorkerOut& o : sh.out) consume(o.got);
    std::vector<std::uint64_t> drained;
    while (std::optional<std::uint64_t> v = queue.dequeue()) drained.push_back(*v);
    consume(drained);
    std::uint64_t missing = 0;
    for (const auto& s : seen) missing += std::count(s.begin(), s.end(), std::uint8_t{0});
    ck.fail(bad, "dequeued values never enqueued or dequeued twice");
    ck.fail(order, "dequeues out of a producer's FIFO order");
    ck.fail(missing, "enqueued values lost");
}

// ---- the run ---------------------------------------------------------------

double median_ns(std::vector<std::int64_t> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double pct(std::vector<std::uint32_t>& v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
    return v[i];
}

std::uint64_t calls_per_iter(const Config& c) {
    return c.workload == Workload::kQueuePairs ? 2 : 1;
}

void make_inputs(Shared& sh) {
    for (int w = 0; w < kWorkers; ++w) {
        WorkerOut& o = sh.out[w];
        o.reset();
        sh.progress[w].iters.store(0, std::memory_order_relaxed);
        sh.progress[w].net.store(0, std::memory_order_relaxed);
        const std::uint64_t n = sh.cfg.iters * static_cast<std::uint64_t>(sh.windows);
        if (sh.cfg.workload == Workload::kQueuePairs) {
            o.got.reserve(n);
        } else {
            SplitMix rng{stream_seed(sh.cfg.seed, sh.round, w)};
            o.ops.resize(n);
            o.ok.assign(n, 0);
            const bool writes = sh.cfg.workload == Workload::kTreeWrite;
            for (auto& op : o.ops) {
                const std::uint64_t r = rng.next();
                op = static_cast<std::uint32_t>((r >> 1) % kKeyRange) |
                     ((writes && (r & 1)) ? kInsertBit : 0);
            }
        }
        const std::uint64_t timed = (sh.cfg.iters / kStride + 1) * calls_per_iter(sh.cfg);
        o.lat_ns.reserve(timed);
        if (sh.cfg.trace) o.spans.reserve(timed * static_cast<std::uint64_t>(sh.windows));
    }
}

void print_env(FILE* f) {
    std::fprintf(f,
                 "\"env\": {\"compiler\": \"%s\", \"cxx_flags\": \"%s\", \"build_type\": \"%s\", "
                 "\"asym_fence_mode\": \"%s\", \"membarrier_supported\": %s, "
                 "\"telemetry\": %s, \"hardware_concurrency\": %u, \"workers\": %d, "
                 "\"stride\": %d}",
#if defined(__clang__)
                 "clang " __clang_version__,
#elif defined(__GNUC__)
                 "gcc " __VERSION__,
#else
                 "unknown",
#endif
                 ORC_BENCH_CXX_FLAGS, ORC_BENCH_BUILD_TYPE, asym::mode_name(asym::mode()),
                 asym::membarrier_supported() ? "true" : "false",
                 telemetry::kTelemetryEnabled ? "true" : "false",
                 std::thread::hardware_concurrency(), kWorkers, kStride);
}

Config parse(int argc, char** argv) {
    Config c;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) die("every option takes a value");
        const char* v = argv[++i];
        if (a == "--workload") {
            c.name = v;
            have_workload = true;
            if (c.name == "tree-read") c.workload = Workload::kTreeRead;
            else if (c.name == "tree-write") c.workload = Workload::kTreeWrite;
            else if (c.name == "queue-pairs") c.workload = Workload::kQueuePairs;
            else die("unknown --workload (tree-read, tree-write, queue-pairs)");
        } else if (a == "--seed") {
            c.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            c.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            c.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--spans") {
            c.spans_path = v;
        } else {
            die("unknown option");
        }
    }
    if (!have_workload) die("--workload is required");
    c = shape(c);
    if (c.trace && c.spans_path.empty()) die("--trace 1 needs --spans FILE");
    return c;
}

}  // namespace

int main(int argc, char** argv) {
    auto sh = std::make_unique<Shared>();
    sh->cfg = parse(argc, argv);
    const Config& cfg = sh->cfg;
    const bool tree_wl = cfg.workload != Workload::kQueuePairs;

    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) workers.emplace_back(worker_main, std::ref(*sh), w);

    Checks ck;
    const Counters base = read_counters();
    std::vector<Span> main_spans;
    std::vector<std::uint32_t> order;
    std::string rounds_json;
    const std::int64_t run_start = now_ns();
    std::int64_t longest_round_ns = 0;
    bool trace_next = false;  // traced runs alternate untraced and traced windows

    for (int round = 0;; ++round) {
        const std::int64_t round_start = now_ns();
        sh->round = round;
        sh->windows = round == 0 ? 1 : cfg.windows;
        make_inputs(*sh);
        std::vector<std::uint8_t> present;
        if (tree_wl) present = prefill_set(cfg.seed, round, order);

        // setup. A queue's set-up and teardown take microseconds, so a queue
        // round also builds and destroys kQueueSpares prefilled spare
        // queues first and reports the median. The measured queue's own
        // teardown is no sample: its output check drains it.
        auto prefill_queue = [] {
            auto q = std::make_unique<Queue>();
            for (std::uint64_t i = 0; i < kQueuePrefill; ++i) q->enqueue(qval(0, i));
            return q;
        };
        std::vector<std::int64_t> setup_ns, teardown_ns;
        for (int i = 0; !tree_wl && i < kQueueSpares; ++i) {
            const std::int64_t a = now_ns();
            std::unique_ptr<Queue> spare = prefill_queue();
            const std::int64_t b = now_ns();
            spare.reset();
            teardown_ns.push_back(now_ns() - b);
            setup_ns.push_back(b - a);
        }
        const std::int64_t s0 = now_ns();
        std::unique_ptr<Tree> tree;
        std::unique_ptr<Queue> queue;
        if (tree_wl) {
            tree = std::make_unique<Tree>();
            for (std::uint32_t k : order) tree->insert(k);
        } else {
            queue = prefill_queue();
        }
        const std::int64_t s1 = now_ns();
        setup_ns.push_back(s1 - s0);
        sh->tree = tree.get();
        sh->queue = queue.get();

        // measured phase: the round's windows back to back on one structure
        SamplerOut so;
        std::atomic<bool> stop_sampler{false};
        const std::int64_t implied_base =
            tree_wl ? kTreeSentinels + 2 * static_cast<std::int64_t>(kPrefillKeys)
                    : 1 + static_cast<std::int64_t>(kQueuePrefill);
        const Counters before = read_counters();
        std::thread sampler(sampler_main, std::ref(*sh), std::ref(stop_sampler), implied_base,
                            tree_wl ? 2 : 1, std::ref(so));
        std::string windows_json;
        std::int64_t m0 = 0, m1 = 0;
        std::uint64_t lat_n = 0;
        for (int win = 0; win < sh->windows; ++win) {
            sh->window = win;
            sh->traced_window = cfg.trace && round > 0 && (trace_next = !trace_next);
            dispatch(*sh, Job::kRun);
            const std::int64_t release = sh->release_ns;
            std::int64_t first = INT64_MAX, last = 0;
            std::vector<std::uint32_t> lat;
            for (WorkerOut& o : sh->out) {
                first = std::min(first, o.finish_ns);
                last = std::max(last, o.finish_ns);
                lat.insert(lat.end(), o.lat_ns.begin(), o.lat_ns.end());
                o.lat_ns.clear();
            }
            if (win == 0) m0 = release;
            m1 = last;
            lat_n += lat.size();
            const double p50 = pct(lat, 0.50), p99 = pct(lat, 0.99);
            char wbuf[256];
            std::snprintf(wbuf, sizeof wbuf,
                          "%s{\"traced\": %s, \"calls\": %" PRIu64
                          ", \"wall_s\": %.9f, \"first_finish_s\": %.9f, \"lat_samples\": %zu, "
                          "\"lat_p50_ns\": %.0f, \"lat_p99_ns\": %.0f}",
                          win == 0 ? "" : ", ", sh->traced_window ? "true" : "false",
                          kWorkers * cfg.iters * calls_per_iter(cfg), (last - release) * 1e-9,
                          (first - release) * 1e-9, lat.size(), p50, p99);
            windows_json += wbuf;
        }
        stop_sampler.store(true, std::memory_order_release);
        sampler.join();
        const Counters after = read_counters();

        // output checks, then teardown (the whole-structure cascade)
        const std::uint64_t failed_before = ck.failed;
        if (tree_wl) {
            check_tree(*sh, *tree, present, ck);
        } else {
            check_queue(*sh, *queue, ck);
        }
        const Counters pre_teardown = read_counters();
        const std::int64_t t0 = now_ns();
        tree.reset();
        queue.reset();
        const std::int64_t t1 = now_ns();
        const Counters post = read_counters();
        if (tree_wl) teardown_ns.push_back(t1 - t0);
        sh->tree = nullptr;
        sh->queue = nullptr;
        ck.fail(post.objects != 0 ? 1 : 0, "rounds ending with object_count() != 0");
        ck.fail(post.alloc_live != base.alloc_live ? 1 : 0,
                "rounds ending with AllocCounters::live_count() off its baseline");

        // round record
        const std::uint64_t calls =
            kWorkers * cfg.iters * calls_per_iter(cfg) * static_cast<std::uint64_t>(sh->windows);
        std::uint64_t upd_a = 0, upd_ok = 0, deq_a = 0, deq_e = 0;
        for (const WorkerOut& o : sh->out) {
            upd_a += o.update_attempts;
            upd_ok += o.update_ok;
            deq_a += o.deq_attempts;
            deq_e += o.deq_empty;
        }
        ck.attempted += calls;
        char buf[1024];
        std::snprintf(buf, sizeof buf,
                      "%s{\"round\": %d, \"warmup\": %s, \"calls\": %" PRIu64
                      ", \"measured_s\": %.9f, \"setup_s\": %.9f, \"teardown_s\": %.9f, "
                      "\"setup_samples\": %zu, \"teardown_samples\": %zu, "
                      "\"lat_samples\": %" PRIu64 ", \"update_attempts\": %" PRIu64
                      ", \"update_ok\": %" PRIu64 ", \"deq_attempts\": %" PRIu64
                      ", \"deq_empty\": %" PRIu64
                      ", \"live_peak\": %" PRId64 ", \"pending_peak\": %" PRId64
                      ", \"stall_max_s\": %.6f, \"sampler_ticks\": %d, \"failed\": %" PRIu64
                      ", \"windows\": [",
                      round == 0 ? "" : ", ", round, round == 0 ? "true" : "false", calls,
                      (m1 - m0) * 1e-9, median_ns(setup_ns) * 1e-9, median_ns(teardown_ns) * 1e-9,
                      setup_ns.size(), teardown_ns.size(), lat_n, upd_a, upd_ok, deq_a, deq_e,
                      so.live_peak, so.pending_peak, so.stall_max_ns * 1e-9, so.samples,
                      ck.failed - failed_before);
        rounds_json += buf;
        rounds_json += windows_json;
        rounds_json += "], \"measured\": ";
        {
            char* mem = nullptr;
            std::size_t len = 0;
            FILE* f = open_memstream(&mem, &len);
            print_delta(f, before, after);
            std::fputs(", \"teardown\": ", f);
            print_delta(f, pre_teardown, post);
            std::fputc('}', f);
            std::fclose(f);
            rounds_json.append(mem, len);
            std::free(mem);
        }
        if (cfg.trace && round > 0) {
            const auto r16 = static_cast<std::uint16_t>(round);
            main_spans.push_back(Span{kPhaseSetup, 255, r16, 0, s0, s1});
            main_spans.push_back(Span{kPhaseMeasured, 255, r16, 0, m0, m1});
            main_spans.push_back(Span{kPhaseTeardown, 255, r16, 0, t0, t1});
            for (WorkerOut& o : sh->out) {
                main_spans.insert(main_spans.end(), o.spans.begin(), o.spans.end());
            }
        }
        // Start another round only if one as long as the longest so far
        // still ends within --seconds.
        const std::int64_t now = now_ns();
        if (round > 0) longest_round_ns = std::max(longest_round_ns, now - round_start);
        const bool fits = (now - run_start + longest_round_ns) * 1e-9 <= cfg.seconds;
        if (round >= kMinRounds && !fits) break;
    }

    // Probes (traced run only), at the workload's thread count.
    std::string probes_json = "null";
    if (cfg.trace) {
        sh->round = 0xFFFF;
        for (WorkerOut& o : sh->out) o.reset();
        const std::int64_t p0 = now_ns();
        dispatch(*sh, Job::kProbeHeavy);
        sh->probe_stop.store(false, std::memory_order_relaxed);
        {
            orc_ptr<ProbeNode*> holder = make_orc<ProbeNode>();
            orc_ptr<ProbeNode*> target = make_orc<ProbeNode>();
            holder->next.store(target);
            sh->probe_node = holder.get();
            dispatch(*sh, Job::kProbeLoad);
            sh->probe_node = nullptr;
        }
        const std::int64_t p1 = now_ns();
        main_spans.push_back(Span{kPhaseProbes, 255, 0xFFFF, 0, p0, p1});
        for (WorkerOut& o : sh->out) {
            main_spans.insert(main_spans.end(), o.spans.begin(), o.spans.end());
        }
        probes_json = "{\"load_batch\": " + std::to_string(kLoadProbeBatch) + "}";
    }

    sh->job = Job::kExit;
    sh->epoch.fetch_add(1, std::memory_order_acq_rel);
    sh->epoch.notify_all();
    for (auto& t : workers) t.join();

    if (cfg.trace) {
        FILE* f = std::fopen(cfg.spans_path.c_str(), "wb");
        if (f == nullptr || std::fwrite(main_spans.data(), sizeof(Span), main_spans.size(), f) !=
                                main_spans.size()) {
            die("cannot write the span file");
        }
        std::fclose(f);
    }

    const Counters end = read_counters();
    ck.fail(end.objects != 0 ? 1 : 0, "runs ending with object_count() != 0");
    ck.fail(static_cast<std::uint64_t>(end.double_destroys - base.double_destroys),
            "double destroys (AllocCounters)");
    ck.fail(static_cast<std::uint64_t>(end.dead_accesses - base.dead_accesses),
            "dead accesses (AllocCounters)");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %s, \"iters\": %" PRIu64
                ", \"key_range\": %u, \"prefill\": %" PRIu64 ", ",
                cfg.name.c_str(), cfg.seed, cfg.trace ? "true" : "false", cfg.iters, kKeyRange,
                tree_wl ? static_cast<std::uint64_t>(kPrefillKeys) : kQueuePrefill);
    print_env(stdout);
    std::printf(", \"max_rss_kb\": %ld, \"peak_unreclaimed\": %" PRIu64
                ", \"elapsed_s\": %.3f, \"probes\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"failures\": [",
                ru.ru_maxrss, end.orc.peak_unreclaimed, (now_ns() - run_start) * 1e-9,
                probes_json.c_str(), ck.attempted, ck.failed);
    for (std::size_t i = 0; i < ck.notes.size(); ++i) {
        std::printf("%s\"%s\"", i ? ", " : "", ck.notes[i].c_str());
    }
    std::printf("], \"rounds\": [%s]}\n", rounds_json.c_str());
    return 0;
}
