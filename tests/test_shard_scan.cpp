// Displacement and concurrent scans on the retire path (core/orc_domain.hpp).
//
// The contract under test:
//   * Algorithm 6: a park that lands on an occupied handover slot hands the
//     old occupant back to the retiring thread, which re-scans it inline, so
//     a stalled reader pins at most one object per hp index (the per-slot
//     half of the paper's O(H·t) bound).
//   * A retire covered by the retiring thread's own hp parks there with no
//     heavy fence; the owner's release drains the park back through the
//     fenced scan, which yields to any remote protection.
//   * A thread that exits with an abandoned index has its hp and its parked
//     handover drained by the exit hook before its registry slot is reused.
//   * Wide cascades running at once in one domain overlap their batched
//     scan generations and still free every object exactly once.
//   * A batched generation parks exactly the members a published hp covers,
//     once each, and spends one heavy fence however long it is.
// Companion: tests/test_retire_paths.cpp (watermarks, single-thread cascades).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/alloc_tracker.hpp"
#include "common/asym_fence.hpp"
#include "common/barrier.hpp"
#include "common/telemetry.hpp"
#include "core/orc.hpp"
#include "ds/orc/ms_queue_orc.hpp"
#include "ds/orc/nm_tree_orc.hpp"

namespace orcgc {
namespace {

struct Node : orc_base, TrackedObject {
    std::uint64_t value = 0;
};

struct WideNode : orc_base, TrackedObject {
    static constexpr int kChildren = 32;
    orc_atomic<WideNode*> child[kChildren];
};

struct BinNode : orc_base, TrackedObject {
    orc_atomic<BinNode*> left;
    orc_atomic<BinNode*> right;
};

/// A complete binary tree of `depth` levels, allocated into `dom`.
orc_ptr<BinNode*> build_tree(OrcDomain& dom, int depth) {
    orc_ptr<BinNode*> n = make_orc_in<BinNode>(dom);
    if (depth > 1) {
        n->left.store(build_tree(dom, depth - 1));
        n->right.store(build_tree(dom, depth - 1));
    }
    return n;
}

void await_phase(const std::atomic<int>& phase, int v) {
    while (phase.load(std::memory_order_acquire) < v) std::this_thread::yield();
}

void advance(std::atomic<int>& phase) { phase.fetch_add(1, std::memory_order_acq_rel); }

// heavy() counts nothing in the seqcst and off modes, so fence counts are
// asserted only where it issues a barrier.
bool heavy_counts() {
    return asym::mode() == asym::Mode::kMembarrier || asym::mode() == asym::Mode::kFence;
}

// ------------------------------------------------------ concurrent cascades

// Several threads run wide cascades in one domain at once, so their batched
// generations overlap. Every object must be freed exactly once: object_count
// catches a lost object, double_destroys and the build's sanitizer (ASan /
// TSan / OrcSan) a double free or a data race.
TEST(RetireCascade, ConcurrentWideCascadesFreeEveryNodeExactlyOnce) {
    static_assert(WideNode::kChildren >= static_cast<int>(OrcDomain::kSnapshotMin),
                  "fanout must be wide enough to exercise the batched path");
    auto& counters = AllocCounters::instance();
    const auto doubles_before = counters.double_destroys();
    auto dom = std::make_unique<OrcDomain>();
    constexpr int kThreads = 4;
    constexpr int kIters = 300;
    SpinBarrier start(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            start.arrive_and_wait();
            for (int i = 0; i < kIters; ++i) {
                orc_ptr<WideNode*> root = make_orc_in<WideNode>(*dom);
                for (int j = 0; j < WideNode::kChildren; ++j) {
                    orc_ptr<WideNode*> c = make_orc_in<WideNode>(*dom);
                    root->child[j].store(c);
                }
                // Dropping root cascades kChildren+1 nodes, the children
                // through the batched path.
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(dom->object_count(), 0);
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(counters.double_destroys(), doubles_before);
}

// Dropping the root frees it through the per-object scan, and its 32
// children form one batched generation. The reader covers child 3 with two
// hps and child 17 with a third: the generation's one walk parks each of the
// two exactly once and frees the other 30 under its single fence.
TEST(RetireCascade, BatchedGenerationParksExactlyTheCoveredMembers) {
    auto dom = std::make_unique<OrcDomain>();
    orc_ptr<WideNode*> root = make_orc_in<WideNode>(*dom);
    std::vector<orc_base*> kids;
    for (int j = 0; j < WideNode::kChildren; ++j) {
        orc_ptr<WideNode*> c = make_orc_in<WideNode>(*dom);
        root->child[j].store(c);
        kids.push_back(c.get());
    }

    std::atomic<int> phase{0};
    std::thread reader([&] {
        // The root's links keep both children alive until the publishes land.
        const int idx[3] = {dom->get_new_idx(), dom->get_new_idx(), dom->get_new_idx()};
        dom->protect_ptr(kids[3], idx[0]);
        dom->protect_ptr(kids[3], idx[1]);
        dom->protect_ptr(kids[17], idx[2]);
        advance(phase);  // 1: children 3 and 17 covered
        await_phase(phase, 2);
        for (const int i : idx) dom->release_idx(i, nullptr);
        advance(phase);  // 3
    });

    await_phase(phase, 1);
    const OrcDomain::RetireStats before = dom->stats();
    const std::uint64_t fences = asym::heavy_fences();
    root = nullptr;
    if (heavy_counts()) {
        EXPECT_EQ(asym::heavy_fences() - fences, 2u);  // the root's scan + the generation's
    }
    if (telemetry::kTelemetryEnabled) {
        const OrcDomain::RetireStats after = dom->stats();
        EXPECT_EQ(after.snapshots - before.snapshots, 1u);
        EXPECT_EQ(after.batch_frees - before.batch_frees, 30u);
        EXPECT_EQ(after.handovers - before.handovers, 2u);
    }
    EXPECT_EQ(dom->handover_count(), 2u);
    EXPECT_EQ(dom->object_count(), 2);
    advance(phase);  // 2
    await_phase(phase, 3);
    reader.join();

    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// A structure's teardown: a complete binary tree held by one link, with no
// orc_ptr alive, frees level by level. The size-1 and size-2 levels scan per
// object, one fence each; every larger level is one batched generation with
// one fence, up to 4,096 members long.
TEST(RetireCascade, LargeGenerationsTakeOneFenceEach) {
    constexpr int kDepth = 13;
    constexpr std::int64_t kNodes = (std::int64_t{1} << kDepth) - 1;  // 8,191
    constexpr std::uint64_t kBatchedLevels = kDepth - 2;
    auto dom = std::make_unique<OrcDomain>();
    orc_atomic<BinNode*> root;
    root.store(build_tree(*dom, kDepth));
    ASSERT_EQ(dom->object_count(), kNodes);

    const OrcDomain::RetireStats before = dom->stats();
    const std::uint64_t fences = asym::heavy_fences();
    root.store(nullptr);
    if (heavy_counts()) {
        EXPECT_EQ(asym::heavy_fences() - fences, 1u + 2u + kBatchedLevels);
    }
    if (telemetry::kTelemetryEnabled) {
        const OrcDomain::RetireStats after = dom->stats();
        EXPECT_EQ(after.snapshots - before.snapshots, kBatchedLevels);
        EXPECT_EQ(after.batch_frees - before.batch_frees, static_cast<std::uint64_t>(kNodes - 3));
        EXPECT_EQ(after.slow_frees - before.slow_frees, 3u);
    }
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// ------------------------------------------- handover displacement (Alg. 6)
//
// Displacement is driven deterministically through the raw protection API
// (get_new_idx / protect_ptr / release_idx, the calls orc_ptr makes):
// republishing a new pointer on a held index without releasing it is what
// get_protected's retry loop does, and leaves the previous park in the
// handover slot for the next park to displace.

// Algorithm 6: a park that lands on an occupied handover slot hands the old
// occupant back to the retiring thread, which re-scans it inline. The reader
// has moved on from X to Y, so the re-scan finds no hp covering X and frees
// it on the spot: only Y stays parked and only Y stays allocated.
TEST(HandoverDisplacement, RetiringThreadFreesTheDisplacedOccupant) {
    auto dom = std::make_unique<OrcDomain>();
    orc_ptr<Node*> px = make_orc_in<Node>(*dom);
    orc_ptr<Node*> py = make_orc_in<Node>(*dom);
    orc_base* xr = px.get();
    orc_base* yr = py.get();

    std::atomic<int> phase{0};
    std::thread reader([&] {
        const int idx = dom->get_new_idx();
        dom->protect_ptr(xr, idx);
        advance(phase);  // 1: X protected
        await_phase(phase, 2);
        dom->protect_ptr(yr, idx);  // republish, no drain: X's park stays
        advance(phase);             // 3: Y protected on the same index
        await_phase(phase, 4);
        dom->release_idx(idx, nullptr);  // drains Y's park
        advance(phase);                  // 5
    });

    await_phase(phase, 1);
    px = nullptr;  // retire X: the scan finds the reader's hp and parks X
    EXPECT_EQ(dom->handover_count(), 1u);
    EXPECT_EQ(dom->object_count(), 2);
    advance(phase);  // 2
    await_phase(phase, 3);
    py = nullptr;  // retire Y: parks Y and takes X back out of the slot
    EXPECT_EQ(dom->handover_count(), 1u);  // Y parked
    EXPECT_EQ(dom->object_count(), 1);     // X freed by this thread's re-scan
    advance(phase);  // 4
    await_phase(phase, 5);
    reader.join();

    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// The per-slot half of the O(H·t) bound: a reader stalled on one hp index
// pins at most one object, however many objects are parked on that index in
// turn. Each park displaces the previous occupant, which the retiring thread
// frees.
TEST(HandoverDisplacement, StalledIndexPinsAtMostOneObject) {
    auto dom = std::make_unique<OrcDomain>();
    constexpr int kRounds = 25;
    std::vector<orc_ptr<Node*>> objs;
    std::vector<orc_base*> raw;
    objs.reserve(kRounds);
    for (int i = 0; i < kRounds; ++i) {
        objs.push_back(make_orc_in<Node>(*dom));
        raw.push_back(objs.back().get());
    }

    std::atomic<int> phase{0};
    std::thread reader([&] {
        const int idx = dom->get_new_idx();
        for (int r = 0; r < kRounds; ++r) {
            dom->protect_ptr(raw[static_cast<std::size_t>(r)], idx);
            advance(phase);                 // 2r+1: round r protected
            await_phase(phase, 2 * r + 2);  // main retired round r
        }
        dom->release_idx(idx, nullptr);
        advance(phase);
    });

    for (int r = 0; r < kRounds; ++r) {
        await_phase(phase, 2 * r + 1);
        objs[static_cast<std::size_t>(r)] = nullptr;  // park round r, displace r-1
        EXPECT_LE(dom->handover_count(), 1u) << "round " << r;
        // Rounds r+1.. are still held; round r is parked; every earlier
        // round was displaced and freed.
        EXPECT_EQ(dom->object_count(), kRounds - r) << "round " << r;
        advance(phase);
    }
    await_phase(phase, 2 * kRounds + 1);
    reader.join();
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// ------------------------------------------------- own-slot probe (Alg. 6)
//
// try_handover probes the retiring thread's own hp slots before it issues
// the heavy fence: a park on an own slot is conservative, and the owner's
// release drains it back through the fenced scan.

// Unlinking a node this thread still holds parks it on the thread's own
// handover slot with no fence; dropping the orc_ptr drains the park through
// one fenced scan, which finds no protection and frees it.
TEST(HandoverDisplacement, OwnProtectionParksWithoutAHeavyFence) {
    auto dom = std::make_unique<OrcDomain>();
    orc_atomic<Node*> root;
    root.store(make_orc_in<Node>(*dom));
    orc_ptr<Node*> px = root.load(*dom);

    const std::uint64_t before = asym::heavy_fences();
    root.store(nullptr);  // the only link: retire X while px covers it
    if (heavy_counts()) {
        EXPECT_EQ(asym::heavy_fences() - before, 0u);
    }
    EXPECT_EQ(dom->handover_count(), 1u);
    EXPECT_EQ(dom->object_count(), 1);

    px = nullptr;  // drain the own park: fenced scan, no cover, free
    if (heavy_counts()) {
        EXPECT_EQ(asym::heavy_fences() - before, 1u);
    }
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// An own park must yield to a remote protection: when the owner's release
// drains X, the re-scan finds the reader's hp and parks X there, and X is
// freed only when the reader releases its index.
TEST(HandoverDisplacement, OwnParkDrainDefersToARemoteProtection) {
    auto dom = std::make_unique<OrcDomain>();
    orc_atomic<Node*> root;
    root.store(make_orc_in<Node>(*dom));
    orc_ptr<Node*> px = root.load(*dom);
    orc_base* xr = px.get();

    std::atomic<int> phase{0};
    std::thread reader([&] {
        const int idx = dom->get_new_idx();
        dom->protect_ptr(xr, idx);
        advance(phase);  // 1: X protected by the reader
        await_phase(phase, 2);
        dom->release_idx(idx, nullptr);  // drains X's park: frees X
        advance(phase);                  // 3
    });

    await_phase(phase, 1);
    root.store(nullptr);  // retire X: parks on this thread's own slot
    EXPECT_EQ(dom->handover_count(), 1u);
    EXPECT_EQ(dom->object_count(), 1);
    px = nullptr;  // drain: the re-scan parks X on the reader's slot
    EXPECT_EQ(dom->handover_count(), 1u);
    EXPECT_EQ(dom->object_count(), 1);
    advance(phase);  // 2
    await_phase(phase, 3);
    reader.join();

    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// The fence budget of the paper's two unlink paths, single-threaded. An
// MS-queue dequeue retires the old sentinel while its `node` orc_ptr still
// covers it: one own park, then one fenced scan when the orc_ptr drops. An
// NM-tree remove retires the successor while `sr.successor` covers it (own
// park, then one fenced scan), and that free cascades into the removed leaf
// (one fenced scan).
TEST(HandoverDisplacement, EachUnlinkPaysOneFenceLess) {
    constexpr int kOps = 1000;
    auto dom = std::make_unique<OrcDomain>();
    {
        MSQueueOrc<std::uint64_t> queue(dom.get());
        for (std::uint64_t i = 0; i < 10; ++i) queue.enqueue(i);
        const std::uint64_t before = asym::heavy_fences();
        for (int i = 0; i < kOps; ++i) {
            queue.enqueue(static_cast<std::uint64_t>(i));
            ASSERT_TRUE(queue.dequeue().has_value());
        }
        if (heavy_counts()) {
            EXPECT_EQ(asym::heavy_fences() - before, std::uint64_t{kOps});
        }
    }
    {
        NMTreeOrc<std::uint64_t> tree(dom.get());
        std::vector<std::uint64_t> keys(kOps);
        std::iota(keys.begin(), keys.end(), std::uint64_t{1});
        std::mt19937_64 rng(7);
        std::shuffle(keys.begin(), keys.end(), rng);
        for (const std::uint64_t k : keys) ASSERT_TRUE(tree.insert(k));
        std::shuffle(keys.begin(), keys.end(), rng);
        const std::uint64_t before = asym::heavy_fences();
        for (const std::uint64_t k : keys) ASSERT_TRUE(tree.remove(k));
        if (heavy_counts()) {
            EXPECT_EQ(asym::heavy_fences() - before, std::uint64_t{2 * kOps});
        }
    }
    EXPECT_EQ(dom->handover_count(), 0u);
    EXPECT_EQ(dom->object_count(), 0);
}

// A thread exiting with an abandoned index (hp still published, a handover
// still parked on it) must have both drained by its exit hook before its
// registry slot is recycled: rapid create/exit churn, one forced
// displacement per generation of thread. The churn outlasts kMaxHPs, so the
// exit hook must also hand the abandoned index back to the tid's next owner.
TEST(HandoverDisplacement, ThreadChurnWithAbandonedIndexLeavesNothingParked) {
    auto dom = std::make_unique<OrcDomain>();
    constexpr int kChurn = 2 * OrcDomain::kMaxHPs;
    for (int i = 0; i < kChurn; ++i) {
        orc_ptr<Node*> px = make_orc_in<Node>(*dom);
        orc_ptr<Node*> py = make_orc_in<Node>(*dom);
        orc_base* xr = px.get();
        orc_base* yr = py.get();
        std::atomic<int> phase{0};
        std::thread worker([&] {
            const int idx = dom->get_new_idx();
            dom->protect_ptr(xr, idx);
            advance(phase);
            await_phase(phase, 2);
            dom->protect_ptr(yr, idx);
            advance(phase);  // 3
            await_phase(phase, 4);
            // Exit abandoning the index: hp published, Y parked. The exit
            // hook must drain both.
        });
        await_phase(phase, 1);
        px = nullptr;  // park X at the worker
        advance(phase);
        await_phase(phase, 3);
        py = nullptr;  // park Y, displacing X (freed by this thread)
        EXPECT_EQ(dom->handover_count(), 1u) << "churn round " << i;
        advance(phase);
        worker.join();  // exit hook: unpublish, drain the handover
        EXPECT_EQ(dom->handover_count(), 0u) << "churn round " << i;
        EXPECT_EQ(dom->object_count(), 0) << "churn round " << i;
    }
}

}  // namespace
}  // namespace orcgc
