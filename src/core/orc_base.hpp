// orc_base: the per-object reference-count word (paper §4.1, Algorithm 3).
//
// Every OrcGC-tracked type extends orc_base, which holds the single extra
// word `_orc` (Table 1: "extra words per object = 1"):
//
//   bits  0..21  biased hard-link counter; value kOrcZero (1<<22 would not
//                fit, so the bias *is* bit 22 — see below) means zero links;
//                the bias lets the counter dip temporarily negative, which
//                happens because compare_exchange increments the new target
//                only *after* the CAS succeeds (another thread may unlink and
//                decrement first).
//   bit   22    the bias bit (part of the counter field).
//   bit   23    kBRetired — set by the unique thread that wins the right to
//                run retire() for the object ("the retire token").
//   bits 24..63 a 40-bit sequence incremented on every counter update; lets
//                retire() detect that `_orc` did not change while it scanned
//                the hazardous-pointer arrays (Lemma 1).
#pragma once

#include <atomic>
#include <cstdint>

namespace orcgc {

class OrcDomain;  // the reclamation domain an object is tagged with (orc_domain.hpp)

namespace orc {

inline constexpr int kSeqShift = 24;                   // first bit of the sequence field
inline constexpr std::uint64_t kSeqInc = 1ULL << kSeqShift;  // +1 to the sequence field
inline constexpr std::uint64_t kBRetired = 1ULL << 23; // retire-token bit
inline constexpr std::uint64_t kOrcZero = 1ULL << 22;  // counter bias == "zero links"
inline constexpr std::uint64_t kOrcCntMask = kSeqInc - 1;  // counter+token bits

/// Counter-and-token field of an _orc value (paper's ocnt()).
inline constexpr std::uint64_t ocnt(std::uint64_t x) noexcept { return x & kOrcCntMask; }

/// True iff the counter is at zero and the retire token is not taken.
inline constexpr bool is_zero_unretired(std::uint64_t x) noexcept { return ocnt(x) == kOrcZero; }

/// True iff the counter is at zero and the retire token is taken.
inline constexpr bool is_zero_retired(std::uint64_t x) noexcept {
    return ocnt(x) == (kBRetired | kOrcZero);
}

/// Signed number of hard links encoded in an _orc value (for tests/debug).
inline constexpr std::int64_t link_count(std::uint64_t x) noexcept {
    return static_cast<std::int64_t>(x & (kBRetired - 1)) - static_cast<std::int64_t>(kOrcZero);
}

/// Sequence field (for tests/debug).
inline constexpr std::uint64_t seq(std::uint64_t x) noexcept { return x >> kSeqShift; }

}  // namespace orc

/// Base type which all OrcGC-tracked objects must extend (Algorithm 3).
/// The destructor is virtual because the reclamation engine deletes objects
/// through orc_base* (the vtable pointer is the usual C++ cost of that; the
/// scheme itself needs only the one _orc word).
struct orc_base {
    std::atomic<std::uint64_t> _orc{orc::kOrcZero};

    /// Owning reclamation domain, written once by make_orc_in before the
    /// object can escape its creating thread and immutable afterwards (hence
    /// a plain pointer: every cross-thread read is ordered after the seq_cst
    /// publication that made the object reachable). nullptr — the state of
    /// objects allocated behind make_orc's back — routes to the global
    /// domain.
    OrcDomain* _orc_dom = nullptr;

#ifndef ORCGC_TELEMETRY_DISABLED
    /// Retire timestamp (telemetry::coarse_now() ticks), written — for the
    /// 1-in-64 of retires the age sampler picks (telemetry::kAgeSampleMask)
    /// — by the unique thread whose CAS takes the retire token, before the
    /// object is visible to any free path, and read once when the object is
    /// deleted, to feed the domain's retire→free age histogram. Plain
    /// (non-atomic): the token CAS/free protocol already orders the write
    /// before every read. 0 means "never stamped" (not sampled, or
    /// telemetry races at process teardown); such objects record no age.
    /// Compiled out with the rest of the telemetry layer under
    /// -DORCGC_TELEMETRY=OFF.
    std::uint64_t _orc_rts = 0;
#endif

    /// Drops the retire token; returns the post-drop _orc value. Used only by
    /// the engine's resurrection path (Algorithm 6). Token release is not a
    /// counter update, so the sequence field is deliberately left unchanged —
    /// retire()'s Lemma 1 revalidation must still observe increments that
    /// raced with the drop.
    std::uint64_t sub_retired() noexcept {
        return _orc.fetch_sub(orc::kBRetired, std::memory_order_seq_cst) - orc::kBRetired;
    }

    orc_base() noexcept = default;
    orc_base(const orc_base&) = delete;
    orc_base& operator=(const orc_base&) = delete;
    virtual ~orc_base() = default;
};

}  // namespace orcgc
