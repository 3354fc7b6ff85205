// Cycle-stamped flight recorder: a bounded ring buffer of typed binary
// trace events covering every hot-path decision the hypervisor makes —
// view switches, UD2 traps, recoveries, EPT repoints, TLB shootdowns,
// block-cache activity, device-queue fires, attack verdicts.
//
// Determinism contract: events are stamped with the *vCPU cycle counter*
// (simulated time), never a wall clock, and carry only guest-state-derived
// payloads (addresses, counts, ids, FNV hashes of names — no pointers).
// Two runs of the same deterministic scenario therefore produce
// byte-identical serialized streams, which the `trace_determinism` ctest
// and `fctrace selftest` enforce.
//
// Cost contract: when tracing is disabled (the default) an emit site is one
// inline load + branch on a global flag (mirroring FC_LOG's gating); no
// instrumented site sits on the per-instruction path, so the interpreter's
// throughput is unaffected. Building with -DFC_OBS_DISABLED=ON compiles
// every FC_TRACE_EVENT out entirely.
#pragma once

#include <cstddef>
#include <vector>

#include "support/types.hpp"

namespace fc::obs {

enum class EventKind : u8 {
  kNone = 0,
  kContextSwitchTrap,  // view=selected view, a0=pid, a1=previously active view
  kResumeTrap,         // view=view applied at resume-userspace
  kViewSwitch,  // view=to, a0=from, a1=pde writes, a2=pte writes, a3=cycles
                // charged; flags: bit0 fast path, bit1 scoped invalidation,
                // bit2 full flush
  kSwitchSkipped,    // view=id (the same-view optimization fired)
  kViewLoad,         // view=id, a0=view bytes, a1=base ranges, a2=modules
  kViewUnload,       // view=id
  kEptRepoint,       // a0=pde writes, a1=pte writes; flags: bit0 delta path
  kTlbFlush,         // flags: bit0 scoped; a0=entries dropped (scoped only)
  kUd2Trap,          // view=active view, a0=pc; flags: bit0 unhandled fault
  kRecovery,         // view, a0=fault pc, a1=recovered start, a2=recovered
                     // bytes, a3=cycles charged; flags: bit0 interrupt ctx,
                     // bit1 closure-predicted, bit2 closure audit present,
                     // bit3 profile-gap (entry-reachable, outside closure)
  kInstantRecovery,  // a0=return target; flags: bit0 in static hazard set,
                     // bit1 hazard audit present, bit2 from cross-view scan
  kLazyPending,      // a0=return target left as trappable 0F 0B
  kBlockBuild,       // a0=va, a1=insns decoded, a2=host frame
  kBlockInvalidate,  // a0=host frame; flags: 0 capacity clear, 1 guest
                     // write, 2 code load, 3 page recycle
  kEventQueueFire,   // a0=device events fired, a1=queue depth after
  kInterrupt,        // a0=vector, a1=interrupted pc; flags: bit0 hardware
  kVmExit,           // a0=pc; flags=cpu::ExitReason
  kTaskSpawn,        // a0=pid, a1=FNV-1a hash of comm
  kAttackVerdict,    // a0=detected, a1=recovery events, a2=name hash
  // Trace-tier events (appended after kAttackVerdict so the wire encodings
  // of every earlier kind are unchanged).
  kTraceBuild,       // a0=entry va, a1=ops, a2=entry frame, a3=blocks chained
  kTraceDispatch,    // a0=entry va, a2=entry frame (one per dispatch, which
                     // may cover many self-loop iterations)
  kTraceSideExit,    // a0=exit pc, a1=ops executed; flags: reason (see
                     // TraceCache::SideExit)
  kTraceRetire,      // a0=stale frame, a1=entry va; flags: write cause as in
                     // kBlockInvalidate (0 = capacity clear)
  // Data-view integrity events (appended after the trace-tier kinds; wire
  // encodings of every earlier kind are unchanged).
  kDataViewWrite,    // a0=guest va written, a1=bytes, a2=writer pc,
                     // a3=protected-object index; flags: bit0 whitelisted
  // Telemetry-plane events (appended after the data-view kind; wire
  // encodings of every earlier kind are unchanged).
  kProfSample,       // view=view at sample time, flags=execution tier
                     // (0 interp / 1 block / 2 trace), a0=sampled pc,
                     // a1=whole sample periods this sample stands for
  // IO data-plane events (appended after the telemetry kind; wire encodings
  // of every earlier kind are unchanged).
  kIoRingPublish,    // a0=queue (0 nic, 1 blk), a1=desc id, a2=payload,
                     // a3=used-ring depth after; flags bit0=backlog refill
  kIoIrqFire,        // a0=queue, a1=completions coalesced into this IRQ;
                     // flags bit0=quantum-timer fire (not count threshold)
  kIoBackpressure,   // a0=queue, a1=backlog depth after parking
  kIoDrain,          // a0=queue, a1=entries consumed, a2=backlog refills,
                     // a3=used-ring depth after (0 unless reset mid-drain)
};

/// Human-readable kind name ("view_switch", "ud2_trap", ...).
const char* kind_name(EventKind kind);

/// One fixed-width binary event. 28 bytes on the wire (packed
/// little-endian by Recorder::serialize; in-memory layout is unspecified).
struct TraceEvent {
  Cycles when = 0;  // vCPU cycle stamp at emit time
  EventKind kind = EventKind::kNone;
  u8 flags = 0;  // kind-specific bits (see EventKind comments)
  u16 view = 0;  // view id when the event is view-scoped, else 0
  u32 arg0 = 0;
  u32 arg1 = 0;
  u32 arg2 = 0;
  u32 arg3 = 0;
};

/// Wire size of one serialized event.
inline constexpr std::size_t kSerializedEventSize = 28;

/// Serialized stream header.
struct TraceHeader {
  u32 version = 1;
  u32 event_count = 0;
  u64 total_emitted = 0;  // includes events the ring dropped
  u64 cycles_per_second = 0;
};

class Recorder {
 public:
  static constexpr u32 kDefaultCapacity = 1u << 17;  // ~3.5 MB of events

  /// Point the recorder at the simulated clock (the vCPU's cycle counter).
  /// The hypervisor installs its vCPU's counter at construction; a null
  /// clock stamps 0.
  void set_clock(const Cycles* cycles) { clock_ = cycles; }
  const Cycles* clock() const { return clock_; }

  /// Nominal clock rate recorded into serialized streams so exporters can
  /// convert cycles to seconds.
  void set_cycles_per_second(u64 cps) { cycles_per_second_ = cps; }
  u64 cycles_per_second() const { return cycles_per_second_; }

  /// Resize the ring (drops any recorded events).
  void set_capacity(u32 events);
  u32 capacity() const { return static_cast<u32>(ring_.size()); }

  /// Clear and start capturing (sets the global enabled flag).
  void start();
  /// Stop capturing; recorded events stay readable.
  void stop();
  /// Re-enable capturing *without* clearing recorded events — the restore
  /// half of a suspend (stop) / resume pair around work that must not bleed
  /// events into this recorder (e.g. FleetRunner borrowing the caller's
  /// thread for a VM).
  void resume();
  /// Whether this thread is currently capturing (the emit-gate flag).
  bool capturing() const;
  void clear();

  void emit(EventKind kind, u8 flags, u16 view, u32 arg0, u32 arg1, u32 arg2,
            u32 arg3);

  u64 total_emitted() const { return total_emitted_; }
  u64 dropped() const {
    return total_emitted_ > size_ ? total_emitted_ - size_ : 0;
  }
  std::size_t size() const { return size_; }

  /// Events in chronological (emission) order, oldest surviving first.
  std::vector<TraceEvent> snapshot() const;

  /// Packed little-endian stream: "FCTR" magic + TraceHeader + events.
  /// Bit-reproducible for deterministic runs.
  std::vector<u8> serialize() const;

 private:
  std::vector<TraceEvent> ring_ = std::vector<TraceEvent>(kDefaultCapacity);
  std::size_t next_ = 0;  // ring write cursor
  std::size_t size_ = 0;  // occupied entries (<= ring_.size())
  u64 total_emitted_ = 0;
  const Cycles* clock_ = nullptr;
  u64 cycles_per_second_ = 100'000'000;
};

/// Per-thread recorder. Each fleet worker thread records its own VM into its
/// own ring with no synchronization; single-threaded callers see exactly the
/// old process-wide behaviour. When several guest systems coexist on one
/// thread (lockstep tests), the clock follows the most recently constructed
/// hypervisor — record one system at a time.
Recorder& recorder();

/// Parse a stream produced by Recorder::serialize. Returns false on a bad
/// magic/version/truncated payload.
bool parse_trace(const std::vector<u8>& bytes, TraceHeader* header,
                 std::vector<TraceEvent>* events);

/// FNV-1a of a short name (process comms, attack names): a deterministic
/// 32-bit stand-in for strings the fixed-width event cannot carry.
u32 name_hash(const char* s);

// Capture flag, read inline by the emit macro. Thread-local like the
// recorder it gates: capture on one fleet worker doesn't enable emission
// (or data races) on the others. `constinit` tells every includer that the
// variable needs no dynamic initialization, so reads go straight to the TLS
// slot instead of through a compiler-generated init wrapper.
extern constinit thread_local bool g_trace_enabled;
inline bool trace_enabled() { return g_trace_enabled; }

}  // namespace fc::obs

#if defined(FC_OBS_DISABLED)
#define FC_TRACE_EVENT(kind, flags, view, a0, a1, a2, a3) ((void)0)
#else
#define FC_TRACE_EVENT(kind, flags, view, a0, a1, a2, a3)               \
  do {                                                                  \
    if (::fc::obs::trace_enabled())                                     \
      ::fc::obs::recorder().emit(                                       \
          ::fc::obs::EventKind::kind, static_cast<::fc::u8>(flags),     \
          static_cast<::fc::u16>(view), static_cast<::fc::u32>(a0),     \
          static_cast<::fc::u32>(a1), static_cast<::fc::u32>(a2),       \
          static_cast<::fc::u32>(a3));                                  \
  } while (0)
#endif
