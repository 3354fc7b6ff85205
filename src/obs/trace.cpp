#include "obs/trace.hpp"

#include <cstring>

namespace fc::obs {

constinit thread_local bool g_trace_enabled = false;

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kContextSwitchTrap: return "context_switch_trap";
    case EventKind::kResumeTrap: return "resume_trap";
    case EventKind::kViewSwitch: return "view_switch";
    case EventKind::kSwitchSkipped: return "switch_skipped";
    case EventKind::kViewLoad: return "view_load";
    case EventKind::kViewUnload: return "view_unload";
    case EventKind::kEptRepoint: return "ept_repoint";
    case EventKind::kTlbFlush: return "tlb_flush";
    case EventKind::kUd2Trap: return "ud2_trap";
    case EventKind::kRecovery: return "recovery";
    case EventKind::kInstantRecovery: return "instant_recovery";
    case EventKind::kLazyPending: return "lazy_pending";
    case EventKind::kBlockBuild: return "block_build";
    case EventKind::kBlockInvalidate: return "block_invalidate";
    case EventKind::kEventQueueFire: return "event_queue_fire";
    case EventKind::kInterrupt: return "interrupt";
    case EventKind::kVmExit: return "vm_exit";
    case EventKind::kTaskSpawn: return "task_spawn";
    case EventKind::kAttackVerdict: return "attack_verdict";
    case EventKind::kDataViewWrite: return "dataview_write";
    case EventKind::kProfSample: return "prof_sample";
    case EventKind::kIoRingPublish: return "io_ring_publish";
    case EventKind::kIoIrqFire: return "io_irq_fire";
    case EventKind::kIoBackpressure: return "io_backpressure";
    case EventKind::kIoDrain: return "io_drain";
  }
  return "unknown";
}

void Recorder::set_capacity(u32 events) {
  if (events == 0) events = 1;
  ring_.assign(events, TraceEvent{});
  next_ = 0;
  size_ = 0;
  total_emitted_ = 0;
}

void Recorder::start() {
  clear();
  g_trace_enabled = true;
}

void Recorder::stop() { g_trace_enabled = false; }

void Recorder::resume() { g_trace_enabled = true; }

bool Recorder::capturing() const { return g_trace_enabled; }

void Recorder::clear() {
  next_ = 0;
  size_ = 0;
  total_emitted_ = 0;
}

void Recorder::emit(EventKind kind, u8 flags, u16 view, u32 arg0, u32 arg1,
                    u32 arg2, u32 arg3) {
  TraceEvent& slot = ring_[next_];
  slot.when = clock_ != nullptr ? *clock_ : 0;
  slot.kind = kind;
  slot.flags = flags;
  slot.view = view;
  slot.arg0 = arg0;
  slot.arg1 = arg1;
  slot.arg2 = arg2;
  slot.arg3 = arg3;
  next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
  if (size_ < ring_.size()) ++size_;
  ++total_emitted_;
}

std::vector<TraceEvent> Recorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest surviving event: at `next_` when the ring has wrapped, else 0.
  std::size_t start = size_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

namespace {

void put16(std::vector<u8>& out, u16 v) {
  out.push_back(static_cast<u8>(v));
  out.push_back(static_cast<u8>(v >> 8));
}
void put32(std::vector<u8>& out, u32 v) {
  put16(out, static_cast<u16>(v));
  put16(out, static_cast<u16>(v >> 16));
}
void put64(std::vector<u8>& out, u64 v) {
  put32(out, static_cast<u32>(v));
  put32(out, static_cast<u32>(v >> 32));
}

u16 get16(const u8* p) { return static_cast<u16>(p[0] | (p[1] << 8)); }
u32 get32(const u8* p) {
  return static_cast<u32>(get16(p)) | (static_cast<u32>(get16(p + 2)) << 16);
}
u64 get64(const u8* p) {
  return static_cast<u64>(get32(p)) | (static_cast<u64>(get32(p + 4)) << 32);
}

constexpr char kMagic[4] = {'F', 'C', 'T', 'R'};
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 8;

}  // namespace

std::vector<u8> Recorder::serialize() const {
  std::vector<TraceEvent> events = snapshot();
  std::vector<u8> out;
  out.reserve(kHeaderSize + events.size() * kSerializedEventSize);
  for (char c : kMagic) out.push_back(static_cast<u8>(c));
  put32(out, 1);  // version
  put32(out, static_cast<u32>(events.size()));
  put64(out, total_emitted_);
  put64(out, cycles_per_second_);
  for (const TraceEvent& ev : events) {
    put64(out, ev.when);
    out.push_back(static_cast<u8>(ev.kind));
    out.push_back(ev.flags);
    put16(out, ev.view);
    put32(out, ev.arg0);
    put32(out, ev.arg1);
    put32(out, ev.arg2);
    put32(out, ev.arg3);
  }
  return out;
}

bool parse_trace(const std::vector<u8>& bytes, TraceHeader* header,
                 std::vector<TraceEvent>* events) {
  if (bytes.size() < kHeaderSize) return false;
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return false;
  TraceHeader h;
  h.version = get32(bytes.data() + 4);
  h.event_count = get32(bytes.data() + 8);
  h.total_emitted = get64(bytes.data() + 12);
  h.cycles_per_second = get64(bytes.data() + 20);
  if (h.version != 1) return false;
  if (bytes.size() < kHeaderSize + static_cast<std::size_t>(h.event_count) *
                                       kSerializedEventSize)
    return false;
  if (header != nullptr) *header = h;
  if (events != nullptr) {
    events->clear();
    events->reserve(h.event_count);
    const u8* p = bytes.data() + kHeaderSize;
    for (u32 i = 0; i < h.event_count; ++i, p += kSerializedEventSize) {
      TraceEvent ev;
      ev.when = get64(p);
      ev.kind = static_cast<EventKind>(p[8]);
      ev.flags = p[9];
      ev.view = get16(p + 10);
      ev.arg0 = get32(p + 12);
      ev.arg1 = get32(p + 16);
      ev.arg2 = get32(p + 20);
      ev.arg3 = get32(p + 24);
      events->push_back(ev);
    }
  }
  return true;
}

u32 name_hash(const char* s) {
  u32 h = 2166136261u;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<u8>(*s);
    h *= 16777619u;
  }
  return h;
}

Recorder& recorder() {
  thread_local Recorder instance;
  return instance;
}

}  // namespace fc::obs
