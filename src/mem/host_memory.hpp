// Host "physical" memory: the backing store that EPT entries point into.
//
// Frames are allocated once and never move (frame *numbers* are stable; the
// bytes backing a frame may change residence, see below). Besides the frames
// backing guest physical memory 1:1 at boot, FACE-CHANGE allocates extra
// frames here for each kernel view's shadow copies of kernel code pages
// (filled with UD2), and the hypervisor keeps pristine snapshot frames for
// code recovery.
//
// Copy-on-write sharing: a frame is backed one of three ways —
//   zero-backed   fresh allocation; reads see the canonical zero page
//   shared        references an immutable SharedFrameStore page (fleet VMs
//                 share one copy of the kernel image / module bytes / view
//                 shadow pages this way)
//   private       owns its 4 KiB (the only state that existed before COW)
// The first *divergent* write promotes a zero/shared frame to private. A
// write that would not change the byte(s) of a zero/shared frame is
// suppressed entirely — no promotion, no write-barrier callback — which is
// what lets a clone VM replay its boot over a shared image without unsharing
// anything. Private frames keep the exact pre-COW write semantics (every
// write fires the barrier if watched), preserving single-VM behaviour.
// Promotion preserves the frame number and the bytes, so cached decodes keyed
// by (frame, generation) in the block cache stay valid across promotion.
//
// Concurrency: a HostMemory is single-threaded (one VM, one worker), but
// many HostMemorys attach to one SharedFrameStore concurrently. The two
// fleet-scaling mechanisms live here:
//   - private storage comes from the thread-local page arena
//     (mem/page_arena.hpp), so promote/zero/reshare churn never touches the
//     global allocator;
//   - store refcount traffic is batched in ref_log_ and flushed as net
//     per-page deltas at sync points (end of reshare_identical, teardown,
//     or an explicit flush_shared_refs()), so a VM boot's thousands of
//     adopts cost a handful of atomic RMWs instead of one each.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mem/page_arena.hpp"
#include "mem/shared_frames.hpp"
#include "support/check.hpp"
#include "support/types.hpp"

namespace fc::mem {

/// Why the current frame write is happening; carried to the CodeWriteSink so
/// invalidations can be attributed. Writers that know better than the
/// default set it via HostMemory::WriteCauseScope.
enum class FrameWriteCause : u8 {
  kGuestStore,  // default: a store on the guest's data path (SMC if watched)
  kCodeLoad,    // recovery / view builder rewriting shadow code bytes
  kRecycle,     // a freed physical page recycled with fresh contents
};

/// Write-barrier observer: notified when any byte of a *watched* frame is
/// modified. The vCPU's decoded-block cache registers itself here and watches
/// every frame it has cached code from, so self-modifying stores, recovery
/// rewrites and page recycling all invalidate stale decodes (the software
/// equivalent of SMC snooping on the instruction cache).
class CodeWriteSink {
 public:
  virtual ~CodeWriteSink() = default;
  virtual void on_code_frame_write(HostFrame frame, FrameWriteCause cause) = 0;
};

/// Data write-barrier observer: notified *after* any byte of a watched data
/// frame has been modified (unlike CodeWriteSink, which fires before the
/// mutation — invalidation wants the old state gone, integrity monitoring
/// wants to read the new state). The core::DataViewMonitor registers here
/// and watches the frames backing protected kernel objects (syscall dispatch
/// table, module list), flagging stores from outside the static writer
/// whitelist.
class DataWriteSink {
 public:
  virtual ~DataWriteSink() = default;
  virtual void on_data_frame_write(HostFrame frame, u32 offset, u32 len,
                                   FrameWriteCause cause) = 0;
};

/// The canonical all-zero page backing fresh frames until first write.
const u8* zero_page_data();

class HostMemory {
 public:
  explicit HostMemory(u32 max_frames = 1u << 17)  // 512 MiB default cap
      : max_frames_(max_frames) {}
  ~HostMemory() {
    release_all_shared();
    flush_shared_refs();
  }
  HostMemory(const HostMemory&) = delete;
  HostMemory& operator=(const HostMemory&) = delete;

  /// Attach the shared store this memory may adopt pages from. Must be
  /// frozen already; must outlive this HostMemory.
  void attach_store(const SharedFrameStore* store) {
    FC_CHECK(store == nullptr || store->frozen(),
             << "attach requires a frozen store");
    store_ = store;
  }
  const SharedFrameStore* store() const { return store_; }

  /// Allocate one zeroed 4 KiB frame; returns its frame number. The frame is
  /// zero-backed (no private storage) until its first non-zero write.
  HostFrame alloc_frame() {
    FC_CHECK(frame_count() < max_frames_, << "host memory exhausted");
    page_ptr_.push_back(zero_page_data());
    backing_.push_back(kZeroBacked);
    private_.emplace_back(nullptr);
    origin_.push_back(kNoOrigin);
    return frame_count() - 1;
  }

  /// Allocate a frame backed read-only by a shared store page (COW).
  HostFrame adopt_shared(u32 page_id) {
    FC_CHECK(store_ != nullptr, << "adopt_shared without a store");
    FC_CHECK(frame_count() < max_frames_, << "host memory exhausted");
    page_ptr_.push_back(store_->page_data(page_id));
    backing_.push_back(page_id);
    private_.emplace_back(nullptr);
    origin_.push_back(page_id);
    note_ref(page_id, +1);
    return frame_count() - 1;
  }

  u32 frame_count() const { return static_cast<u32>(page_ptr_.size()); }
  /// Frames that own private storage (the resident cost a VM adds on top of
  /// the shared store).
  u32 private_frame_count() const { return private_count_; }
  bool is_private(HostFrame f) const { return backing_at(f) == kPrivate; }
  bool is_zero_backed(HostFrame f) const {
    return backing_at(f) == kZeroBacked;
  }
  bool is_shared(HostFrame f) const {
    u32 b = backing_at(f);
    return b != kPrivate && b != kZeroBacked;
  }
  /// Store page id backing a shared frame (test hook).
  u32 shared_backing(HostFrame f) const {
    FC_CHECK(is_shared(f), << "frame " << f << " is not shared");
    return backing_[f];
  }

  // --- COW statistics ------------------------------------------------------
  // Unit contract: cow_suppressed_writes counts suppressed *writes* — one
  // per write8/write32/write_bytes/zero_frame call whose bytes would be
  // unchanged on a zero/shared frame and was therefore elided (no promotion,
  // no barrier). It is a call count, never a byte count: four same-value
  // write8 calls count 4, one same-value write_bytes of 4 KiB counts 1.
  u64 cow_promotions() const { return cow_promotions_; }
  u64 cow_suppressed_writes() const { return cow_suppressed_writes_; }
  u64 cow_reshares() const { return cow_reshares_; }

  /// Demote every private frame whose bytes are byte-identical to the store
  /// page it was adopted from back to shared backing. Boot replay on a clone
  /// transiently diverges a few frames (a table page is zeroed, then rebuilt
  /// to its captured contents; kernel data is written A→B→A) — after the
  /// replay settles they are pure copies again. Bytes are unchanged by
  /// construction, so cached decodes and watchers are unaffected. Returns
  /// the number of frames reshared. Flushes batched refcount deltas — the
  /// post-boot sync point.
  u32 reshare_identical();

  /// Push this VM's accumulated net refcount deltas to the shared store (one
  /// atomic RMW per distinct page). Called automatically at teardown and at
  /// the end of reshare_identical(); until a flush the store's
  /// attached_refs() may over/undercount this VM's in-flight churn (the
  /// "exact at quiescence" contract, see shared_frames.hpp).
  void flush_shared_refs();

  /// Mutable view of a frame's bytes; promotes to private first (callers are
  /// about to write). Read-only users must go through the const overload.
  std::span<u8> frame(HostFrame f) {
    promote(f);
    return {private_[f].get(), kPageSize};
  }
  std::span<const u8> frame(HostFrame f) const {
    return {page_ptr_at(f), kPageSize};
  }

  u8 read8(HostFrame f, u32 offset) const { return page_ptr_at(f)[offset]; }
  void write8(HostFrame f, u32 offset, u8 value) {
    if (backing_at(f) != kPrivate) {
      if (page_ptr_[f][offset] == value) {  // same-value: frame unchanged
        ++cow_suppressed_writes_;
        return;
      }
      promote(f);
    }
    note_frame_write(f);
    private_[f][offset] = value;
    note_data_write(f, offset, 1);
  }

  u32 read32(HostFrame f, u32 offset) const {
    FC_CHECK(offset + 4 <= kPageSize, << "read32 crosses frame");
    const u8* b = page_ptr_at(f);
    return static_cast<u32>(b[offset]) |
           (static_cast<u32>(b[offset + 1]) << 8) |
           (static_cast<u32>(b[offset + 2]) << 16) |
           (static_cast<u32>(b[offset + 3]) << 24);
  }
  void write32(HostFrame f, u32 offset, u32 value) {
    FC_CHECK(offset + 4 <= kPageSize, << "write32 crosses frame");
    if (backing_at(f) != kPrivate) {
      const u8* b = page_ptr_[f];
      if (b[offset] == static_cast<u8>(value) &&
          b[offset + 1] == static_cast<u8>(value >> 8) &&
          b[offset + 2] == static_cast<u8>(value >> 16) &&
          b[offset + 3] == static_cast<u8>(value >> 24)) {
        ++cow_suppressed_writes_;
        return;
      }
      promote(f);
    }
    note_frame_write(f);
    u8* b = private_[f].get();
    b[offset] = static_cast<u8>(value);
    b[offset + 1] = static_cast<u8>(value >> 8);
    b[offset + 2] = static_cast<u8>(value >> 16);
    b[offset + 3] = static_cast<u8>(value >> 24);
    note_data_write(f, offset, 4);
  }

  /// Bulk write with same-value suppression on zero/shared frames.
  void write_bytes(HostFrame f, u32 offset, std::span<const u8> bytes);

  /// Reset a frame to all-zero contents, releasing private storage (page
  /// recycling). Fires the write barrier unless the bytes are already
  /// all-zero (cached decodes stay valid; the call counts as one suppressed
  /// write).
  void zero_frame(HostFrame f);

  // --- code write barrier ------------------------------------------------
  /// Register a write-barrier observer. Multiple sinks may attach (each
  /// block cache decoding from this memory); every watched-frame write fans
  /// out to all of them in registration order.
  void add_code_write_sink(CodeWriteSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void remove_code_write_sink(CodeWriteSink* sink) {
    std::erase(sinks_, sink);
  }
  /// Start reporting writes to `f` to the sinks (frames are never unwatched;
  /// the sink side drops its interest cheaply instead).
  void watch_code_frame(HostFrame f) {
    if (f >= code_watch_.size()) code_watch_.resize(f + 1, 0);
    code_watch_[f] = 1;
  }
  /// Must be called by every writer that mutates frame bytes through a raw
  /// span from frame() instead of write8/write32.
  void note_frame_write(HostFrame f) {
    if (f < code_watch_.size() && code_watch_[f] != 0)
      for (CodeWriteSink* sink : sinks_)
        sink->on_code_frame_write(f, write_cause_);
  }

  // --- data write barrier ------------------------------------------------
  /// Register a post-mutation observer for watched *data* frames. Separate
  /// from the code sink list so the integrity monitor never pays for code
  /// invalidation traffic (and vice versa).
  void add_data_write_sink(DataWriteSink* sink) {
    if (sink != nullptr) data_sinks_.push_back(sink);
  }
  void remove_data_write_sink(DataWriteSink* sink) {
    std::erase(data_sinks_, sink);
  }
  /// Start reporting mutations of `f` to the data sinks (like code frames,
  /// data frames are never unwatched; sinks filter by offset instead).
  void watch_data_frame(HostFrame f) {
    if (f >= data_watch_.size()) data_watch_.resize(f + 1, 0);
    data_watch_[f] = 1;
  }
  bool data_frame_watched(HostFrame f) const {
    return f < data_watch_.size() && data_watch_[f] != 0;
  }
  /// Fires AFTER the bytes changed, so sinks read the post-write state.
  /// Raw-span writers that mutate a watched data frame must call this
  /// themselves (the only such path is the view builder, which touches code
  /// frames only, so in practice write8/write32/write_bytes/zero_frame
  /// cover every data mutation).
  void note_data_write(HostFrame f, u32 offset, u32 len) {
    if (f < data_watch_.size() && data_watch_[f] != 0)
      for (DataWriteSink* sink : data_sinks_)
        sink->on_data_frame_write(f, offset, len, write_cause_);
  }

  /// Attribute frame writes inside the scope to `cause` (see FrameWriteCause).
  class WriteCauseScope {
   public:
    WriteCauseScope(HostMemory& host, FrameWriteCause cause)
        : host_(&host), saved_(host.write_cause_) {
      host_->write_cause_ = cause;
    }
    ~WriteCauseScope() { host_->write_cause_ = saved_; }
    WriteCauseScope(const WriteCauseScope&) = delete;
    WriteCauseScope& operator=(const WriteCauseScope&) = delete;

   private:
    HostMemory* host_;
    FrameWriteCause saved_;
  };

 private:
  static constexpr u32 kPrivate = 0xFFFFFFFFu;
  static constexpr u32 kZeroBacked = 0xFFFFFFFEu;
  static constexpr u32 kNoOrigin = 0xFFFFFFFFu;
  /// Auto-flush bound on the batched refcount log (entries, not pages);
  /// keeps a pathological promote/reshare loop from growing it unboundedly.
  static constexpr std::size_t kRefLogFlushAt = 1u << 16;

  const u8* page_ptr_at(HostFrame f) const {
    FC_CHECK(f < frame_count(), << "bad host frame " << f);
    return page_ptr_[f];
  }
  u32 backing_at(HostFrame f) const {
    FC_CHECK(f < frame_count(), << "bad host frame " << f);
    return backing_[f];
  }

  /// Record a +1/-1 store refcount event locally (flushed as net deltas).
  void note_ref(u32 page_id, i64 delta) {
    ref_log_.emplace_back(page_id, delta);
    if (ref_log_.size() >= kRefLogFlushAt) flush_shared_refs();
  }

  /// Give `f` private storage, preserving its current bytes and frame number.
  void promote(HostFrame f);
  void release_all_shared();

  u32 max_frames_;
  // Per frame: the bytes visible to readers (zero page / store page /
  // private storage), which backing those bytes live in, and the private
  // storage when owned (arena-backed).
  std::vector<const u8*> page_ptr_;
  std::vector<u32> backing_;  // kPrivate, kZeroBacked, or store page id
  std::vector<PagePtr> private_;
  std::vector<u32> origin_;  // store page adopted at allocation (kNoOrigin)
  u32 private_count_ = 0;
  u64 cow_promotions_ = 0;
  u64 cow_suppressed_writes_ = 0;
  u64 cow_reshares_ = 0;
  const SharedFrameStore* store_ = nullptr;
  std::vector<std::pair<u32, i64>> ref_log_;  // batched ref/unref events
  std::vector<u8> code_watch_;  // 1 = frame has (had) cached decodes
  std::vector<CodeWriteSink*> sinks_;
  std::vector<u8> data_watch_;  // 1 = frame backs a protected kernel object
  std::vector<DataWriteSink*> data_sinks_;
  FrameWriteCause write_cause_ = FrameWriteCause::kGuestStore;
};

}  // namespace fc::mem
