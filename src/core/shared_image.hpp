// Immutable per-kernel artifacts built once and referenced by every VM in a
// fleet: the assembled kernel image and module images (SharedBoot), the
// post-boot guest-physical memory image (MachineImage over a frozen
// SharedFrameStore), every captured kernel view's shadow pages and loaded
// ranges, the static-analysis audit, and prebuilt switch-delta descriptors
// for all (from, to) view pairs.
//
// Why descriptors can be captured at all: frame numbers and EPT table ids
// are allocation-order-deterministic, and a clone VM constructed from the
// image replays the template's exact allocation order (Machine guest pages
// in page order, then each view's shadow frames in its ViewLayout's page
// order, through the same ViewBuilder::build the template used). Each view
// is planned once: capture_view renders the layout's pages into the store,
// and the template builds its own copy from that same layout. The capture
// records the frame/table counts at each stage and the clone validates them,
// so a divergence is a hard FC_CHECK, not silent corruption.
//
// A SharedImage is immutable after capture and must outlive every VM
// constructed from it; concurrent readers need no locks (the only mutable
// state, the store's refcounts, is atomic).
#pragma once

#include <vector>

#include "core/static_audit.hpp"
#include "core/switchdelta.hpp"
#include "core/view.hpp"
#include "mem/shared_frames.hpp"
#include "os/os_runtime.hpp"

namespace fc::core {

/// One kernel view captured into the store: its layout with every page's
/// store page filled in.
using SharedView = ViewLayout;

struct SharedImage {
  mem::SharedFrameStore store;
  u32 guest_phys_mib = 64;

  /// Prebuilt kernel + module images (OsRuntime skips assembly).
  os::SharedBoot boot;
  /// Non-zero guest-physical pages after the template boot.
  mem::MachineImage machine;

  /// Views in template load order; clone view ids are 1..views.size() when
  /// adopted through FaceChangeEngine::adopt_shared_views.
  std::vector<SharedView> views;
  /// Audit keyed by those same view ids.
  StaticAudit audit;

  struct PrebuiltSwitch {
    u32 from = 0;
    u32 to = 0;
    SwitchDescriptor descriptor;
  };
  /// All (from, to) pairs over {full view, 1..views.size()}.
  std::vector<PrebuiltSwitch> switches;

  /// Allocation-order invariants a clone validates while rehydrating.
  u32 frames_after_boot = 0;
  u32 frames_after_views = 0;

  SharedImage() = default;
  SharedImage(const SharedImage&) = delete;
  SharedImage& operator=(const SharedImage&) = delete;

  // --- capture (template side; store must not be frozen yet) -------------

  /// Capture every non-zero guest-physical page of the booted template
  /// machine into the store and record it in `machine`.
  void capture_machine(const mem::Machine& m);
  /// Render a planned view's shadow pages from `m`'s pristine frames into
  /// the store and append the layout, store pages filled in, to `views`.
  void capture_view(const mem::Machine& m, ViewLayout layout);
  /// Freeze the store and point `machine.store` at it. After this the image
  /// is immutable and VMs may attach.
  void finalize();
};

}  // namespace fc::core
