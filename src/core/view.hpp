// An in-memory kernel view: per-view shadow copies of the kernel code pages
// (UD2-filled except for the profiled functions) plus the EPT artifacts that
// install it — per-PDE page tables for the base kernel code region (switched
// at step 3A of Figure 2) and individual PTE overrides for module code pages
// scattered in the kernel heap (step 3B).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/viewconfig.hpp"
#include "mem/ept.hpp"

namespace fc::core {

struct KernelView {
  u32 id = 0;
  KernelViewConfig config;

  /// One EPT page table per PDE covering the base kernel code region.
  struct BasePde {
    u32 pde_index = 0;
    mem::EptTableId table;
  };
  std::vector<BasePde> base_pdes;

  /// PTE-level overrides for module code pages (the PDEs stay shared with
  /// kernel data, as in the paper).
  struct PteOverride {
    u32 pde_index = 0;
    u32 slot = 0;
    HostFrame view_frame = 0;
    HostFrame identity_frame = 0;  // restored when this view deactivates

    /// Guest-physical page this override redirects.
    GPhys gpa() const {
      return pde_index * mem::Ept::kPdeSpan + slot * kPageSize;
    }
  };
  std::vector<PteOverride> module_ptes;

  /// The per-view base table covering `pde_index`, or nullptr if that PDE
  /// is outside the switched base-kernel-code region.
  const BasePde* find_base_pde(u32 pde_index) const {
    for (const BasePde& bp : base_pdes)
      if (bp.pde_index == pde_index) return &bp;
    return nullptr;
  }

  /// Shadow frame per guest-physical code page this view manages
  /// (key = GPA >> 12). Code recovery writes into these.
  std::unordered_map<u32, HostFrame> shadow_frames;

  /// Currently-loaded code (grows as functions are recovered).
  RangeList loaded;

  bool manages_page(GPhys pa) const {
    return shadow_frames.count(pa >> kPageShift) != 0;
  }
};

/// A planned kernel view (§III-B1): ViewBuilder::plan computes it without
/// allocating, ViewBuilder::build turns it into a KernelView. Frame numbers
/// follow `pages` order, so builds of one layout in identical machine states
/// agree on them (prebuilt switch descriptors embed them).
struct ViewLayout {
  KernelViewConfig config;
  struct Page {
    u32 gpp = 0;          // guest-physical page the shadow covers
    bool module = false;  // true = step-3B PTE override, false = base code
    /// Shared store page holding the rendered bytes (SharedImage views);
    /// unset = build renders the page into a private frame.
    std::optional<u32> store_page;
  };
  /// Allocation order: base-code pages in page order, then each visible
  /// module's pages in module-list order.
  std::vector<Page> pages;
  /// Code present in the shadows, after whole-function relaxation.
  RangeList loaded;
};

/// View id 0 is reserved for the full kernel view.
inline constexpr u32 kFullKernelViewId = 0;

}  // namespace fc::core
