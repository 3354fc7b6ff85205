// Kernel view initialization (§III-B1). plan() decides from the pristine
// kernel bytes and the guest module list alone which code pages get
// UD2-filled shadows (base text, then every visible module) and which code
// is loaded into them: each profiled block relaxed to its whole function by
// searching for the prologue signature 55 89 E5 (16-byte aligned, possibly
// across page boundaries). build() is the only KernelView constructor: it
// allocates or adopts the shadow frames in plan order and prebuilds the EPT
// artifacts the engine swaps in at switch time.
#pragma once

#include <memory>
#include <span>

#include "core/view.hpp"
#include "hv/hypervisor.hpp"
#include "os/kernel_image.hpp"

namespace fc::core {

struct ViewBuilderOptions {
  /// Paper default: relax block granularity to whole kernel functions
  /// (§III-B1's two rationales). false = load raw profiled blocks only
  /// (the ablation; suffers frequent recoveries and fragmented-UD2 decode).
  bool whole_function_loading = true;
  /// Fill shadows of *visible but unprofiled* modules with UD2 (paper
  /// behaviour: everything not in the view config is invalid code).
  bool shadow_unlisted_modules = true;
};

class ViewBuilder {
 public:
  ViewBuilder(hv::Hypervisor& hv, const os::KernelImage& kernel,
              ViewBuilderOptions options = {})
      : hv_(&hv), kernel_(&kernel), options_(options) {}

  /// Plan a view from a config: reads pristine bytes and the module list,
  /// allocates nothing.
  ViewLayout plan(const KernelViewConfig& config) const;

  /// Build a view from a layout. Pages carrying a store page adopt it
  /// copy-on-write; the rest get a private frame rendered by render_page.
  /// Then the per-PDE base-code tables and the sorted module PTE overrides
  /// are built. Allocates shadow host frames and EPT tables in layout order;
  /// does not install anything.
  std::unique_ptr<KernelView> build(const ViewLayout& layout, u32 id);

  /// The bytes of one shadow page: UD2 everywhere, then the page's share of
  /// `loaded` copied from its pristine (boot) frame.
  static void render_page(const mem::Machine& machine, u32 gpp,
                          const RangeList& loaded, std::span<u8> out);

  /// Function-boundary search on the pristine kernel bytes. Returns
  /// [start, end) of the function containing `addr`, clamped to
  /// [region_begin, region_end). Exposed for tests and for the recovery
  /// engine (which performs the same search at trap time).
  struct Bounds {
    GVirt start = 0;
    GVirt end = 0;
  };
  Bounds function_bounds(GVirt addr, GVirt region_begin,
                         GVirt region_end) const;

  const ViewBuilderOptions& options() const { return options_; }

  /// UD2 filler pattern check helper (tests).
  static void fill_ud2(std::span<u8> page);

 private:
  bool has_prologue_at(GVirt addr) const;
  /// Add `ranges` (relative to `offset`) to `loaded`, clipped to
  /// [region_begin, region_end) and relaxed to whole functions unless the
  /// block-granularity ablation is on.
  void plan_ranges(const RangeList& ranges, GVirt offset, GVirt region_begin,
                   GVirt region_end, RangeList* loaded) const;

  hv::Hypervisor* hv_;
  const os::KernelImage* kernel_;
  ViewBuilderOptions options_;
};

}  // namespace fc::core
