#include "core/viewbuilder.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "hv/guest_abi.hpp"
#include "os/kbuilder.hpp"
#include "support/check.hpp"

namespace fc::core {

using mem::GuestLayout;

void ViewBuilder::fill_ud2(std::span<u8> page) {
  // UD2 = 0F 0B repeated. At an odd offset the stream reads 0B 0F — a valid
  // OR instruction — which is exactly the cross-view hazard of Figure 3.
  for (std::size_t i = 0; i < page.size(); i += 2) {
    page[i] = 0x0F;
    if (i + 1 < page.size()) page[i + 1] = 0x0B;
  }
}

bool ViewBuilder::has_prologue_at(GVirt addr) const {
  // Function starts are 16-byte aligned (-falign-functions); requiring the
  // alignment avoids false positives on 0x55 bytes inside immediates.
  if (addr % os::KernelBuilder::kFuncAlign != 0) return false;
  u8 sig[3];
  hv_->pristine_read(addr, sig);
  return sig[0] == 0x55 && sig[1] == 0x89 && sig[2] == 0xE5;
}

ViewBuilder::Bounds ViewBuilder::function_bounds(GVirt addr,
                                                 GVirt region_begin,
                                                 GVirt region_end) const {
  FC_CHECK(addr >= region_begin && addr < region_end,
           << "address outside region");
  // SEARCH_BACKWARDS: nearest aligned prologue at or below addr. The scan
  // naturally continues across page boundaries because pristine_read is
  // linear in the kernel's address space (§III-B1's page-crossing case).
  GVirt start = region_begin;
  for (GVirt at = addr & ~(os::KernelBuilder::kFuncAlign - 1u);
       at >= region_begin; at -= os::KernelBuilder::kFuncAlign) {
    if (has_prologue_at(at)) {
      start = at;
      break;
    }
    if (at == region_begin) break;
  }
  // SEARCH_FORWARDS: next aligned prologue strictly above addr.
  GVirt end = region_end;
  for (GVirt at = (addr & ~(os::KernelBuilder::kFuncAlign - 1u)) +
                  os::KernelBuilder::kFuncAlign;
       at + 2 < region_end; at += os::KernelBuilder::kFuncAlign) {
    if (has_prologue_at(at)) {
      end = at;
      break;
    }
  }
  return Bounds{start, end};
}

void ViewBuilder::plan_ranges(const RangeList& ranges, GVirt offset,
                              GVirt region_begin, GVirt region_end,
                              RangeList* loaded) const {
  for (const auto& r : ranges.ranges()) {
    GVirt lo = std::max(offset + r.begin, region_begin);
    GVirt hi = std::min(offset + r.end, region_end);
    if (lo >= hi) continue;
    if (!options_.whole_function_loading) {
      loaded->insert(lo, hi);
      continue;
    }
    for (GVirt at = lo; at < hi;) {
      Bounds b = function_bounds(at, region_begin, region_end);
      loaded->insert(b.start, b.end);
      at = std::max(b.end, at + 1);
    }
  }
}

ViewLayout ViewBuilder::plan(const KernelViewConfig& config) const {
  ViewLayout layout;
  layout.config = config;

  // ---- Base kernel code region: one shadow per page, whole functions (or
  // raw blocks for the ablation) loaded.
  const GVirt text_begin = kernel_->text_base;
  const GVirt text_end = kernel_->text_end();
  const GPhys code_pa_end =
      GuestLayout::kernel_pa((text_end + kPageMask) & ~kPageMask);
  for (GPhys pa = GuestLayout::kernel_pa(page_base(text_begin));
       pa < code_pa_end; pa += kPageSize)
    layout.pages.push_back({pa >> kPageShift, false, {}});
  plan_ranges(config.base, 0, text_begin, text_end, &layout.loaded);

  // ---- Modules (step 3B): walk the guest module list to resolve load
  // addresses; shadow listed modules with their profiled functions loaded,
  // and (optionally) unlisted visible modules as all-UD2.
  for (const hv::ModuleInfo& mod : hv_->vmi().module_list()) {
    auto cfg_it = config.modules.find(mod.name);
    bool listed = cfg_it != config.modules.end();
    if (!listed && !options_.shadow_unlisted_modules) continue;

    GPhys mod_pa_end = GuestLayout::kernel_pa(
        (mod.base + mod.size + kPageMask) & ~kPageMask);
    for (GPhys pa = page_base(GuestLayout::kernel_pa(mod.base));
         pa < mod_pa_end; pa += kPageSize)
      layout.pages.push_back({pa >> kPageShift, true, {}});
    if (listed)
      plan_ranges(cfg_it->second, mod.base, mod.base, mod.base + mod.size,
                  &layout.loaded);
  }
  return layout;
}

void ViewBuilder::render_page(const mem::Machine& machine, u32 gpp,
                              const RangeList& loaded, std::span<u8> out) {
  fill_ud2(out);
  const GPhys pa = static_cast<GPhys>(gpp) << kPageShift;
  const GVirt va = GuestLayout::kernel_va(pa);
  const u64 va_end = static_cast<u64>(va) + kPageSize;
  const u8* pristine =
      machine.host().frame(machine.boot_frame_for(pa)).data();
  const std::vector<RangeList::Range>& ranges = loaded.ranges();
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), va,
      [](GVirt v, const RangeList::Range& r) { return v < r.end; });
  for (; it != ranges.end() && it->begin < va_end; ++it) {
    const u32 lo = std::max(it->begin, va) - va;
    const u32 hi = static_cast<u32>(std::min<u64>(it->end, va_end) - va);
    std::memcpy(out.data() + lo, pristine + lo, hi - lo);
  }
}

std::unique_ptr<KernelView> ViewBuilder::build(const ViewLayout& layout,
                                               u32 id) {
  auto view = std::make_unique<KernelView>();
  view->id = id;
  view->config = layout.config;
  view->loaded = layout.loaded;
  mem::Machine& machine = hv_->machine();
  mem::HostMemory& host = machine.host();
  mem::Ept& ept = machine.ept();

  // Shadow frames in layout order (frame numbers follow it), each mapped
  // by a PTE override (module, step 3B) or by a per-view copy of its PDE's
  // table (base code, step 3A; seeded from the current table so non-code
  // pages keep their mapping).
  for (const ViewLayout::Page& p : layout.pages) {
    HostFrame f;
    if (p.store_page) {
      f = host.adopt_shared(*p.store_page);
    } else {
      f = host.alloc_frame();
      render_page(machine, p.gpp, layout.loaded, host.frame(f));
    }
    view->shadow_frames[p.gpp] = f;
    const GPhys pa = static_cast<GPhys>(p.gpp) << kPageShift;
    const u32 pde = mem::Ept::pde_index_of(pa);
    if (p.module) {
      view->module_ptes.push_back(
          {pde, mem::Ept::pte_slot_of(pa), f, machine.boot_frame_for(pa)});
      continue;
    }
    if (view->base_pdes.empty() || view->base_pdes.back().pde_index != pde) {
      mem::EptTableId table = ept.alloc_table();
      ept.copy_table(table, ept.pde(pde));
      view->base_pdes.push_back({pde, table});
    }
    ept.set_pte(view->base_pdes.back().table, mem::Ept::pte_slot_of(pa),
                mem::EptEntry{true, f});
  }

  // Keep module overrides in (pde, slot) order so switch descriptors built
  // from two views walk them deterministically regardless of the guest
  // module list's order.
  std::sort(view->module_ptes.begin(), view->module_ptes.end(),
            [](const KernelView::PteOverride& a,
               const KernelView::PteOverride& b) {
              return std::make_pair(a.pde_index, a.slot) <
                     std::make_pair(b.pde_index, b.slot);
            });

  // The EPT writes performed while *building* are setup cost, not switch
  // cost: the engine charges switch costs from stat deltas it snapshots
  // around each switch.
  return view;
}

}  // namespace fc::core
