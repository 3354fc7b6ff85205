// Kernel view initialization tests (§III-B1): UD2 filling, whole-function
// loading via prologue-signature search (including page-crossing functions),
// EPT artifact construction, and module shadowing. The contract tests at the
// end check every byte of every shadow page, and that a view built from
// shared store pages is frame-for-frame identical to a privately built one.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.hpp"
#include "support/rng.hpp"

namespace fc {
namespace {

using mem::GuestLayout;

class ViewBuilderFixture : public ::testing::Test {
 protected:
  ViewBuilderFixture() : builder_(sys_.hv(), sys_.os().kernel()) {}

  /// Current-EPT read of a kernel text byte (what the guest would fetch).
  u8 current_byte(GVirt va) {
    return sys_.hv().machine().pread8(GuestLayout::kernel_pa(va));
  }

  harness::GuestSystem sys_;
  core::ViewBuilder builder_;
};

TEST_F(ViewBuilderFixture, Ud2FillPattern) {
  std::vector<u8> page(kPageSize, 0);
  core::ViewBuilder::fill_ud2(page);
  for (u32 i = 0; i + 1 < kPageSize; i += 2) {
    ASSERT_EQ(page[i], 0x0F);
    ASSERT_EQ(page[i + 1], 0x0B);
  }
}

TEST_F(ViewBuilderFixture, FunctionBoundsMatchBuilderMetadata) {
  const os::KernelImage& kernel = sys_.os().kernel();
  int checked = 0;
  for (const os::FuncMeta& fn : kernel.functions) {
    if (!fn.has_frame) continue;
    if (++checked > 60) break;
    // Probe from the middle of the function.
    core::ViewBuilder::Bounds b = builder_.function_bounds(
        fn.address + fn.size / 2, kernel.text_base, kernel.text_end());
    EXPECT_EQ(b.start, fn.address) << fn.name;
    // The found end is the next aligned prologue — at or after the true end.
    EXPECT_GE(b.end, fn.address + fn.size) << fn.name;
    EXPECT_LE(b.end - fn.address, fn.size + 64u) << fn.name;
  }
  EXPECT_EQ(checked, 61);
}

TEST_F(ViewBuilderFixture, FunctionBoundsHandlePageCrossingFunctions) {
  const os::KernelImage& kernel = sys_.os().kernel();
  // Find a framed function that straddles a page boundary (§III-B1's
  // page-crossing case).
  const os::FuncMeta* crosser = nullptr;
  for (const os::FuncMeta& fn : kernel.functions) {
    if (fn.has_frame && page_of(fn.address) != page_of(fn.address + fn.size - 1)) {
      crosser = &fn;
      break;
    }
  }
  ASSERT_NE(crosser, nullptr) << "no page-crossing function in the kernel?";
  // Probe from the far side of the page boundary: the backward search must
  // continue across the page to find the prologue.
  GVirt probe = page_base(crosser->address + crosser->size - 1) + 4;
  core::ViewBuilder::Bounds b =
      builder_.function_bounds(probe, kernel.text_base, kernel.text_end());
  EXPECT_EQ(b.start, crosser->address);
}

TEST_F(ViewBuilderFixture, BuildsUd2ShadowsWithProfiledFunctionsLoaded) {
  const os::KernelImage& kernel = sys_.os().kernel();
  GVirt target = kernel.symbols.must_addr("sys_getpid");
  core::KernelViewConfig cfg;
  cfg.app_name = "mini";
  cfg.base.insert(target + 4, target + 8);  // one basic block inside

  auto view = builder_.build(builder_.plan(cfg), 7);
  // The whole containing function was loaded (not just the block).
  const hv::Symbol* fn = kernel.symbols.find_covering(target);
  EXPECT_TRUE(view->loaded.covers(fn->address, fn->address + fn->size));

  // Shadow frames: loaded bytes match pristine; unloaded bytes are UD2.
  u32 page = GuestLayout::kernel_pa(target) >> kPageShift;
  ASSERT_TRUE(view->shadow_frames.count(page));
  HostFrame shadow = view->shadow_frames.at(page);
  auto bytes = sys_.hv().machine().host().frame(shadow);
  EXPECT_EQ(bytes[page_offset(GuestLayout::kernel_pa(target))], 0x55);

  GVirt far_away = kernel.symbols.must_addr("udp_recvmsg");
  u32 far_page = GuestLayout::kernel_pa(far_away) >> kPageShift;
  ASSERT_TRUE(view->shadow_frames.count(far_page));
  auto far_bytes = sys_.hv().machine().host().frame(
      view->shadow_frames.at(far_page));
  u32 off = page_offset(GuestLayout::kernel_pa(far_away)) & ~1u;
  EXPECT_EQ(far_bytes[off], 0x0F);
  EXPECT_EQ(far_bytes[off + 1], 0x0B);
}

TEST_F(ViewBuilderFixture, EveryKernelCodePageIsShadowed) {
  core::KernelViewConfig cfg;
  cfg.app_name = "empty";
  cfg.base.insert(sys_.os().kernel().text_base,
                  sys_.os().kernel().text_base + 16);
  auto view = builder_.build(builder_.plan(cfg), 1);
  const os::KernelImage& kernel = sys_.os().kernel();
  u32 first = GuestLayout::kernel_pa(page_base(kernel.text_base)) >> kPageShift;
  u32 last =
      GuestLayout::kernel_pa(kernel.text_end() - 1) >> kPageShift;
  for (u32 page = first; page <= last; ++page)
    EXPECT_TRUE(view->shadow_frames.count(page)) << page;
  EXPECT_FALSE(view->base_pdes.empty());
}

TEST_F(ViewBuilderFixture, VisibleUnlistedModulesAreShadowedAsUd2) {
  // e1000 is loaded and visible; a config without it gets all-UD2 module
  // pages ("everything not in the view is invalid code").
  core::KernelViewConfig cfg;
  cfg.app_name = "nomod";
  cfg.base.insert(sys_.os().kernel().text_base,
                  sys_.os().kernel().text_base + 16);
  auto view = builder_.build(builder_.plan(cfg), 2);
  auto mod = sys_.os().loaded_module("e1000");
  ASSERT_TRUE(mod.has_value());
  u32 mod_page = GuestLayout::kernel_pa(mod->base) >> kPageShift;
  ASSERT_TRUE(view->shadow_frames.count(mod_page));
  auto bytes =
      sys_.hv().machine().host().frame(view->shadow_frames.at(mod_page));
  EXPECT_EQ(bytes[0], 0x0F);
  EXPECT_EQ(bytes[1], 0x0B);
  EXPECT_FALSE(view->module_ptes.empty());
}

TEST_F(ViewBuilderFixture, ListedModuleFunctionsAreLoaded) {
  auto mod = sys_.os().loaded_module("e1000");
  ASSERT_TRUE(mod.has_value());
  core::KernelViewConfig cfg;
  cfg.app_name = "withmod";
  cfg.base.insert(sys_.os().kernel().text_base,
                  sys_.os().kernel().text_base + 16);
  cfg.modules["e1000"].insert(4, 12);  // a block inside the first function
  auto view = builder_.build(builder_.plan(cfg), 3);
  // The containing module function got loaded whole: its prologue byte is
  // present in the shadow.
  u32 mod_page = GuestLayout::kernel_pa(mod->base) >> kPageShift;
  auto bytes =
      sys_.hv().machine().host().frame(view->shadow_frames.at(mod_page));
  EXPECT_EQ(bytes[page_offset(GuestLayout::kernel_pa(mod->base))], 0x55);
}

TEST_F(ViewBuilderFixture, BlockGranularityLoadsOnlyProfiledBytes) {
  core::ViewBuilderOptions options;
  options.whole_function_loading = false;
  core::ViewBuilder block_builder(sys_.hv(), sys_.os().kernel(), options);

  const os::KernelImage& kernel = sys_.os().kernel();
  GVirt target = kernel.symbols.must_addr("sys_getpid");
  core::KernelViewConfig cfg;
  cfg.app_name = "blocks";
  cfg.base.insert(target + 4, target + 8);
  auto view = block_builder.build(block_builder.plan(cfg), 4);
  EXPECT_TRUE(view->loaded.covers(target + 4, target + 8));
  EXPECT_FALSE(view->loaded.contains(target));  // prologue NOT loaded
}

TEST_F(ViewBuilderFixture, LoadedViewsReflectConfigSize) {
  const core::KernelViewConfig& cfg = harness::profile_of("top");
  auto view = builder_.build(builder_.plan(cfg), 5);
  // Whole-function relaxation only grows the loaded set.
  EXPECT_GE(view->loaded.size_bytes(), cfg.base.size_bytes());
}

// ---------------------------------------------------------------------------
// Shadow-page contract over the 12 profiled views and seeded random configs.
// ---------------------------------------------------------------------------

struct Case {
  core::ViewBuilderOptions options;
  core::KernelViewConfig config;
};

/// The 12 profiled views under default options, then seeded random configs
/// that reach the clipping paths: base ranges straddling text_end, module
/// ranges past the module's size, unknown module names, and both ablation
/// switches.
std::vector<Case> contract_cases(harness::GuestSystem& sys) {
  std::vector<Case> cases;
  for (const std::string& app : apps::all_app_names())
    cases.push_back({{}, harness::profile_of(app)});

  const os::KernelImage& kernel = sys.os().kernel();
  const std::vector<hv::ModuleInfo> modules = sys.hv().vmi().module_list();
  Rng rng(0x5EED);
  for (u32 i = 0; i < 12; ++i) {
    Case c;
    c.options.whole_function_loading = i % 3 != 2;
    c.options.shadow_unlisted_modules = i % 4 != 3;
    c.config.app_name = "random" + std::to_string(i);
    const u32 text_size = static_cast<u32>(kernel.text.size());
    for (u32 n = rng.between(1, 24); n > 0; --n) {
      GVirt lo = kernel.text_base + rng.below(text_size);
      c.config.base.insert(lo, lo + rng.between(1, 300));
    }
    // Straddles text_end (and runs past the last code page).
    GVirt tail = kernel.text_end() - rng.between(1, 200);
    c.config.base.insert(tail, kernel.text_end() + rng.between(1, 6000));
    for (const hv::ModuleInfo& mod : modules) {
      if (!rng.chance(0.6)) continue;
      core::RangeList& r = c.config.modules[mod.name];
      for (u32 n = rng.between(1, 4); n > 0; --n) {
        u32 lo = rng.below(mod.size);
        r.insert(lo, lo + rng.between(1, 120));
      }
      // Starts inside, ends past the module's size; and one fully past it.
      r.insert(mod.size - rng.between(1, std::min(40u, mod.size)),
               mod.size + rng.between(1, 5000));
      r.insert(mod.size + 4096, mod.size + 4096 + rng.between(1, 64));
    }
    c.config.modules["no_such_module"].insert(0, rng.between(1, 4096));
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Every byte of every shadow page: pristine inside `loaded`, the UD2
/// pattern by offset parity outside it.
void expect_shadow_bytes(harness::GuestSystem& sys,
                         const core::KernelView& view) {
  const mem::HostMemory& host = sys.hv().machine().host();
  u32 wrong = 0;
  for (const auto& [gpp, frame] : view.shadow_frames) {
    const GVirt va = GuestLayout::kernel_va(static_cast<GPhys>(gpp)
                                            << kPageShift);
    std::span<const u8> bytes = host.frame(frame);
    for (u32 off = 0; off < kPageSize; ++off) {
      const u8 want = view.loaded.contains(va + off)
                          ? sys.hv().pristine_read8(va + off)
                          : (off % 2 == 0 ? 0x0F : 0x0B);
      if (bytes[off] != want && wrong++ < 5)
        ADD_FAILURE() << view.config.app_name << ": byte at 0x" << std::hex
                      << va + off << " is 0x" << int{bytes[off]}
                      << ", want 0x" << int{want};
    }
  }
  EXPECT_EQ(wrong, 0u) << view.config.app_name;
}

TEST(ViewContract, PlanAllocatesNothing) {
  harness::GuestSystem sys;
  core::ViewBuilder builder(sys.hv(), sys.os().kernel());
  const mem::HostMemory& host = sys.hv().machine().host();
  const u32 frames = host.frame_count();
  const u32 privates = host.private_frame_count();
  core::ViewLayout layout = builder.plan(harness::profile_of("apache"));
  EXPECT_EQ(host.frame_count(), frames);
  EXPECT_EQ(host.private_frame_count(), privates);
  // Base pages first, then module pages.
  ASSERT_FALSE(layout.pages.empty());
  EXPECT_FALSE(layout.pages.front().module);
  EXPECT_TRUE(layout.pages.back().module);
  for (const core::ViewLayout::Page& p : layout.pages)
    EXPECT_FALSE(p.store_page.has_value());
}

TEST(ViewContract, EveryShadowByteIsPristineOrUd2) {
  harness::GuestSystem sys;
  u32 id = 1;
  for (const Case& c : contract_cases(sys)) {
    core::ViewBuilder builder(sys.hv(), sys.os().kernel(), c.options);
    auto view = builder.build(builder.plan(c.config), id++);
    expect_shadow_bytes(sys, *view);
  }
}

TEST(ViewContract, AdoptedAndPrivateBuildsAreIdentical) {
  // Template: capture its memory and every case's rendered layout.
  harness::GuestSystem tmpl({}, harness::GuestSystem::FreshBoot{});
  const std::vector<Case> cases = contract_cases(tmpl);
  core::SharedImage image;
  image.capture_machine(tmpl.hv().machine());
  image.boot.kernel = tmpl.os().kernel();
  image.boot.modules = tmpl.os().loaded_module_images();
  for (const Case& c : cases) {
    core::ViewBuilder builder(tmpl.hv(), tmpl.os().kernel(), c.options);
    image.capture_view(tmpl.hv().machine(), builder.plan(c.config));
  }
  image.finalize();

  // A fresh VM renders private frames; a clone adopts the store's pages.
  harness::GuestSystem fresh({}, harness::GuestSystem::FreshBoot{});
  harness::GuestSystem clone({}, image);
  const mem::HostMemory& fh = fresh.hv().machine().host();
  const mem::HostMemory& ch = clone.hv().machine().host();
  const mem::Ept& fe = fresh.hv().machine().ept();
  const mem::Ept& ce = clone.hv().machine().ept();
  ASSERT_EQ(fh.frame_count(), ch.frame_count());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const u32 id = static_cast<u32>(i) + 1;
    core::ViewBuilder fb(fresh.hv(), fresh.os().kernel(), cases[i].options);
    core::ViewBuilder cb(clone.hv(), clone.os().kernel(), cases[i].options);
    auto priv = fb.build(fb.plan(cases[i].config), id);
    auto adopted = cb.build(image.views[i], id);
    const std::string& name = cases[i].config.app_name;

    EXPECT_TRUE(priv->loaded == adopted->loaded) << name;
    ASSERT_EQ(priv->shadow_frames.size(), adopted->shadow_frames.size())
        << name;
    for (const auto& [gpp, frame] : priv->shadow_frames) {
      ASSERT_TRUE(adopted->shadow_frames.count(gpp)) << name;
      const HostFrame af = adopted->shadow_frames.at(gpp);
      EXPECT_EQ(frame, af) << name << " page " << gpp;
      EXPECT_TRUE(ch.is_shared(af)) << name << " page " << gpp;
      EXPECT_TRUE(std::equal(fh.frame(frame).begin(), fh.frame(frame).end(),
                             ch.frame(af).begin()))
          << name << " page " << gpp;
    }
    ASSERT_EQ(priv->base_pdes.size(), adopted->base_pdes.size()) << name;
    for (std::size_t b = 0; b < priv->base_pdes.size(); ++b) {
      const core::KernelView::BasePde& pb = priv->base_pdes[b];
      const core::KernelView::BasePde& ab = adopted->base_pdes[b];
      EXPECT_EQ(pb.pde_index, ab.pde_index) << name;
      EXPECT_EQ(pb.table.index, ab.table.index) << name;
      for (u32 slot = 0; slot < mem::Ept::kEntriesPerTable; ++slot) {
        const mem::EptEntry pe = fe.pte(pb.table, slot);
        const mem::EptEntry ae = ce.pte(ab.table, slot);
        EXPECT_TRUE(pe.present == ae.present && pe.frame == ae.frame)
            << name << " pde " << pb.pde_index << " slot " << slot;
      }
    }
    ASSERT_EQ(priv->module_ptes.size(), adopted->module_ptes.size()) << name;
    for (std::size_t m = 0; m < priv->module_ptes.size(); ++m) {
      const core::KernelView::PteOverride& pm = priv->module_ptes[m];
      const core::KernelView::PteOverride& am = adopted->module_ptes[m];
      EXPECT_TRUE(pm.pde_index == am.pde_index && pm.slot == am.slot &&
                  pm.view_frame == am.view_frame &&
                  pm.identity_frame == am.identity_frame)
          << name << " module pte " << m;
    }
    expect_shadow_bytes(clone, *adopted);
  }
  EXPECT_EQ(fh.frame_count(), ch.frame_count());
}

}  // namespace
}  // namespace fc
