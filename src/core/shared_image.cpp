#include "core/shared_image.hpp"

#include <cstring>

#include "core/viewbuilder.hpp"

namespace fc::core {

void SharedImage::capture_machine(const mem::Machine& m) {
  guest_phys_mib = m.guest_phys_pages() / (1024 * 1024 / kPageSize);
  const mem::HostMemory& host = m.host();
  for (u32 page = 0; page < m.guest_phys_pages(); ++page) {
    HostFrame f = m.boot_frame_for(static_cast<GPhys>(page) * kPageSize);
    std::span<const u8> bytes = host.frame(f);
    if (std::memcmp(bytes.data(), mem::zero_page_data(), kPageSize) == 0)
      continue;  // zero pages stay zero-backed in clones
    machine.pages.emplace_back(page, store.add_page(bytes));
  }
}

void SharedImage::capture_view(const mem::Machine& m, ViewLayout layout) {
  std::vector<u8> bytes(kPageSize);
  for (ViewLayout::Page& p : layout.pages) {
    ViewBuilder::render_page(m, p.gpp, layout.loaded, bytes);
    p.store_page = store.add_page(bytes);
  }
  views.push_back(std::move(layout));
}

void SharedImage::finalize() {
  store.freeze();
  machine.store = &store;
}

}  // namespace fc::core
