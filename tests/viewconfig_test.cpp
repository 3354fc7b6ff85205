// Kernel view configuration files: serialization, merging, union views.
#include <gtest/gtest.h>

#include "core/viewconfig.hpp"

namespace fc::core {
namespace {

KernelViewConfig sample() {
  KernelViewConfig cfg;
  cfg.app_name = "apache";
  cfg.base.insert(0xC0400000, 0xC0400400);
  cfg.base.insert(0xC0500000, 0xC0501000);
  cfg.modules["e1000"].insert(0x0, 0x200);
  cfg.modules["e1000"].insert(0x400, 0x480);
  return cfg;
}

TEST(ViewConfig, SerializeParseRoundTrip) {
  KernelViewConfig cfg = sample();
  std::optional<KernelViewConfig> back =
      KernelViewConfig::parse(cfg.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(cfg == *back);
}

TEST(ViewConfig, SerializedFormIsReadable) {
  std::string text = sample().serialize();
  EXPECT_NE(text.find("app apache"), std::string::npos);
  EXPECT_NE(text.find("[base]"), std::string::npos);
  EXPECT_NE(text.find("[module e1000]"), std::string::npos);
  EXPECT_NE(text.find("0xc0400000 0xc0400400"), std::string::npos);
}

TEST(ViewConfig, SizeSpansBaseAndModules) {
  KernelViewConfig cfg = sample();
  EXPECT_EQ(cfg.size_bytes(), 0x400u + 0x1000u + 0x200u + 0x80u);
}

TEST(ViewConfig, MergeIsUnion) {
  KernelViewConfig a = sample();
  KernelViewConfig b;
  b.base.insert(0xC0400200, 0xC0400800);  // overlaps a's first range
  b.modules["kbeast"].insert(0, 0x100);
  a.merge(b);
  EXPECT_TRUE(a.base.contains(0xC0400700));
  EXPECT_EQ(a.modules.size(), 2u);
  EXPECT_EQ(a.base.size_bytes(), 0x800u + 0x1000u);
}

TEST(ViewConfig, IntersectMatchesModulesByName) {
  KernelViewConfig a = sample();
  KernelViewConfig b;
  b.base.insert(0xC0400100, 0xC0400200);
  b.modules["e1000"].insert(0x100, 0x300);
  b.modules["other"].insert(0, 0x1000);
  KernelViewConfig c = a.intersect(b);
  EXPECT_EQ(c.base.size_bytes(), 0x100u);
  ASSERT_EQ(c.modules.count("e1000"), 1u);
  EXPECT_EQ(c.modules.at("e1000").size_bytes(), 0x100u);  // [0x100,0x200)
  EXPECT_EQ(c.modules.count("other"), 0u);
}

TEST(ViewConfig, UnionView) {
  KernelViewConfig a = sample();
  KernelViewConfig b;
  b.app_name = "top";
  b.base.insert(0xC0600000, 0xC0600100);
  KernelViewConfig u = make_union_view({a, b});
  EXPECT_EQ(u.app_name, "union");
  EXPECT_TRUE(u.base.contains(0xC0400000));
  EXPECT_TRUE(u.base.contains(0xC0600000));
  EXPECT_EQ(u.size_bytes(), a.size_bytes() + 0x100u);
}

TEST(ViewConfig, ParseIgnoresCommentsAndBlankLines) {
  std::optional<KernelViewConfig> cfg = KernelViewConfig::parse(
      "# comment\n\napp x\n[base]\n# another\n0x00001000 0x00002000\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->app_name, "x");
  EXPECT_EQ(cfg->base.size_bytes(), 0x1000u);
}

// View files are outside input: every malformed line is reported with its
// line number, never aborted on, truncated or half-read.
TEST(ViewConfig, ParseRejectsMalformedLines) {
  const struct {
    const char* body;  // the file's lines after "app x" (line 1)
    u32 line;
    const char* reason;
  } kCases[] = {
      {"[base]\nnot a range\n", 3, "want two addresses"},
      {"[base]\n0x10 0x5\n", 3, "empty or inverted range"},
      {"[base]\n0x10 0x10\n", 3, "empty or inverted range"},
      {"[base]\n0xc0100000 0xc0100010junk\n", 3, "not a 32-bit"},
      {"[base]\n0x1c0100000 0x1c0100010\n", 3, "not a 32-bit"},
      {"[base]\n0x 0x10\n", 3, "not a 32-bit"},
      {"[base]\n0x-1 0x10\n", 3, "not a 32-bit"},
      {"[base]\n10 0x20\n", 3, "not a 32-bit"},
      {"[base]\n0x0x10 0x20\n", 3, "not a 32-bit"},
      {"[base]\n0x10\n", 3, "want two addresses"},
      {"[base]\n0x10 0x20 0x30\n", 3, "want two addresses"},
      {"[base]\n0x10 0x20 # note\n", 3, "want two addresses"},
      {"0x10 0x20\n", 2, "range before any section"},
      {"[base]\n0x10 0x20\n[module ]\n0x0 0x10\n", 4, "empty module"},
      {"[base]\n\n# ok\n[module e1000\n", 5, "malformed section"},
  };
  for (const auto& c : kCases) {
    ViewConfigError error;
    const std::string text = std::string("app x\n") + c.body;
    EXPECT_FALSE(KernelViewConfig::parse(text, &error).has_value()) << text;
    EXPECT_EQ(error.line, c.line) << text;
    EXPECT_NE(error.reason.find(c.reason), std::string::npos)
        << text << " -> " << error.reason;
  }
  // The app line: exactly one, with a non-empty name. A missing one is the
  // whole file's fault (line 0); a second or empty one is its own line's.
  const struct {
    const char* text;
    u32 line;
    const char* reason;
  } kAppCases[] = {
      {"", 0, "no 'app NAME' line"},
      {"# only a comment\n", 0, "no 'app NAME' line"},
      {"[base]\n0x10 0x20\n", 0, "no 'app NAME' line"},
      {"app \n[base]\n", 1, "empty app name"},
      {"# header\napp a\n[base]\napp b\n", 4, "second app line"},
  };
  for (const auto& c : kAppCases) {
    ViewConfigError error;
    EXPECT_FALSE(KernelViewConfig::parse(c.text, &error).has_value())
        << c.text;
    EXPECT_EQ(error.line, c.line) << c.text;
    EXPECT_NE(error.reason.find(c.reason), std::string::npos)
        << c.text << " -> " << error.reason;
  }
  // The widest valid forms still parse: full 32-bit values, upper-case
  // digits, any whitespace between the two tokens.
  std::optional<KernelViewConfig> cfg = KernelViewConfig::parse(
      "app x\n[base]\n0xFFFFFFF0 0xffffffff\n0x1\t 0x2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->base.size_bytes(), 0xFu + 0x1u);
}

}  // namespace
}  // namespace fc::core
