// Paged per-word shadow memory for the per-launch tlpsan passes
// (TLP-RACE-001, TLP-RED-005).
//
// Trace addresses are arena byte offsets, so a launch touches a few dense
// runs of words scattered over a possibly huge offset range. The shadow is
// split into pages of kPageWords 4-byte words, each allocated (with
// value-initialized cells) the first time a word in it is touched and found
// by `word >> kPageBits`. The page last used is cached, so runs of accesses
// into one feature row or index array skip the page-table lookup entirely.
// Memory grows with the pages a launch touches, not with the span between
// its lowest and highest address.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sim/trace.hpp"

namespace tlp::analysis {

template <class Cell>
class PagedShadow {
 public:
  static constexpr int kPageBits = 12;
  static constexpr std::uint64_t kPageWords = std::uint64_t{1} << kPageBits;

  /// The cell of 4-byte word `word`; value-initialized on first touch.
  Cell& at(std::uint64_t word) {
    const std::uint64_t page = word >> kPageBits;
    if (cached_ == nullptr || page != cached_page_) {
      std::unique_ptr<Cell[]>& slot = pages_[page];
      if (!slot) slot = std::make_unique<Cell[]>(kPageWords);
      cached_ = slot.get();
      cached_page_ = page;
    }
    return cached_[word & (kPageWords - 1)];
  }

  /// Pages allocated so far (the shadow's footprint in kPageWords units).
  [[nodiscard]] std::size_t pages() const { return pages_.size(); }

 private:
  std::unordered_map<std::uint64_t, std::unique_ptr<Cell[]>> pages_;
  Cell* cached_ = nullptr;
  std::uint64_t cached_page_ = 0;
};

/// Calls `fn(std::uint64_t word)` for every 4-byte word each active lane of
/// `a` touches, lane by lane in ascending order. Sub-word accesses count as
/// the one word they fall in.
template <class WordFn>
void for_each_word(const sim::TraceAccess& a, WordFn&& fn) {
  const int words = a.bytes >= 4 ? a.bytes / 4 : 1;
  for (int l = 0; l < sim::kTraceWarpSize; ++l) {
    if (((a.mask >> l) & 1u) == 0) continue;
    const std::uint64_t word0 = a.addr[static_cast<std::size_t>(l)] >> 2;
    for (int wd = 0; wd < words; ++wd)
      fn(word0 + static_cast<std::uint64_t>(wd));
  }
}

}  // namespace tlp::analysis
