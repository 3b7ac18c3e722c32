#include <array>
#include <cstdint>
#include <map>
#include <sstream>

#include "analysis/passes.hpp"
#include "analysis/shadow.hpp"

namespace tlp::analysis {

namespace {

enum class RaceCat : std::uint8_t {
  kPlainPlain,   ///< two plain stores
  kAtomicPlain,  ///< atomic and plain store mixed
  kWriteRead,    ///< plain store concurrent with a read
  kAtomicRead,   ///< atomic write concurrent with a plain read
};

const char* cat_name(RaceCat c) {
  switch (c) {
    case RaceCat::kPlainPlain:
      return "plain write / plain write";
    case RaceCat::kAtomicPlain:
      return "atomic / plain write mix";
    case RaceCat::kWriteRead:
      return "plain write / read";
    case RaceCat::kAtomicRead:
      return "atomic write / plain read";
  }
  return "?";
}

/// Per-4B-word shadow: the last-writer epoch plus up to two distinct reader
/// warps since that write. Two readers suffice: a third reader can only race
/// with a writer that the recorded ones already race with.
struct WordShadow {
  std::int64_t w_warp = -1;
  std::uint32_t w_site = 0;
  bool w_atomic = false;
  std::array<std::int64_t, 2> r_warp{-1, -1};
  std::array<std::uint32_t, 2> r_site{0, 0};
};

/// One aggregated finding: a (site, site, category) triple.
struct RaceAgg {
  std::int64_t count = 0;
  std::uint64_t example_addr = 0;
  std::int64_t warp_a = -1, warp_b = -1;
};

struct RaceState {
  PagedShadow<WordShadow> shadow;
  // Ordered map keeps diagnostic order deterministic.
  std::map<std::tuple<std::uint32_t, std::uint32_t, RaceCat>, RaceAgg> found;

  void report(RaceCat cat, std::uint32_t prev_site, std::int64_t prev_warp,
              std::uint32_t cur_site, std::int64_t cur_warp,
              std::uint64_t word) {
    RaceAgg& agg = found[{cur_site, prev_site, cat}];
    if (agg.count++ == 0) {
      agg.example_addr = word << 2;
      agg.warp_a = prev_warp;
      agg.warp_b = cur_warp;
    }
  }

  void on_read(std::uint64_t word, std::int64_t warp, std::uint32_t site) {
    WordShadow& ws = shadow.at(word);
    if (ws.w_warp != -1 && ws.w_warp != warp) {
      report(ws.w_atomic ? RaceCat::kAtomicRead : RaceCat::kWriteRead,
             ws.w_site, ws.w_warp, site, warp, word);
    }
    if (ws.r_warp[0] == warp || ws.r_warp[1] == warp) return;
    if (ws.r_warp[0] == -1) {
      ws.r_warp[0] = warp;
      ws.r_site[0] = site;
    } else if (ws.r_warp[1] == -1) {
      ws.r_warp[1] = warp;
      ws.r_site[1] = site;
    }
  }

  void on_write(std::uint64_t word, std::int64_t warp, std::uint32_t site,
                bool atomic) {
    WordShadow& ws = shadow.at(word);
    if (ws.w_warp != -1 && ws.w_warp != warp && !(ws.w_atomic && atomic)) {
      report(ws.w_atomic || atomic ? RaceCat::kAtomicPlain
                                   : RaceCat::kPlainPlain,
             ws.w_site, ws.w_warp, site, warp, word);
    }
    for (int i = 0; i < 2; ++i) {
      if (ws.r_warp[i] != -1 && ws.r_warp[i] != warp) {
        report(atomic ? RaceCat::kAtomicRead : RaceCat::kWriteRead,
               ws.r_site[static_cast<std::size_t>(i)],
               ws.r_warp[static_cast<std::size_t>(i)], site, warp, word);
      }
    }
    ws.w_warp = warp;
    ws.w_site = site;
    ws.w_atomic = atomic;
    ws.r_warp = {-1, -1};
    ws.r_site = {0, 0};
  }
};

}  // namespace

void RacePass::run(const sim::KernelTrace& kt, const PassOptions& /*opt*/,
                   std::vector<Diagnostic>& out) const {
  RaceState state;
  for (const sim::TraceAccess& a : kt.accesses) {
    for_each_word(a, [&](std::uint64_t word) {
      switch (a.kind) {
        case sim::AccessKind::kLoad:
          state.on_read(word, a.warp, a.site);
          break;
        case sim::AccessKind::kStore:
          state.on_write(word, a.warp, a.site, /*atomic=*/false);
          break;
        case sim::AccessKind::kAtomic:
          state.on_write(word, a.warp, a.site, /*atomic=*/true);
          break;
      }
    });
  }

  for (const auto& [key, agg] : state.found) {
    const auto [cur_site, prev_site, cat] = key;
    Diagnostic d;
    d.rule = rule();
    d.severity =
        cat == RaceCat::kAtomicRead ? Severity::kWarning : Severity::kError;
    d.kernel = kt.kernel;
    d.site_id = cur_site;
    d.site2_id = prev_site;
    d.metric = static_cast<double>(agg.count);
    d.count = agg.count;
    std::ostringstream os;
    os << "cross-warp race (" << cat_name(cat) << "): warps " << agg.warp_a
       << " and " << agg.warp_b << " touch byte address " << agg.example_addr
       << " concurrently (same launch, no ordering); " << agg.count
       << " conflicting word(s)";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

}  // namespace tlp::analysis
