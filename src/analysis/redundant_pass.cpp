#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/passes.hpp"
#include "analysis/shadow.hpp"

namespace tlp::analysis {

namespace {

/// A load of a word by one register scope.
struct LastLoad {
  std::int64_t seq = -1;   ///< global lane-op sequence of that load
  std::uint32_t site = 0;  ///< site that issued it
};

/// Per-word shadow cell: the last store by anyone, and the most recent load
/// together with the register scope that issued it (its owner).
struct WordCell {
  std::int64_t store_seq = -1;  ///< sequence of the last store/atomic
  std::int32_t owner = -1;      ///< dense scope id of `load`; -1 = none
  LastLoad load;
};

}  // namespace

void RedundantLoadPass::run(const sim::KernelTrace& kt, const PassOptions& opt,
                            std::vector<Diagnostic>& out) const {
  // Scope = (warp, item): the lifetime of the registers §6's caching would
  // hold a value in. First pass: a dense id per scope, and the index of each
  // scope's last load, so the main pass knows which scopes can still reload.
  const std::size_t n = kt.accesses.size();
  std::vector<std::int32_t> scope_of(n);
  std::vector<std::size_t> last_load_at;  // by scope id
  {
    std::map<std::pair<std::int64_t, std::int64_t>, std::int32_t> ids;
    std::int32_t cur = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::TraceAccess& a = kt.accesses[i];
      if (i == 0 || a.warp != kt.accesses[i - 1].warp ||
          a.item != kt.accesses[i - 1].item) {
        const auto [it, fresh] = ids.emplace(
            std::pair{a.warp, a.item}, static_cast<std::int32_t>(ids.size()));
        cur = it->second;
        if (fresh) last_load_at.push_back(0);
      }
      scope_of[i] = cur;
      if (a.kind == sim::AccessKind::kLoad)
        last_load_at[static_cast<std::size_t>(cur)] = i;
    }
  }

  // Each word's cell remembers one scope's last load. When another scope
  // takes the cell over while the previous owner still has loads ahead, the
  // owner's entry is parked here, keyed by (scope, word), so the pass stays
  // exact for any interleaving. The scheduler runs each scope's accesses
  // contiguously, so its traces never park anything.
  PagedShadow<WordCell> shadow;
  std::map<std::pair<std::int32_t, std::uint64_t>, LastLoad> parked;
  // (refetch site, first-load site) -> redundant fetch count.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> redundant;

  std::int64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::TraceAccess& a = kt.accesses[i];
    const std::int32_t scope = scope_of[i];
    for_each_word(a, [&](std::uint64_t word) {
      ++seq;
      WordCell& c = shadow.at(word);
      if (a.kind != sim::AccessKind::kLoad) {
        c.store_seq = seq;
        return;
      }
      LastLoad prev;
      if (c.owner == scope) {
        prev = c.load;
      } else {
        if (!parked.empty()) {
          const auto it = parked.find({scope, word});
          if (it != parked.end()) {
            prev = it->second;
            parked.erase(it);
          }
        }
        if (c.owner >= 0 &&
            last_load_at[static_cast<std::size_t>(c.owner)] > i) {
          parked[{c.owner, word}] = c.load;
        }
        c.owner = scope;
      }
      if (prev.seq >= 0 && c.store_seq < prev.seq) {
        redundant[{a.site, prev.site}] += 1;
      }
      c.load = {seq, a.site};
    });
  }

  for (const auto& [sites, count] : redundant) {
    if (count < opt.redundant_loads) continue;
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kWarning;
    d.kernel = kt.kernel;
    d.site_id = sites.first;
    d.site2_id = sites.second;
    d.metric = static_cast<double>(count);
    d.count = count;
    std::ostringstream os;
    os << "redundant load: " << count << " fetches of words the same warp "
       << "already loaded in the same work item with no intervening store — "
       << "candidates for register caching (§6, Figure 7a)";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

}  // namespace tlp::analysis
