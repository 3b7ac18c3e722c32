// TLP-INIT-006 (read-before-first-write) and TLP-LIFE-007 (dead /
// write-only buffers) — the two buffer shadow-state passes. Both replay the
// whole trace chronologically (trace_walk.hpp), maintaining the set of live
// traced allocations; they differ only in what they record per buffer.
//
// Accesses landing outside every traced allocation are skipped by design:
// buffers created before the trace was attached have unknown provenance,
// and "unknown" must not be reported as "uninitialized" or "dead".
#include <cstdint>
#include <deque>
#include <map>
#include <sstream>
#include <vector>

#include "analysis/passes.hpp"
#include "analysis/trace_walk.hpp"

namespace tlp::analysis {

namespace {

struct Buffer {
  std::uint32_t site = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  /// Shadow init state, one flag per payload byte (InitPass only).
  std::vector<bool> init;
  std::int64_t device_loads = 0;
  std::int64_t device_stores = 0;  ///< plain stores + atomics
  bool host_read = false;          ///< downloaded via a const view
  bool host_written = false;       ///< uploaded / filled via a mutable view
};

/// Live traced allocations of the current reset epoch, keyed by payload
/// start for interval lookup. The bump arena never overlaps live payloads,
/// so "greatest offset <= addr, addr within bytes" is exact.
class LiveSet {
 public:
  /// Retired buffers (freed, reset, or still live at trace end) in
  /// retirement order.
  std::deque<Buffer> retired;

  void alloc(const sim::MemEvent& ev, bool track_init) {
    Buffer b;
    b.site = ev.site;
    b.offset = ev.offset;
    b.bytes = ev.bytes;
    if (track_init) b.init.assign(static_cast<std::size_t>(ev.bytes), false);
    if (ev.bytes == 0) return;  // owns no addresses; nothing to observe
    live_[ev.offset] = std::move(b);
  }

  void free(const sim::MemEvent& ev) {
    auto it = live_.find(ev.offset);
    if (it == live_.end()) return;  // allocated before the trace attached
    hit_ = nullptr;
    retired.push_back(std::move(it->second));
    live_.erase(it);
  }

  void reset() {
    for (auto& [off, b] : live_) retired.push_back(std::move(b));
    live_.clear();
    hit_ = nullptr;
  }

  void finish() { reset(); }

  /// Buffer containing `addr`, or nullptr. Consecutive lanes mostly hit
  /// the buffer found last; live payloads never overlap, so a hit on it is
  /// the answer the interval lookup would give.
  Buffer* find(std::uint64_t addr) {
    if (hit_ != nullptr && addr >= hit_->offset &&
        addr < hit_->offset + hit_->bytes)
      return hit_;
    auto it = live_.upper_bound(addr);
    if (it == live_.begin()) return nullptr;
    --it;
    Buffer& b = it->second;
    if (addr >= b.offset + b.bytes) return nullptr;
    hit_ = &b;
    return hit_;
  }

  /// Applies `fn(Buffer&, first_byte, last_byte)` to every live buffer
  /// overlapping [offset, offset+bytes); byte indices are buffer-relative.
  template <class Fn>
  void for_overlap(std::uint64_t offset, std::uint64_t bytes, Fn&& fn) {
    if (bytes == 0) return;
    const std::uint64_t end = offset + bytes;
    auto it = live_.upper_bound(offset);
    if (it != live_.begin()) --it;
    for (; it != live_.end() && it->second.offset < end; ++it) {
      Buffer& b = it->second;
      if (b.offset + b.bytes <= offset) continue;
      const std::uint64_t lo = offset > b.offset ? offset - b.offset : 0;
      const std::uint64_t hi =
          (end < b.offset + b.bytes ? end - b.offset : b.bytes);
      fn(b, lo, hi);
    }
  }

 private:
  std::map<std::uint64_t, Buffer> live_;
  Buffer* hit_ = nullptr;  ///< last buffer find() returned; cleared when
                           ///< buffers leave live_
};

}  // namespace

void InitPass::run(const sim::AccessTrace& trace, const PassOptions& opt,
                   std::vector<Diagnostic>& out) const {
  (void)opt;
  LiveSet live;

  // Aggregated per (reading site, buffer site): lane-reads of bytes nothing
  // initialized, plus the first kernel it happened in for the message.
  struct Agg {
    std::int64_t lanes = 0;
    std::string first_kernel;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, Agg> uninit;

  walk_trace(
      trace,
      [&](const sim::MemEvent& ev) {
        switch (ev.kind) {
          case sim::MemEvent::Kind::kAlloc:
            live.alloc(ev, /*track_init=*/true);
            break;
          case sim::MemEvent::Kind::kFree:
            live.free(ev);
            break;
          case sim::MemEvent::Kind::kHostWrite:
            // Upload / fill: the whole viewed range becomes initialized.
            live.for_overlap(ev.offset, ev.bytes,
                             [](Buffer& b, std::uint64_t lo, std::uint64_t hi) {
                               for (std::uint64_t i = lo; i < hi; ++i) {
                                 b.init[static_cast<std::size_t>(i)] = true;
                               }
                             });
            break;
          case sim::MemEvent::Kind::kHostRead:
            break;
          case sim::MemEvent::Kind::kReset:
            live.reset();
            break;
        }
      },
      [&](const sim::KernelTrace& kt, int, const sim::TraceAccess& a) {
        for_each_lane(a, [&](std::uint64_t addr, int bytes) {
          Buffer* b = live.find(addr);
          if (b == nullptr) return;  // untracked provenance
          const std::size_t lo = static_cast<std::size_t>(addr - b->offset);
          const std::size_t hi =
              std::min<std::size_t>(lo + static_cast<std::size_t>(bytes),
                                    b->init.size());
          // An atomic is a read-modify-write: it both consumes the previous
          // value (checked) and defines the new one (marked below).
          if (a.kind != sim::AccessKind::kStore) {
            bool bad = false;
            for (std::size_t i = lo; i < hi; ++i) {
              if (!b->init[i]) {
                bad = true;
                break;
              }
            }
            if (bad) {
              Agg& agg = uninit[{a.site, b->site}];
              if (agg.lanes == 0) agg.first_kernel = kt.kernel;
              ++agg.lanes;
            }
          }
          if (a.kind != sim::AccessKind::kLoad) {
            for (std::size_t i = lo; i < hi; ++i) b->init[i] = true;
          }
        });
      });

  for (const auto& [key, agg] : uninit) {
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kError;
    d.kernel = "<run>";
    d.site_id = key.first;
    d.site2_id = key.second;
    d.metric = static_cast<double>(agg.lanes);
    d.count = agg.lanes;
    std::ostringstream os;
    os << "read before first write: " << agg.lanes
       << " lane-reads of bytes no host transfer and no device store "
          "initialized (first in kernel '"
       << agg.first_kernel << "') — the kernel consumes garbage";
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

void LifetimePass::run(const sim::AccessTrace& trace, const PassOptions& opt,
                       std::vector<Diagnostic>& out) const {
  (void)opt;
  LiveSet live;

  walk_trace(
      trace,
      [&](const sim::MemEvent& ev) {
        switch (ev.kind) {
          case sim::MemEvent::Kind::kAlloc:
            live.alloc(ev, /*track_init=*/false);
            break;
          case sim::MemEvent::Kind::kFree:
            live.free(ev);
            break;
          case sim::MemEvent::Kind::kHostWrite:
            live.for_overlap(ev.offset, ev.bytes,
                             [](Buffer& b, std::uint64_t, std::uint64_t) {
                               b.host_written = true;
                             });
            break;
          case sim::MemEvent::Kind::kHostRead:
            // A download is a legitimate consumer: the buffer's stores fed
            // the host, not a kernel — still not write-only.
            live.for_overlap(ev.offset, ev.bytes,
                             [](Buffer& b, std::uint64_t, std::uint64_t) {
                               b.host_read = true;
                             });
            break;
          case sim::MemEvent::Kind::kReset:
            live.reset();
            break;
        }
      },
      [&](const sim::KernelTrace&, int, const sim::TraceAccess& a) {
        for_each_lane(a, [&](std::uint64_t addr, int) {
          Buffer* b = live.find(addr);
          if (b == nullptr) return;
          // Atomics count on both sides: they read and write the word.
          if (a.kind != sim::AccessKind::kStore) ++b->device_loads;
          if (a.kind != sim::AccessKind::kLoad) ++b->device_stores;
        });
      });
  live.finish();

  // Classify every retired buffer; aggregate per (site, class) so one leaky
  // call site reports once however many epochs repeated it.
  struct Agg {
    std::int64_t buffers = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::pair<std::uint32_t, int>, Agg> classes;  // 0=dead, 1=wo
  for (const Buffer& b : live.retired) {
    if (b.bytes == 0) continue;
    int cls;
    if (b.device_loads == 0 && b.device_stores == 0 && !b.host_read) {
      // Never consumed by anything: pure dead weight against the Table 3
      // memory metric (plus wasted H2D bandwidth if it was uploaded).
      cls = 0;
    } else if (b.device_stores > 0 && b.device_loads == 0 && !b.host_read) {
      // Written by kernels, read by nobody — every store was wasted
      // bandwidth.
      cls = 1;
    } else {
      continue;
    }
    Agg& agg = classes[{b.site, cls}];
    agg.buffers += 1;
    agg.bytes += b.bytes;
  }

  for (const auto& [key, agg] : classes) {
    Diagnostic d;
    d.rule = rule();
    d.severity = Severity::kWarning;
    d.kernel = "<run>";
    d.site_id = key.first;
    d.site2 = key.second == 0 ? "dead" : "write-only";
    d.metric = static_cast<double>(agg.bytes);
    d.count = agg.buffers;
    std::ostringstream os;
    if (key.second == 0) {
      os << "dead buffer: " << agg.buffers << " allocation(s) totalling "
         << agg.bytes
         << " B were never touched by a kernel nor downloaded — wasted "
            "device memory";
    } else {
      os << "write-only buffer: " << agg.buffers
         << " allocation(s) totalling " << agg.bytes
         << " B were stored to but never read by a kernel nor downloaded — "
            "wasted store bandwidth";
    }
    d.message = os.str();
    out.push_back(std::move(d));
  }
}

}  // namespace tlp::analysis
