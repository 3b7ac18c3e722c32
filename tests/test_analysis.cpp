// Tests for tlpsan: the access-trace recorder, the happens-before race
// detector, the lint passes, suppression mechanics, and the baseline gate.
//
// The seeded kernels here are deliberately pathological — cross-warp plain
// stores to one address, strided gathers, near-empty masks — so each pass's
// positive and negative cases are exercised under full control.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/pass.hpp"
#include "analysis/passes.hpp"
#include "analysis/shadow.hpp"
#include "graph/generators.hpp"
#include "report/json.hpp"
#include "sim/device.hpp"

namespace tlp::analysis {
namespace {

using sim::Device;
using sim::DevPtr;
using sim::LaunchConfig;
using sim::Mask;
using sim::WarpCtx;
using sim::WarpKernel;
using sim::WVec;

std::vector<Diagnostic> launch_and_analyze(Device& dev, WarpKernel& k,
                                           const LaunchConfig& cfg = {},
                                           const PassOptions& opt = {}) {
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  dev.launch(k, cfg);
  dev.attach_trace(nullptr);
  return analyze_trace(trace, opt);
}

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

const Diagnostic* find_rule(const std::vector<Diagnostic>& diags,
                            const std::string& rule) {
  for (const Diagnostic& d : diags)
    if (d.rule == rule) return &d;
  return nullptr;
}

/// Every item plain-stores to the same word. With the default hardware
/// assignment each item runs on its own warp, so all stores are concurrent:
/// a guaranteed cross-warp plain/plain write race. Even and odd items write
/// from two distinct sites so the detector must name both ends.
class PlainStoreRaceKernel final : public WarpKernel {
 public:
  explicit PlainStoreRaceKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "seeded_race"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    warp.site(item % 2 == 0 ? TLP_SITE("race_store_even")
                            : TLP_SITE("race_store_odd"));
    warp.store_scalar_f32(buf_, 0, static_cast<float>(item));
  }

 private:
  DevPtr<float> buf_;
};

/// Items in [first_storer, items) plain-store `stores` times each to word 0;
/// the other items touch nothing. Each item runs on its own warp (hardware
/// assignment), so the warps that store are exactly the storing items.
class WordZeroStoreKernel final : public WarpKernel {
 public:
  WordZeroStoreKernel(DevPtr<float> buf, std::int64_t items,
                      std::int64_t first_storer, int stores)
      : buf_(buf), items_(items), first_(first_storer), stores_(stores) {}
  [[nodiscard]] std::int64_t num_items() const override { return items_; }
  [[nodiscard]] std::string name() const override { return "word0_store"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    if (item < first_) return;
    warp.site(TLP_SITE("word0_store"));
    for (int s = 0; s < stores_; ++s)
      warp.store_scalar_f32(buf_, 0, static_cast<float>(s));
  }

 private:
  DevPtr<float> buf_;
  std::int64_t items_, first_;
  int stores_;
};

TEST(RacePass, DetectsCrossWarpPlainStoreRace) {
  Device dev;
  PlainStoreRaceKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);

  const Diagnostic* race = find_rule(diags, kRuleRace);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->severity, Severity::kError);
  EXPECT_FALSE(race->suppressed);
  EXPECT_EQ(race->kernel, "seeded_race");

  // Both racing access sites must be reported, in some (site, site2) order.
  const bool both_sites_named = std::any_of(
      diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.rule == kRuleRace &&
               ((d.site == "race_store_even" && d.site2 == "race_store_odd") ||
                (d.site == "race_store_odd" && d.site2 == "race_store_even"));
      });
  EXPECT_TRUE(both_sites_named);

  const DevPtr<float> buf = dev.alloc_zeroed<float>(4);
  // Control for the two inputs below: warps 0 and 1 store word 0 in one
  // launch.
  WordZeroStoreKernel two_warps(buf, 2, 0, 1);
  EXPECT_TRUE(has_rule(launch_and_analyze(dev, two_warps), kRuleRace));

  // The same warp storing twice is program order, not a race.
  WordZeroStoreKernel same_warp(buf, 1, 0, 2);
  EXPECT_FALSE(has_rule(launch_and_analyze(dev, same_warp), kRuleRace));

  // Warp 0 and warp 1 store word 0 in two separate launches: the launch
  // boundary orders them.
  WordZeroStoreKernel first(buf, 1, 0, 1);
  WordZeroStoreKernel second(buf, 2, 1, 1);
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  dev.launch(first);
  dev.launch(second);
  dev.attach_trace(nullptr);
  EXPECT_FALSE(has_rule(analyze_trace(trace), kRuleRace));
}

sim::Device guarded_device() {
  sim::DeviceOptions opts;
  opts.mem_mode = sim::MemoryMode::kGuarded;
  return Device(sim::GpuSpec::v100(), opts);
}

/// All warps store non-atomically to element 0 — a write race.
class RacyPushKernel final : public WarpKernel {
 public:
  explicit RacyPushKernel(DevPtr<float> buf) : buf_(buf) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "racy_push"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    warp.store_scalar_f32(buf_, 0, static_cast<float>(item));
  }

 private:
  DevPtr<float> buf_;
};

/// Same access pattern, but atomic — the legal way to combine across warps.
class AtomicPushKernel final : public WarpKernel {
 public:
  explicit AtomicPushKernel(DevPtr<float> buf) : buf_(buf) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "atomic_push"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    (void)warp.atomic_add_scalar_f32(buf_, 0, static_cast<float>(item));
  }

 private:
  DevPtr<float> buf_;
};

TEST(RacePass, RacyPushUnderGuardedMemoryNamesKernelWarpsAndAddress) {
  // Guarded memory checks bounds and lifetimes only; the race surfaces in
  // the trace.
  Device dev = guarded_device();
  const DevPtr<float> buf = dev.alloc_zeroed<float>(4);
  RacyPushKernel k(buf);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* race = find_rule(diags, kRuleRace);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->severity, Severity::kError);
  EXPECT_EQ(race->kernel, "racy_push");

  const std::size_t at = race->message.find("warps ");
  ASSERT_NE(at, std::string::npos) << race->message;
  long long warp_a = -1, warp_b = -1;
  unsigned long long addr = 0;
  ASSERT_EQ(std::sscanf(race->message.c_str() + at,
                        "warps %lld and %lld touch byte address %llu",
                        &warp_a, &warp_b, &addr),
            3)
      << race->message;
  EXPECT_NE(warp_a, warp_b);
  EXPECT_GE(warp_a, 0);
  EXPECT_GE(warp_b, 0);
  EXPECT_EQ(addr, buf.addr(0));
}

TEST(RacePass, AtomicPushUnderGuardedMemoryIsNotARace) {
  Device dev = guarded_device();
  const DevPtr<float> buf = dev.alloc_zeroed<float>(4);
  AtomicPushKernel k(buf);
  EXPECT_FALSE(has_rule(launch_and_analyze(dev, k), kRuleRace));
  const std::vector<float> out = dev.download(buf);
  EXPECT_FLOAT_EQ(out[0], 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

/// Every item atomically accumulates into the same word: heavy contention but
/// NOT a race — the atomic units serialize it.
class AtomicOnlyKernel final : public WarpKernel {
 public:
  explicit AtomicOnlyKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 100; }
  [[nodiscard]] std::string name() const override { return "seeded_atomic"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("hot_atomic"));
    (void)warp.atomic_add_scalar_f32(buf_, 0, 1.0f);
  }

 private:
  DevPtr<float> buf_;
};

TEST(RacePass, AtomicOnlyContentionIsNotARace) {
  Device dev;
  AtomicOnlyKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  EXPECT_FALSE(has_rule(diags, kRuleRace));
}

TEST(AtomicContentionPass, FlagsHottestAddress) {
  Device dev;
  AtomicOnlyKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* hot = find_rule(diags, kRuleAtomicContention);
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->severity, Severity::kWarning);
  EXPECT_EQ(hot->site, "hot_atomic");
  EXPECT_GE(hot->metric, 100.0);  // all 100 ops land on one address
}

/// Every item reads the same word: shared immutable data, never a race.
class ReadOnlyKernel final : public WarpKernel {
 public:
  explicit ReadOnlyKernel(Device& dev) : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 100; }
  [[nodiscard]] std::string name() const override { return "seeded_reads"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("shared_read"));
    (void)warp.load_scalar_f32(buf_, 0);
  }

 private:
  DevPtr<float> buf_;
};

TEST(RacePass, ReadReadIsNotARace) {
  Device dev;
  ReadOnlyKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  EXPECT_FALSE(has_rule(diags, kRuleRace));
}

/// Mixing an atomic accumulation with a plain store to the same word IS a
/// race (the plain store is not ordered against the atomics).
class AtomicPlainMixKernel final : public WarpKernel {
 public:
  explicit AtomicPlainMixKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "seeded_mix"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    if (item % 2 == 0) {
      warp.site(TLP_SITE("mix_atomic"));
      (void)warp.atomic_add_scalar_f32(buf_, 0, 1.0f);
    } else {
      warp.site(TLP_SITE("mix_plain"));
      warp.store_scalar_f32(buf_, 0, 1.0f);
    }
  }

 private:
  DevPtr<float> buf_;
};

TEST(RacePass, AtomicPlainMixIsARace) {
  Device dev;
  AtomicPlainMixKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* race = find_rule(diags, kRuleRace);
  ASSERT_NE(race, nullptr);
  EXPECT_EQ(race->severity, Severity::kError);
  EXPECT_NE(race->message.find("atomic / plain"), std::string::npos);
}

/// Each item issues one full-warp gather with a 64-float stride: every lane
/// lands in its own 32 B sector (32 sectors where 4 would do).
class StridedGatherKernel final : public WarpKernel {
 public:
  StridedGatherKernel(Device& dev, bool suppress)
      : buf_(dev.alloc_zeroed<float>(32 * 64)), suppress_(suppress) {}
  [[nodiscard]] std::int64_t num_items() const override { return 32; }
  [[nodiscard]] std::string name() const override { return "seeded_strided"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(suppress_
                  ? TLP_SITE_SUPPRESS("strided_expected", "TLP-COAL-002",
                                      "seeded: stride is the point")
                  : TLP_SITE("strided_gather"));
    WVec<std::int64_t> idx{};
    for (int l = 0; l < sim::kWarpSize; ++l)
      idx[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 64;
    (void)warp.load_f32(buf_, idx, sim::lanes_below(sim::kWarpSize));
  }

 private:
  DevPtr<float> buf_;
  bool suppress_;
};

TEST(CoalescingPass, DetectsStridedGather) {
  Device dev;
  StridedGatherKernel k(dev, /*suppress=*/false);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* d = find_rule(diags, kRuleCoalesce);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(d->suppressed);
  EXPECT_EQ(d->site, "strided_gather");
  EXPECT_NEAR(d->metric, 32.0, 0.01);  // sectors per request
  EXPECT_FALSE(d->location.empty());   // resolved to file:line
}

TEST(Suppression, DowngradesExpectedFindingToNote) {
  Device dev;
  StridedGatherKernel k(dev, /*suppress=*/true);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* d = find_rule(diags, kRuleCoalesce);
  ASSERT_NE(d, nullptr);  // still reported...
  EXPECT_TRUE(d->suppressed);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_NE(d->suppress_reason.find("stride is the point"), std::string::npos);
  // ...but never gates, even against an empty baseline.
  EXPECT_TRUE(new_versus_baseline(diags, {}).empty());
}

/// One item re-loads the same word 200 times with no intervening store: the
/// textbook register-caching candidate (§6).
class RefetchKernel final : public WarpKernel {
 public:
  explicit RefetchKernel(Device& dev) : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "seeded_refetch"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("refetch_loop"));
    for (int i = 0; i < 200; ++i) (void)warp.load_scalar_f32(buf_, 0);
  }

 private:
  DevPtr<float> buf_;
};

TEST(RedundantLoadPass, FlagsIntraItemRefetch) {
  Device dev;
  RefetchKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* d = find_rule(diags, kRuleRedundantLoad);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 199);  // every load after the first
}

/// One warp processes 100 items; each loads the same word once. The refetches
/// happen *across* items, where registers do not survive — not redundant.
class CrossItemLoadKernel final : public WarpKernel {
 public:
  explicit CrossItemLoadKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(32)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 100; }
  [[nodiscard]] std::string name() const override { return "seeded_xitem"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("xitem_load"));
    (void)warp.load_scalar_f32(buf_, 0);
  }

 private:
  DevPtr<float> buf_;
};

TEST(RedundantLoadPass, CrossItemRefetchIsNotRedundant) {
  Device dev;
  CrossItemLoadKernel k(dev);
  LaunchConfig cfg;
  cfg.assignment = sim::Assignment::kStaticChunk;
  cfg.grid_blocks = 1;
  cfg.warps_per_block = 1;  // a single warp runs every item
  const auto diags = launch_and_analyze(dev, k, cfg);
  EXPECT_FALSE(has_rule(diags, kRuleRedundantLoad));
}

/// Every request activates only 2 of 32 lanes.
class SparseLaneKernel final : public WarpKernel {
 public:
  explicit SparseLaneKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(64)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 32; }
  [[nodiscard]] std::string name() const override { return "seeded_sparse"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("sparse_load"));
    WVec<std::int64_t> idx{};
    idx[1] = 1;
    (void)warp.load_f32(buf_, idx, Mask{0x3});
  }

 private:
  DevPtr<float> buf_;
};

TEST(DivergencePass, FlagsMostlyIdleWarps) {
  Device dev;
  SparseLaneKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* d = find_rule(diags, kRuleDivergence);
  ASSERT_NE(d, nullptr);
  EXPECT_NEAR(d->metric, 2.0 / 32.0, 1e-9);
}

TEST(Baseline, RoundTripAndNewDetection) {
  Device dev;
  StridedGatherKernel k(dev, /*suppress=*/false);
  auto diags = launch_and_analyze(dev, k);
  for (Diagnostic& d : diags) {
    d.system = "Seeded";
    d.dataset = "unit";
  }
  ASSERT_FALSE(diags.empty());
  // A site label with JSON metacharacters must come back unchanged.
  Diagnostic quoted = diags.front();
  quoted.site = "a\"b\\c";
  diags.push_back(quoted);

  // Serialize, re-extract the keys, and compare: nothing is new.
  const std::string json = to_json(diags);
  const std::vector<std::string> keys = keys_from_json(json);
  ASSERT_EQ(keys.size(), diags.size());
  for (std::size_t i = 0; i < diags.size(); ++i)
    EXPECT_EQ(keys[i], diags[i].key());
  EXPECT_TRUE(new_versus_baseline(diags, keys).empty());

  // Against an empty baseline every unsuppressed finding is new.
  const auto fresh = new_versus_baseline(diags, {});
  EXPECT_FALSE(fresh.empty());

  // Keys are stable under count/metric churn (a rerun with different data
  // volumes must not re-flag the same finding).
  auto churned = diags;
  for (Diagnostic& d : churned) {
    d.count *= 3;
    d.metric += 1.0;
    d.message = "different volumes";
  }
  EXPECT_TRUE(new_versus_baseline(churned, keys).empty());
}

TEST(Trace, BudgetTruncationIsReported) {
  Device dev;
  sim::AccessTrace trace(/*max_bytes=*/sizeof(sim::TraceAccess) * 10);
  dev.attach_trace(&trace);
  ReadOnlyKernel k(dev);
  dev.launch(k);
  dev.attach_trace(nullptr);
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.recorded(), 10);
  EXPECT_GT(trace.dropped(), 0);
}

TEST(Analyzer, LintsTlpgnnCleanOfErrors) {
  Rng rng(42);
  std::vector<LintDataset> datasets;
  datasets.push_back({"mini", graph::power_law(256, 1024, 2.2, rng), 32, 5});

  const LintReport report = lint_systems({"tlpgnn"}, datasets);
  EXPECT_EQ(report.runs, 2);  // GCN + GAT
  EXPECT_GT(report.launches, 0);
  EXPECT_FALSE(report.trace_truncated);
  // TLPGNN's pull aggregation is atomic-free and write-disjoint: the race
  // pass must stay silent, and nothing may reach error severity.
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.rule, kRuleRace) << d.message;
    EXPECT_NE(d.severity, Severity::kError) << d.rule << ": " << d.message;
    EXPECT_EQ(d.system, "TLPGNN");
    EXPECT_EQ(d.dataset, "mini");
  }
}

// ---------------------------------------------------------------------------
// Whole-trace passes (v2). These kernels allocate AFTER the trace attaches so
// the allocation-lifecycle events carry provenance; the per-launch seeded
// kernels above predate the trace on purpose (unknown provenance is skipped).
// ---------------------------------------------------------------------------

/// Reads a buffer that was allocated raw — no upload, no fill, no prior
/// device store. Every load consumes garbage.
class UninitReadKernel final : public WarpKernel {
 public:
  explicit UninitReadKernel(Device& dev)
      : buf_(dev.mem().alloc<float>(64, TLP_SITE("uninit_buf"))) {}
  [[nodiscard]] std::int64_t num_items() const override { return 4; }
  [[nodiscard]] std::string name() const override { return "seeded_uninit"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    warp.site(TLP_SITE("uninit_read"));
    (void)warp.load_scalar_f32(buf_, item);
  }

 private:
  DevPtr<float> buf_;
};

TEST(InitPass, FlagsReadBeforeFirstWrite) {
  Device dev;
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  UninitReadKernel k(dev);
  dev.launch(k);
  dev.attach_trace(nullptr);

  const auto diags = analyze_trace(trace);
  const Diagnostic* d = find_rule(diags, kRuleInit);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->kernel, "<run>");
  EXPECT_EQ(d->site, "uninit_read");   // the reading site...
  EXPECT_EQ(d->site2, "uninit_buf");   // ...and the buffer it read
  EXPECT_EQ(d->count, 4);              // one garbage lane-read per item
}

TEST(InitPass, HostFillInitializesTheBuffer) {
  // Same read pattern, but alloc_zeroed's host fill defines every byte
  // before the kernel runs: no finding.
  Device dev;
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  ReadOnlyKernel k(dev);  // alloc_zeroed + loads
  dev.launch(k);
  dev.attach_trace(nullptr);
  EXPECT_FALSE(has_rule(analyze_trace(trace), kRuleInit));
}

/// Stores into one buffer that is never loaded, downloaded, or freed — a
/// leaked write-only output. A second uploaded buffer is never touched at
/// all — dead weight.
class LeakyWriterKernel final : public WarpKernel {
 public:
  explicit LeakyWriterKernel(Device& dev)
      : out_(dev.alloc_zeroed<float>(256, TLP_SITE("leaked_out"))) {
    const std::vector<float> weights(128, 1.0f);
    (void)dev.upload<float>(weights, TLP_SITE("dead_upload"));
  }
  [[nodiscard]] std::int64_t num_items() const override { return 8; }
  [[nodiscard]] std::string name() const override { return "seeded_leak"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    warp.site(TLP_SITE("leak_store"));
    warp.store_scalar_f32(out_, item, 1.0f);
  }

 private:
  DevPtr<float> out_;
};

TEST(LifetimePass, FlagsLeakedWriteOnlyAndDeadBuffers) {
  Device dev;
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  LeakyWriterKernel k(dev);
  dev.launch(k);
  dev.attach_trace(nullptr);

  const auto diags = analyze_trace(trace);
  const Diagnostic* wo = nullptr;
  const Diagnostic* dead = nullptr;
  for (const Diagnostic& d : diags) {
    if (d.rule != kRuleLifetime) continue;
    if (d.site2 == "write-only") wo = &d;
    if (d.site2 == "dead") dead = &d;
  }
  ASSERT_NE(wo, nullptr);
  EXPECT_EQ(wo->severity, Severity::kWarning);
  EXPECT_EQ(wo->site, "leaked_out");
  EXPECT_EQ(wo->metric, 256 * 4.0);  // bytes of wasted stores
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->site, "dead_upload");
  EXPECT_EQ(dead->metric, 128 * 4.0);
}

TEST(LifetimePass, DownloadedOutputIsNotWriteOnly) {
  Device dev;
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  DevPtr<float> out = dev.alloc_zeroed<float>(256, TLP_SITE("consumed_out"));
  LeakyWriterKernel k(dev);
  dev.launch(k);
  (void)dev.download(out);  // a const view is a legitimate consumer...
  dev.attach_trace(nullptr);
  // ...so 'consumed_out' must not be classified; only the kernel's own
  // leaked buffers may appear.
  for (const Diagnostic& d : analyze_trace(trace)) {
    if (d.rule == kRuleLifetime) {
      EXPECT_NE(d.site, "consumed_out");
    }
  }
}

/// Warp-per-item degree skew: item 0 is the hub (1024 edge loads), everyone
/// else is a leaf (1 load). Under the hardware assignment each item gets its
/// own warp, so the hub's warp issues ~31x the mean.
class SkewedWalkKernel final : public WarpKernel {
 public:
  explicit SkewedWalkKernel(Device& dev)
      : buf_(dev.alloc_zeroed<float>(2048)) {}
  [[nodiscard]] std::int64_t num_items() const override { return 32; }
  [[nodiscard]] std::string name() const override { return "seeded_skew"; }
  void run_item(WarpCtx& warp, std::int64_t item) override {
    warp.site(TLP_SITE("skew_walk"));
    const std::int64_t edges = item == 0 ? 1024 : 1;
    for (std::int64_t e = 0; e < edges; ++e)
      (void)warp.load_scalar_f32(buf_, (item + e) % 2048);
  }

 private:
  DevPtr<float> buf_;
};

TEST(BalancePass, FlagsHubWarpRequestSkew) {
  Device dev;
  SkewedWalkKernel k(dev);
  const auto diags = launch_and_analyze(dev, k);
  const Diagnostic* d = find_rule(diags, kRuleBalance);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->kernel, "seeded_skew");
  EXPECT_EQ(d->site, "skew_walk");     // the busiest warp's dominant site
  EXPECT_GT(d->metric, 8.0);           // ratio over the per-warp mean
  EXPECT_EQ(d->count, 1024);           // the hub warp's request count
}

TEST(BalancePass, UniformWorkIsSilent) {
  // Same shape, no hub: every warp issues the same request count.
  class UniformWalkKernel final : public WarpKernel {
   public:
    explicit UniformWalkKernel(Device& dev)
        : buf_(dev.alloc_zeroed<float>(2048)) {}
    [[nodiscard]] std::int64_t num_items() const override { return 32; }
    [[nodiscard]] std::string name() const override { return "seeded_flat"; }
    void run_item(WarpCtx& warp, std::int64_t item) override {
      warp.site(TLP_SITE("flat_walk"));
      for (std::int64_t e = 0; e < 32; ++e)
        (void)warp.load_scalar_f32(buf_, (item * 32 + e) % 2048);
    }

   private:
    DevPtr<float> buf_;
  };
  Device dev;
  UniformWalkKernel k(dev);
  EXPECT_FALSE(has_rule(launch_and_analyze(dev, k), kRuleBalance));
}

/// Streams one 128 B line per 32-float stride over the whole buffer, twice:
/// every second-pass touch has an LRU stack distance equal to the full
/// working set.
class StreamingSweepKernel final : public WarpKernel {
 public:
  StreamingSweepKernel(Device& dev, std::int64_t floats)
      : buf_(dev.alloc_zeroed<float>(floats)), n_(floats) {}
  [[nodiscard]] std::int64_t num_items() const override { return 1; }
  [[nodiscard]] std::string name() const override { return "seeded_stream"; }
  void run_item(WarpCtx& warp, std::int64_t /*item*/) override {
    warp.site(TLP_SITE("stream_gather"));
    for (int pass = 0; pass < 2; ++pass)
      for (std::int64_t i = 0; i < n_; i += 32)
        (void)warp.load_scalar_f32(buf_, i);
  }

 private:
  DevPtr<float> buf_;
  std::int64_t n_;
};

TEST(ReusePass, FlagsWorkingSetLargerThanL2) {
  Device dev;
  sim::AccessTrace trace;
  dev.attach_trace(&trace);
  StreamingSweepKernel k(dev, /*floats=*/64 * 1024);  // 256 KB, 2048 lines
  dev.launch(k);
  dev.attach_trace(nullptr);

  // Against a 16 KB L2 (128 lines) every one of the 2048 second-pass reuses
  // is beyond capacity.
  PassOptions small;
  small.gpu.l2_bytes = 16 * 1024;
  const auto diags = analyze_trace(trace, small);
  const Diagnostic* d = find_rule(diags, kRuleReuse);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->site, "stream_gather");
  EXPECT_EQ(d->count, 2048);

  // The identical trace against the full V100 L2 (6 MB) fits: silent.
  EXPECT_FALSE(has_rule(analyze_trace(trace), kRuleReuse));
}

TEST(Analyzer, TruncatedTraceSkipsWholeTracePassesAndEmitsMetaNote) {
  Device dev;
  sim::AccessTrace trace(/*max_bytes=*/sizeof(sim::TraceAccess) * 4);
  dev.attach_trace(&trace);
  LeakyWriterKernel k(dev);  // would flag LIFE-007 on a complete trace
  dev.launch(k);
  dev.attach_trace(nullptr);
  ASSERT_TRUE(trace.truncated());

  const auto diags = analyze_trace(trace);
  const Diagnostic* meta = find_rule(diags, kRuleMeta);
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->severity, Severity::kNote);
  EXPECT_EQ(meta->kernel, "<run>");
  // Lifetime claims over a trace with holes would be fabrications.
  EXPECT_FALSE(has_rule(diags, kRuleInit));
  EXPECT_FALSE(has_rule(diags, kRuleLifetime));
  EXPECT_FALSE(has_rule(diags, kRuleReuse));
}

TEST(Analyzer, LintReportIsByteDeterministic) {
  const auto run_once = [] {
    Rng rng(7);
    std::vector<LintDataset> datasets;
    datasets.push_back({"mini", graph::power_law(256, 1024, 2.2, rng), 32, 5});
    const LintReport r = lint_systems({"tlpgnn", "dgl"}, datasets);
    return to_json(r.diagnostics, r.trace_truncated);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Sarif, EmitsSarif210Shape) {
  Device dev;
  StridedGatherKernel bad(dev, /*suppress=*/false);
  auto diags = launch_and_analyze(dev, bad);
  Device dev2;
  StridedGatherKernel expected(dev2, /*suppress=*/true);
  auto sup = launch_and_analyze(dev2, expected);
  diags.insert(diags.end(), sup.begin(), sup.end());
  for (Diagnostic& d : diags) {
    d.system = "Seeded";
    d.dataset = "unit";
  }
  ASSERT_GE(diags.size(), 2u);

  const report::Json doc = report::Json::parse(to_sarif(diags));
  // Top-level 2.1.0 envelope.
  EXPECT_EQ(doc.at("$schema").as_string(),
            "https://json.schemastore.org/sarif-2.1.0.json");
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  ASSERT_EQ(doc.at("runs").items().size(), 1u);
  const report::Json& run = doc.at("runs").items()[0];
  // tool.driver with one rules entry per distinct rule id.
  const report::Json& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "tlplint");
  std::set<std::string> rule_ids;
  for (const Diagnostic& d : diags) rule_ids.insert(d.rule);
  std::set<std::string> table_ids;
  for (const report::Json& r : driver.at("rules").items()) {
    table_ids.insert(r.at("id").as_string());
    EXPECT_FALSE(r.at("shortDescription").at("text").as_string().empty());
  }
  EXPECT_EQ(table_ids, rule_ids);
  EXPECT_TRUE(rule_ids.count(kRuleCoalesce) != 0);
  // One result per diagnostic, in order: ruleId/level/message, the stable
  // fingerprint, and a physical location anchored to the source root.
  const std::vector<report::Json>& results = run.at("results").items();
  ASSERT_EQ(results.size(), diags.size());
  int suppressed = 0;
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const report::Json& res = results[i];
    EXPECT_EQ(res.at("ruleId").as_string(), diags[i].rule);
    EXPECT_EQ(res.at("level").as_string(), severity_name(diags[i].severity));
    EXPECT_EQ(res.at("message").at("text").as_string(), diags[i].message);
    EXPECT_EQ(res.at("partialFingerprints").at("tlpKey/v1").as_string(),
              diags[i].key());
    if (!diags[i].location.empty()) {
      const report::Json& loc =
          res.at("locations").items().at(0).at("physicalLocation");
      EXPECT_EQ(loc.at("artifactLocation").at("uriBaseId").as_string(),
                "SRCROOT");
      EXPECT_GT(loc.at("region").at("startLine").as_int(), 0);
    }
    // The suppressed finding carries an inSource suppression with its
    // justification.
    const report::Json* suppressions = res.find("suppressions");
    EXPECT_EQ(suppressions != nullptr, diags[i].suppressed);
    if (suppressions != nullptr) {
      ++suppressed;
      const report::Json& s0 = suppressions->items().at(0);
      EXPECT_EQ(s0.at("kind").as_string(), "inSource");
      EXPECT_NE(s0.at("justification").as_string().find("stride is the point"),
                std::string::npos);
    }
  }
  EXPECT_GE(suppressed, 1);
}

TEST(Analyzer, EdgeBaselineUncoalescedIsSuppressedNotDropped) {
  Rng rng(42);
  std::vector<LintDataset> datasets;
  datasets.push_back({"mini", graph::power_law(256, 4096, 2.2, rng), 64, 5});

  const LintReport report = lint_systems({"edge"}, datasets);
  // The paper-documented uncoalesced feature gather must be *visible* in the
  // report (the finding is real) yet suppressed (it is expected).
  const bool found = std::any_of(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) {
        return d.rule == kRuleCoalesce && d.site == "edge_feat_gather" &&
               d.suppressed;
      });
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Exactness of the paged-shadow RACE-001 / RED-005 passes on hand-built
// traces, including interleavings and addresses the scheduler never emits.

sim::TraceAccess make_access(std::int64_t warp, std::int64_t item,
                             sim::AccessKind kind, std::uint32_t site,
                             std::uint8_t bytes,
                             const std::vector<std::uint64_t>& lane_addrs) {
  sim::TraceAccess a;
  a.warp = warp;
  a.item = item;
  a.kind = kind;
  a.site = site;
  a.bytes = bytes;
  for (std::size_t l = 0; l < lane_addrs.size(); ++l) {
    a.addr[l] = lane_addrs[l];
    a.mask |= 1u << l;
  }
  return a;
}

sim::TraceAccess load(std::int64_t warp, std::int64_t item,
                      std::uint32_t site, std::uint64_t addr,
                      std::uint8_t bytes = 4) {
  return make_access(warp, item, sim::AccessKind::kLoad, site, bytes, {addr});
}

sim::TraceAccess store(std::int64_t warp, std::int64_t item,
                       std::uint32_t site, std::uint64_t addr,
                       std::uint8_t bytes = 4) {
  return make_access(warp, item, sim::AccessKind::kStore, site, bytes, {addr});
}

std::vector<Diagnostic> run_pass(const Pass& pass, const sim::KernelTrace& kt,
                                 const PassOptions& opt = {}) {
  std::vector<Diagnostic> out;
  pass.run(kt, opt, out);
  return out;
}

PassOptions every_redundant_load() {
  PassOptions opt;
  opt.redundant_loads = 1;
  return opt;
}

// Reference oracle: the node-per-word map-based RACE-001 and RED-005
// algorithms the paged shadow replaced, kept verbatim in behaviour.
namespace oracle {

enum class RaceCat : std::uint8_t {
  kPlainPlain,
  kAtomicPlain,
  kWriteRead,
  kAtomicRead
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

struct WordShadow {
  std::int64_t w_warp = -1;
  std::uint32_t w_site = 0;
  bool w_atomic = false;
  std::array<std::int64_t, 2> r_warp{-1, -1};
  std::array<std::uint32_t, 2> r_site{0, 0};
};

struct RaceAgg {
  std::int64_t count = 0;
  std::uint64_t example_addr = 0;
  std::int64_t warp_a = -1, warp_b = -1;
};

std::vector<Diagnostic> race(const sim::KernelTrace& kt) {
  std::unordered_map<std::uint64_t, WordShadow> shadow;
  std::map<std::tuple<std::uint32_t, std::uint32_t, RaceCat>, RaceAgg> found;
  auto report = [&](RaceCat cat, std::uint32_t prev_site,
                    std::int64_t prev_warp, std::uint32_t cur_site,
                    std::int64_t cur_warp, std::uint64_t word) {
    RaceAgg& agg = found[{cur_site, prev_site, cat}];
    if (agg.count++ == 0) {
      agg.example_addr = word << 2;
      agg.warp_a = prev_warp;
      agg.warp_b = cur_warp;
    }
  };
  for (const sim::TraceAccess& a : kt.accesses) {
    const int words = a.bytes >= 4 ? a.bytes / 4 : 1;
    for (int l = 0; l < sim::kTraceWarpSize; ++l) {
      if (((a.mask >> l) & 1u) == 0) continue;
      const std::uint64_t word0 = a.addr[static_cast<std::size_t>(l)] >> 2;
      for (int wd = 0; wd < words; ++wd) {
        const std::uint64_t word = word0 + static_cast<std::uint64_t>(wd);
        WordShadow& ws = shadow[word];
        if (a.kind == sim::AccessKind::kLoad) {
          if (ws.w_warp != -1 && ws.w_warp != a.warp) {
            report(ws.w_atomic ? RaceCat::kAtomicRead : RaceCat::kWriteRead,
                   ws.w_site, ws.w_warp, a.site, a.warp, word);
          }
          if (ws.r_warp[0] == a.warp || ws.r_warp[1] == a.warp) continue;
          if (ws.r_warp[0] == -1) {
            ws.r_warp[0] = a.warp;
            ws.r_site[0] = a.site;
          } else if (ws.r_warp[1] == -1) {
            ws.r_warp[1] = a.warp;
            ws.r_site[1] = a.site;
          }
          continue;
        }
        const bool atomic = a.kind == sim::AccessKind::kAtomic;
        if (ws.w_warp != -1 && ws.w_warp != a.warp &&
            !(ws.w_atomic && atomic)) {
          report(ws.w_atomic || atomic ? RaceCat::kAtomicPlain
                                       : RaceCat::kPlainPlain,
                 ws.w_site, ws.w_warp, a.site, a.warp, word);
        }
        for (std::size_t i = 0; i < 2; ++i) {
          if (ws.r_warp[i] != -1 && ws.r_warp[i] != a.warp) {
            report(atomic ? RaceCat::kAtomicRead : RaceCat::kWriteRead,
                   ws.r_site[i], ws.r_warp[i], a.site, a.warp, word);
          }
        }
        ws.w_warp = a.warp;
        ws.w_site = a.site;
        ws.w_atomic = atomic;
        ws.r_warp = {-1, -1};
        ws.r_site = {0, 0};
      }
    }
  }
  std::vector<Diagnostic> out;
  for (const auto& [key, agg] : found) {
    const auto [cur_site, prev_site, cat] = key;
    Diagnostic d;
    d.rule = kRuleRace;
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
  return out;
}

struct PairHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p)
      const {
    return std::hash<std::uint64_t>()(p.first * 0x9e3779b97f4a7c15ull ^
                                      p.second);
  }
};

struct LastLoad {
  std::int64_t seq = -1;
  std::uint32_t site = 0;
};

std::vector<Diagnostic> redundant(const sim::KernelTrace& kt,
                                  const PassOptions& opt) {
  std::unordered_map<std::uint64_t, std::int64_t> store_seq;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, LastLoad,
                     PairHash>
      last_load;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> found;
  std::int64_t seq = 0;
  for (const sim::TraceAccess& a : kt.accesses) {
    const std::uint64_t scope = (static_cast<std::uint64_t>(a.warp) << 32) ^
                                static_cast<std::uint64_t>(a.item + 1);
    const int words = a.bytes >= 4 ? a.bytes / 4 : 1;
    for (int l = 0; l < sim::kTraceWarpSize; ++l) {
      if (((a.mask >> l) & 1u) == 0) continue;
      const std::uint64_t word0 = a.addr[static_cast<std::size_t>(l)] >> 2;
      for (int wd = 0; wd < words; ++wd) {
        const std::uint64_t word = word0 + static_cast<std::uint64_t>(wd);
        ++seq;
        if (a.kind != sim::AccessKind::kLoad) {
          store_seq[word] = seq;
          continue;
        }
        LastLoad& ll = last_load[{scope, word}];
        if (ll.seq >= 0) {
          const auto it = store_seq.find(word);
          if (it == store_seq.end() || it->second < ll.seq)
            found[{a.site, ll.site}] += 1;
        }
        ll.seq = seq;
        ll.site = a.site;
      }
    }
  }
  std::vector<Diagnostic> out;
  for (const auto& [sites, count] : found) {
    if (count < opt.redundant_loads) continue;
    Diagnostic d;
    d.rule = kRuleRedundantLoad;
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
  return out;
}

}  // namespace oracle

void expect_same_diagnostics(const std::vector<Diagnostic>& got,
                             const std::vector<Diagnostic>& want,
                             const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(what + ", diagnostic " + std::to_string(i));
    EXPECT_EQ(got[i].rule, want[i].rule);
    EXPECT_EQ(got[i].severity, want[i].severity);
    EXPECT_EQ(got[i].kernel, want[i].kernel);
    EXPECT_EQ(got[i].site_id, want[i].site_id);
    EXPECT_EQ(got[i].site2_id, want[i].site2_id);
    EXPECT_EQ(got[i].metric, want[i].metric);
    EXPECT_EQ(got[i].count, want[i].count);
    EXPECT_EQ(got[i].message, want[i].message);
  }
}

TEST(RedundantLoadPass, InterleavedScopesKeepTheirLastLoad) {
  // Warp 1 item 9 takes over W's shadow cell between warp 0 item 5's two
  // loads of it; the second load is still a refetch of a value warp 0 item 5
  // holds.
  constexpr std::uint64_t kW = 4096;
  sim::KernelTrace kt;
  kt.kernel = "interleaved";
  kt.accesses = {load(0, 5, 1, kW), load(1, 9, 2, kW), load(0, 5, 3, kW)};
  const auto diags = run_pass(RedundantLoadPass(), kt, every_redundant_load());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].count, 1);
  EXPECT_EQ(diags[0].site_id, 3u);
  EXPECT_EQ(diags[0].site2_id, 1u);

  // A store by anyone in between makes the refetch necessary.
  kt.accesses.insert(kt.accesses.begin() + 2, store(2, 0, 4, kW));
  EXPECT_TRUE(run_pass(RedundantLoadPass(), kt, every_redundant_load())
                  .empty());
}

TEST(PagedShadow, AllocatesOnlyTouchedPages) {
  PagedShadow<int> shadow;
  shadow.at(0) = 1;
  shadow.at(std::uint64_t{1} << 38) = 2;  // byte address 2^40
  shadow.at(PagedShadow<int>::kPageWords - 1) = 3;
  EXPECT_EQ(shadow.pages(), 2u);
  EXPECT_EQ(shadow.at(0), 1);
  EXPECT_EQ(shadow.at(std::uint64_t{1} << 38), 2);
  EXPECT_EQ(shadow.at(PagedShadow<int>::kPageWords - 1), 3);
  EXPECT_EQ(shadow.at(PagedShadow<int>::kPageWords), 0);
  EXPECT_EQ(shadow.pages(), 3u);
}

TEST(RacePass, FarApartAddressesInOneLaunch) {
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  sim::KernelTrace kt;
  kt.kernel = "far";
  kt.accesses = {store(0, 0, 1, 0), store(0, 0, 2, kFar), load(1, 1, 3, 0),
                 store(1, 1, 4, kFar)};
  const auto diags = run_pass(RacePass(), kt);
  expect_same_diagnostics(diags, oracle::race(kt), "far race");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].site_id, 3u);  // write/read at byte 0
  EXPECT_NE(diags[0].message.find("byte address 0 "), std::string::npos);
  EXPECT_EQ(diags[1].site_id, 4u);  // write/write at byte 2^40
  EXPECT_NE(diags[1].message.find("byte address 1099511627776 "),
            std::string::npos);
}

TEST(RedundantLoadPass, FarApartAddressesInOneLaunch) {
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  sim::KernelTrace kt;
  kt.kernel = "far";
  kt.accesses = {load(0, 0, 1, 0), load(0, 0, 1, kFar), load(0, 0, 1, 0),
                 load(0, 0, 1, kFar)};
  const auto diags = run_pass(RedundantLoadPass(), kt, every_redundant_load());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].count, 2);
}

TEST(RacePass, WideLanesCoverEveryWord) {
  // A 16-byte store covers words 0..3; an 8-byte load at byte 8 reads words
  // 2 and 3 from another warp.
  sim::KernelTrace kt;
  kt.kernel = "wide";
  kt.accesses = {store(0, 0, 1, 0, 16), load(1, 1, 2, 8, 8)};
  const auto diags = run_pass(RacePass(), kt);
  expect_same_diagnostics(diags, oracle::race(kt), "wide race");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].count, 2);
  EXPECT_NE(diags[0].message.find("byte address 8 "), std::string::npos);
}

TEST(RedundantLoadPass, WideLanesCoverEveryWord) {
  // 16 bytes at 0 loads words 0..3; 8 bytes at 8 refetches words 2 and 3.
  // After another warp stores word 3, only word 2 is refetched redundantly.
  sim::KernelTrace kt;
  kt.kernel = "wide";
  kt.accesses = {load(0, 0, 1, 0, 16), load(0, 0, 2, 8, 8),
                 store(1, 1, 3, 12), load(0, 0, 2, 8, 8)};
  const auto diags = run_pass(RedundantLoadPass(), kt, every_redundant_load());
  expect_same_diagnostics(diags, oracle::redundant(kt, every_redundant_load()),
                          "wide redundant");
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].site2_id, 1u);  // (2, 1): words 2, 3 of the first load
  EXPECT_EQ(diags[0].count, 2);
  EXPECT_EQ(diags[1].site2_id, 2u);  // (2, 2): word 2 only
  EXPECT_EQ(diags[1].count, 1);
}

/// A random launch: few warps and items so scopes interleave and collide on
/// words, all access kinds and widths, and addresses from a small pool that
/// straddles page boundaries and sits near 2^40.
sim::KernelTrace random_trace(Rng& rng) {
  static constexpr std::array<std::uint8_t, 5> kWidths{1, 2, 4, 8, 16};
  std::vector<std::uint64_t> pool;
  const int pool_size = static_cast<int>(rng.next_range(1, 24));
  for (int i = 0; i < pool_size; ++i) {
    const std::uint64_t base =
        rng.next_bool(0.2) ? (std::uint64_t{1} << 40) : 0;
    const std::uint64_t page_edge = PagedShadow<int>::kPageWords * 4 *
                                    rng.next_below(3);
    pool.push_back(base + page_edge + 4 * rng.next_below(8) -
                   (page_edge > 0 ? 16 : 0));
  }
  sim::KernelTrace kt;
  kt.kernel = "random";
  const int n = static_cast<int>(rng.next_range(1, 80));
  const int warps = static_cast<int>(rng.next_range(1, 5));
  std::int64_t warp = 0, item = 0;
  for (int i = 0; i < n; ++i) {
    if (i == 0 || rng.next_bool(0.5)) {
      warp = rng.next_range(0, warps);
      item = rng.next_range(-1, 3);
    }
    sim::TraceAccess a;
    a.warp = warp;
    a.item = item;
    const double k = rng.next_double();
    a.kind = k < 0.6 ? sim::AccessKind::kLoad
             : k < 0.85 ? sim::AccessKind::kStore
                        : sim::AccessKind::kAtomic;
    a.site = static_cast<std::uint32_t>(rng.next_range(1, 4));
    a.bytes = kWidths[rng.next_below(kWidths.size())];
    const int lanes = static_cast<int>(rng.next_range(1, 5));
    for (int l = 0; l < lanes; ++l) {
      const std::size_t lane = rng.next_below(sim::kTraceWarpSize);
      a.mask |= 1u << lane;
      a.addr[lane] = pool[rng.next_below(pool.size())] + rng.next_below(4);
    }
    kt.accesses.push_back(a);
  }
  return kt;
}

TEST(PagedShadowPasses, MatchMapBasedReferenceOnRandomTraces) {
  Rng rng(2022);
  const PassOptions opt = every_redundant_load();
  for (int t = 0; t < 300; ++t) {
    const sim::KernelTrace kt = random_trace(rng);
    const std::string what = "trace " + std::to_string(t);
    expect_same_diagnostics(run_pass(RacePass(), kt), oracle::race(kt),
                            what + " race");
    expect_same_diagnostics(run_pass(RedundantLoadPass(), kt, opt),
                            oracle::redundant(kt, opt), what + " redundant");
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

}  // namespace
}  // namespace tlp::analysis
