// Tests for tlpsan: the access-trace recorder, the happens-before race
// detector, the lint passes, suppression mechanics, and the baseline gate.
//
// The seeded kernels here are deliberately pathological — cross-warp plain
// stores to one address, strided gathers, near-empty masks — so each pass's
// positive and negative cases are exercised under full control.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/pass.hpp"
#include "graph/generators.hpp"
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

  // Serialize, re-extract the keys, and compare: nothing is new.
  const std::string json = to_json(diags);
  const std::vector<std::string> keys = keys_from_json(json);
  EXPECT_EQ(keys.size(), diags.size());
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

  const std::string sarif = to_sarif(diags);
  const auto has = [&](const char* needle) {
    return sarif.find(needle) != std::string::npos;
  };
  // Top-level 2.1.0 envelope.
  EXPECT_TRUE(has("\"$schema\": \"https://json.schemastore.org/"
                  "sarif-2.1.0.json\""));
  EXPECT_TRUE(has("\"version\": \"2.1.0\""));
  EXPECT_TRUE(has("\"runs\""));
  // tool.driver with a populated rules table.
  EXPECT_TRUE(has("\"driver\""));
  EXPECT_TRUE(has("\"name\": \"tlplint\""));
  EXPECT_TRUE(has("\"id\": \"TLP-COAL-002\""));
  // Results: ruleId/level/message plus a physical location anchored to the
  // source root.
  EXPECT_TRUE(has("\"ruleId\": \"TLP-COAL-002\""));
  EXPECT_TRUE(has("\"level\": \"warning\""));
  EXPECT_TRUE(has("\"uriBaseId\": \"SRCROOT\""));
  EXPECT_TRUE(has("\"startLine\""));
  // The suppressed finding carries an inSource suppression with its
  // justification; every result carries the stable fingerprint.
  EXPECT_TRUE(has("\"suppressions\""));
  EXPECT_TRUE(has("\"kind\": \"inSource\""));
  EXPECT_TRUE(has("stride is the point"));
  EXPECT_TRUE(has("\"partialFingerprints\""));
  EXPECT_TRUE(has("\"tlpKey/v1\""));
  // Structural sanity: braces and brackets balance.
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
            std::count(sarif.begin(), sarif.end(), '}'));
  EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
            std::count(sarif.begin(), sarif.end(), ']'));
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

}  // namespace
}  // namespace tlp::analysis
