// Tests for the warp-level memory model: coalescing (sector counting),
// cache-aware traffic accounting, atomic conflict serialization, and the
// warp collectives.
#include <gtest/gtest.h>

#include <string>

#include "sim/warp.hpp"

namespace tlp::sim {
namespace {

struct WarpFixture : ::testing::Test {
  WarpFixture() : sys(GpuSpec::v100()) {
    sys.rec = &rec;
    data = sys.mem.alloc<float>(1 << 20);
    auto v = sys.mem.view(data);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>(i);
  }

  WVec<std::int64_t> iota(std::int64_t base, std::int64_t stride = 1) {
    WVec<std::int64_t> idx{};
    for (int l = 0; l < kWarpSize; ++l)
      idx[static_cast<std::size_t>(l)] = base + l * stride;
    return idx;
  }

  MemorySystem sys;
  KernelRecord rec;
  DevPtr<float> data;
};

TEST_F(WarpFixture, CoalescedLoadIsFourSectors) {
  WarpCtx w(sys, 0);
  const auto out = w.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.requests, 1);
  EXPECT_EQ(rec.sectors, 4);  // 32 floats = 128 B = 4 x 32 B sectors
  EXPECT_FLOAT_EQ(out[5], 5.0f);
}

TEST_F(WarpFixture, ScatteredLoadIsThirtyTwoSectors) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0, 128), kFullMask);  // 512 B stride
  EXPECT_EQ(rec.requests, 1);
  EXPECT_EQ(rec.sectors, 32);
}

TEST_F(WarpFixture, ScalarLoadIsOneSector) {
  WarpCtx w(sys, 0);
  EXPECT_FLOAT_EQ(w.load_scalar_f32(data, 77), 77.0f);
  EXPECT_EQ(rec.sectors, 1);
}

TEST_F(WarpFixture, MaskLimitsSectors) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), lanes_below(8));  // 8 floats = 1 sector
  EXPECT_EQ(rec.sectors, 1);
}

TEST_F(WarpFixture, EmptyMaskIsFree) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), 0);
  EXPECT_EQ(rec.requests, 0);
  EXPECT_DOUBLE_EQ(w.total_cycles(), 0.0);
}

TEST_F(WarpFixture, RepeatLoadHitsL1AndSkipsTraffic) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), kFullMask);
  const auto cold_bytes = rec.bytes_load;
  EXPECT_EQ(cold_bytes, 4 * 32);
  (void)w.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.bytes_load, cold_bytes);  // L1 hit: no L2 traffic
  EXPECT_EQ(rec.l1_hits, 1);
}

TEST_F(WarpFixture, DifferentSmHasOwnL1) {
  WarpCtx w0(sys, 0);
  (void)w0.load_f32(data, iota(0), kFullMask);
  WarpCtx w1(sys, 1);
  (void)w1.load_f32(data, iota(0), kFullMask);
  EXPECT_EQ(rec.l1_hits, 0);   // different SM's L1 is cold
  EXPECT_EQ(rec.l2_hits, 1);   // but the shared L2 hits
}

TEST_F(WarpFixture, L2HitIsCheaperThanDram) {
  WarpCtx w0(sys, 0);
  (void)w0.load_f32(data, iota(0), kFullMask);
  const double dram_cost = w0.mem_cycles();
  WarpCtx w1(sys, 1);
  (void)w1.load_f32(data, iota(0), kFullMask);
  EXPECT_LT(w1.mem_cycles(), dram_cost);
}

TEST_F(WarpFixture, StoreWritesDataAndCountsTraffic) {
  WarpCtx w(sys, 0);
  WVec<float> vals{};
  for (int l = 0; l < kWarpSize; ++l) vals[static_cast<std::size_t>(l)] = 2.5f;
  w.store_f32(data, iota(64), vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[64], 2.5f);
  EXPECT_EQ(rec.bytes_store, 4 * 32);
}

TEST_F(WarpFixture, AtomicAddAppliesAllLanes) {
  WarpCtx w(sys, 0);
  WVec<std::int64_t> idx{};  // all lanes hit index 0
  WVec<float> vals{};
  for (int l = 0; l < kWarpSize; ++l) vals[static_cast<std::size_t>(l)] = 1.0f;
  sys.mem.view(data)[0] = 0.0f;
  w.atomic_add_f32(data, idx, vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[0], 32.0f);
  EXPECT_EQ(rec.atomic_ops, 32);
  EXPECT_GT(rec.bytes_atomic, 0);
}

TEST_F(WarpFixture, AtomicConflictsSerialize) {
  WarpCtx conflict(sys, 0);
  WVec<std::int64_t> same{};  // 32-way conflict
  WVec<float> vals{};
  conflict.atomic_add_f32(data, same, vals, kFullMask);
  const double conflict_cost = conflict.mem_cycles();

  WarpCtx spread(sys, 0);
  spread.atomic_add_f32(data, iota(1024), vals, kFullMask);
  EXPECT_GT(conflict_cost, spread.mem_cycles() + 30 * 31);
}

// 32 lanes over 4 addresses: 8 lanes per address, so the atomic units
// replay the worst address 7 times, for add and max alike.
TEST_F(WarpFixture, AtomicConflictChargesWorstAddressReplays) {
  WVec<std::int64_t> idx{};
  for (int l = 0; l < kWarpSize; ++l) idx[static_cast<std::size_t>(l)] = l % 4;
  WVec<float> vals{};
  const double expected = 7 * sys.spec.atomic_replay_cycles;
  WarpCtx w(sys, 0);
  w.atomic_add_f32(data, idx, vals, kFullMask);
  EXPECT_EQ(rec.atomic_stall_cycles, expected);
  w.atomic_max_f32(data, idx, vals, kFullMask);
  EXPECT_EQ(rec.atomic_stall_cycles, 2 * expected);
  EXPECT_EQ(rec.atomic_ops, 64);
}

TEST_F(WarpFixture, AtomicMaxApplies) {
  WarpCtx w(sys, 0);
  WVec<std::int64_t> idx{};
  WVec<float> vals{};
  vals[3] = 99.0f;
  sys.mem.view(data)[0] = 1.0f;
  w.atomic_max_f32(data, idx, vals, kFullMask);
  EXPECT_FLOAT_EQ(sys.mem.view(data)[0], 99.0f);
}

TEST_F(WarpFixture, AtomicU32FetchAdd) {
  auto ctr = sys.mem.alloc<std::uint32_t>(1);
  sys.mem.view(ctr)[0] = 5;
  WarpCtx w(sys, 0);
  EXPECT_EQ(w.atomic_add_u32(ctr, 0, 3), 5u);
  EXPECT_EQ(sys.mem.view(ctr)[0], 8u);
}

TEST_F(WarpFixture, AtomicsBypassL1) {
  WarpCtx w(sys, 0);
  (void)w.load_f32(data, iota(0), kFullMask);  // line now in L1
  const auto l1_before = rec.l1_accesses;
  WVec<float> vals{};
  w.atomic_add_f32(data, iota(0), vals, kFullMask);
  EXPECT_EQ(rec.l1_accesses, l1_before);  // atomic did not touch L1
}

TEST_F(WarpFixture, ReduceSumAndMax) {
  WarpCtx w(sys, 0);
  WVec<float> v{};
  for (int l = 0; l < kWarpSize; ++l)
    v[static_cast<std::size_t>(l)] = static_cast<float>(l);
  EXPECT_FLOAT_EQ(w.reduce_sum(v, kFullMask), 496.0f);
  EXPECT_FLOAT_EQ(w.reduce_max(v, kFullMask), 31.0f);
  EXPECT_FLOAT_EQ(w.reduce_sum(v, lanes_below(4)), 6.0f);
  EXPECT_GT(w.issue_cycles(), 0.0);
}

TEST_F(WarpFixture, ChargeAluAccumulates) {
  WarpCtx w(sys, 0);
  w.charge_alu(3);
  w.charge_alu();
  EXPECT_DOUBLE_EQ(w.issue_cycles(), 4.0);
}

// --- front ends against the general gather/scatter --------------------------
// The _seq entry points must price exactly like the general path with
// idx[l] = start + l under lanes_below(n), and the scalar ones exactly like a
// one-lane general request. Each case runs its access twice (cold, then warm)
// on two fresh, identical memory systems, then compares counters, costs,
// data and the recorded trace, and finally the cache state a follow-up probe
// sees.

struct Side {
  explicit Side(MemoryMode mode) : sys(GpuSpec::v100()) {
    sys.mem.set_mode(mode);
    sys.rec = &rec;
    trace.begin_kernel("front_end");
    sys.trace = &trace;
    data = sys.mem.alloc<float>(4096);
    auto v = sys.mem.view(data);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>(i);
  }

  MemorySystem sys;
  KernelRecord rec;
  AccessTrace trace;
  DevPtr<float> data;
};

void expect_same_pricing(const Side& a, const WarpCtx& wa, const Side& b,
                         const WarpCtx& wb, const std::string& label) {
  EXPECT_EQ(a.rec.requests, b.rec.requests) << label;
  EXPECT_EQ(a.rec.sectors, b.rec.sectors) << label;
  EXPECT_EQ(a.rec.bytes_load, b.rec.bytes_load) << label;
  EXPECT_EQ(a.rec.bytes_store, b.rec.bytes_store) << label;
  EXPECT_EQ(a.rec.bytes_atomic, b.rec.bytes_atomic) << label;
  EXPECT_EQ(a.rec.bytes_dram, b.rec.bytes_dram) << label;
  EXPECT_EQ(a.rec.l1_accesses, b.rec.l1_accesses) << label;
  EXPECT_EQ(a.rec.l1_hits, b.rec.l1_hits) << label;
  EXPECT_EQ(a.rec.l2_accesses, b.rec.l2_accesses) << label;
  EXPECT_EQ(a.rec.l2_hits, b.rec.l2_hits) << label;
  EXPECT_EQ(a.rec.atomic_ops, b.rec.atomic_ops) << label;
  EXPECT_EQ(a.rec.atomic_stall_cycles, b.rec.atomic_stall_cycles) << label;
  EXPECT_EQ(wa.issue_cycles(), wb.issue_cycles()) << label;
  EXPECT_EQ(wa.mem_cycles(), wb.mem_cycles()) << label;
}

/// Every recorded access must agree field by field. A scalar front end is
/// the one exception: it marks its accesses `scalar` (a broadcast, not a
/// one-lane divergent request), which the one-lane general path does not.
void expect_same_trace(const AccessTrace& a, const AccessTrace& b,
                       bool front_scalar, const std::string& label) {
  const auto& ta = a.kernels().at(0).accesses;
  const auto& tb = b.kernels().at(0).accesses;
  ASSERT_EQ(ta.size(), tb.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const std::string at = label + " access " + std::to_string(i);
    EXPECT_EQ(ta[i].warp, tb[i].warp) << at;
    EXPECT_EQ(ta[i].item, tb[i].item) << at;
    EXPECT_EQ(ta[i].site, tb[i].site) << at;
    EXPECT_EQ(ta[i].slot, tb[i].slot) << at;
    EXPECT_EQ(ta[i].kind, tb[i].kind) << at;
    EXPECT_EQ(ta[i].bytes, tb[i].bytes) << at;
    const bool probe = i + 1 == ta.size();  // the general follow-up load
    EXPECT_EQ(ta[i].scalar, front_scalar && !probe) << at;
    EXPECT_FALSE(tb[i].scalar) << at;
    EXPECT_EQ(ta[i].mask, tb[i].mask) << at;
    EXPECT_EQ(ta[i].addr, tb[i].addr) << at;
  }
}

/// Runs `front` on one side and `general` on the other (each twice), then
/// checks that pricing, data, trace and cache state agree.
template <class Front, class General>
void expect_front_matches_general(const std::string& label,
                                  std::int64_t start, Front&& front,
                                  General&& general,
                                  MemoryMode mode = MemoryMode::kFast,
                                  bool front_scalar = false) {
  Side a(mode), b(mode);
  AccessSite site;
  site.id = 5;
  WarpCtx wa(a.sys, 0, /*warp_id=*/7), wb(b.sys, 0, /*warp_id=*/7);
  for (WarpCtx* w : {&wa, &wb}) {
    w->begin_item(3);
    w->site(&site);
  }
  for (int round = 0; round < 2; ++round) {
    front(wa, a.data);
    general(wb, b.data);
  }
  expect_same_pricing(a, wa, b, wb, label);
  const auto va = a.sys.mem.view(a.data);
  const auto vb = b.sys.mem.view(b.data);
  for (std::size_t i = 0; i < va.size(); ++i)
    ASSERT_EQ(va[i], vb[i]) << label << " element " << i;

  // Tag state around the touched lines, then a follow-up probe whose hits
  // depend on residency and LRU order.
  const std::uint64_t first_line = a.data.addr(start) >> 7;
  for (std::uint64_t line = first_line > 0 ? first_line - 1 : 0;
       line <= first_line + 2; ++line) {
    EXPECT_EQ(a.sys.l1[0].contains(line << 7), b.sys.l1[0].contains(line << 7))
        << label << " L1 line " << line;
    EXPECT_EQ(a.sys.l2.contains(line << 7), b.sys.l2.contains(line << 7))
        << label << " L2 line " << line;
  }
  WVec<std::int64_t> probe{};
  for (int l = 0; l < kWarpSize; ++l)
    probe[static_cast<std::size_t>(l)] = start + 4 * l;
  (void)wa.load_f32(a.data, probe, kFullMask);
  (void)wb.load_f32(b.data, probe, kFullMask);
  expect_same_pricing(a, wa, b, wb, label + " follow-up probe");
  expect_same_trace(a.trace, b.trace, front_scalar, label);
}

WVec<std::int64_t> seq_lanes(std::int64_t start, int n) {
  WVec<std::int64_t> idx{};
  for (int l = 0; l < n; ++l) idx[static_cast<std::size_t>(l)] = start + l;
  return idx;
}

WVec<float> lane_values() {
  WVec<float> val{};
  for (int l = 0; l < kWarpSize; ++l)
    val[static_cast<std::size_t>(l)] = 0.5f + static_cast<float>(l);
  return val;
}

// Starts 0 and 8 lie inside one 128 B line for small n; 8 + 31 and 29 + 5
// straddle a line boundary.
void expect_sequential_matches_general(MemoryMode mode) {
  const WVec<float> val = lane_values();
  for (const std::int64_t start : {0, 8, 29}) {
    for (const int n : {1, 5, 31, 32}) {
      const std::string at =
          " start=" + std::to_string(start) + " n=" + std::to_string(n);
      const WVec<std::int64_t> idx = seq_lanes(start, n);
      const Mask m = lanes_below(n);
      expect_front_matches_general(
          "load" + at, start,
          [&](WarpCtx& w, DevPtr<float> d) {
            const WVec<float> out = w.load_f32_seq(d, start, n);
            for (int l = 0; l < kWarpSize; ++l)
              EXPECT_EQ(out[static_cast<std::size_t>(l)],
                        l < n ? static_cast<float>(start + l) : 0.0f)
                  << "load" << at << " lane " << l;
          },
          [&](WarpCtx& w, DevPtr<float> d) { (void)w.load_f32(d, idx, m); },
          mode);
      expect_front_matches_general(
          "store" + at, start,
          [&](WarpCtx& w, DevPtr<float> d) {
            w.store_f32_seq(d, start, val, n);
          },
          [&](WarpCtx& w, DevPtr<float> d) { w.store_f32(d, idx, val, m); },
          mode);
      expect_front_matches_general(
          "atomic_add" + at, start,
          [&](WarpCtx& w, DevPtr<float> d) {
            w.atomic_add_f32_seq(d, start, val, n);
          },
          [&](WarpCtx& w, DevPtr<float> d) {
            w.atomic_add_f32(d, idx, val, m);
          },
          mode);
    }
  }
}

TEST(WarpFrontEnds, SequentialMatchesGeneral) {
  expect_sequential_matches_general(MemoryMode::kFast);
}

// Guarded memory sends the sequential ranges through the per-lane loop, so
// every lane is checked against the redzones; that fallback must price the
// same as the general path too.
TEST(WarpFrontEnds, SequentialMatchesGeneralGuarded) {
  expect_sequential_matches_general(MemoryMode::kGuarded);
}

TEST(WarpFrontEnds, ScalarMatchesOneLaneGeneral) {
  for (const std::int64_t i : {0, 8, 29, 31, 1000}) {
    const std::string at = " idx=" + std::to_string(i);
    WVec<std::int64_t> idx{};
    idx[0] = i;
    WVec<float> val{};
    val[0] = 2.5f;
    expect_front_matches_general(
        "load_scalar" + at, i,
        [&](WarpCtx& w, DevPtr<float> d) {
          EXPECT_EQ(w.load_scalar_f32(d, i), static_cast<float>(i));
        },
        [&](WarpCtx& w, DevPtr<float> d) { (void)w.load_f32(d, idx, 0x1u); },
        MemoryMode::kFast, /*front_scalar=*/true);
    expect_front_matches_general(
        "atomic_add_scalar" + at, i,
        [&](WarpCtx& w, DevPtr<float> d) {
          (void)w.atomic_add_scalar_f32(d, i, val[0]);
        },
        [&](WarpCtx& w, DevPtr<float> d) {
          w.atomic_add_f32(d, idx, val, 0x1u);
        },
        MemoryMode::kFast, /*front_scalar=*/true);
  }
}

TEST(LaneHelpers, Masks) {
  EXPECT_EQ(lanes_below(0), 0u);
  EXPECT_EQ(lanes_below(1), 1u);
  EXPECT_EQ(lanes_below(32), kFullMask);
  EXPECT_TRUE(lane_active(0b100, 2));
  EXPECT_FALSE(lane_active(0b100, 1));
}

}  // namespace
}  // namespace tlp::sim
