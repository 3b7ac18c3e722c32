// Shared fixture for the mechanistic counter goldens
// (tests/test_mech_goldens.cpp) and the one-shot golden generator that
// captured tests/goldens/mech_counters.txt from the pre-refactor build.
//
// Both sides must construct byte-identical workloads, so everything that
// shapes the access stream lives here: the three graph shapes (a power-law
// social-graph replica, a uniform ring, and the star that maximizes
// imbalance and atomic contention), the fixed feature size/seed, and the
// counter summation + text formatting. Doubles print with %.17g so a
// round-trip through the golden file is exact.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fuzz/kernel_runners.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "models/model.hpp"
#include "sim/device.hpp"
#include "tensor/tensor.hpp"

namespace tlp::testing {

inline constexpr std::int64_t kMechFeature = 64;
inline constexpr int kMechGatHeads = 2;
inline constexpr std::uint64_t kMechSeed = 0x7a11a6e5ULL;

struct GraphCase {
  std::string name;
  graph::Csr g;
};

/// The three shapes of the golden matrix: skewed, uniform, degenerate.
inline std::vector<GraphCase> mech_graphs() {
  std::vector<GraphCase> out;
  {
    Rng rng(kMechSeed);
    out.push_back({"power_law", graph::power_law(512, 4096, 2.1, rng)});
  }
  out.push_back({"ring", graph::regular_ring(512, 8)});
  out.push_back({"star", graph::star(256)});
  return out;
}

/// The convolution each strategy runs: GAT for the fused-GAT kernel, GCN
/// (norm-pair weights, self term — the richest access mix) for the rest.
inline models::ConvSpec mech_spec(const std::string& runner_name) {
  Rng rng(kMechSeed + 1);
  if (runner_name == "fused_gat") {
    return models::ConvSpec::make(models::ModelKind::kGat, kMechFeature, rng,
                                  kMechGatHeads);
  }
  return models::ConvSpec::make(models::ModelKind::kGcn, kMechFeature, rng);
}

inline tensor::Tensor mech_features(std::int64_t rows) {
  Rng rng(kMechSeed + 2);
  return tensor::Tensor::random(rows, kMechFeature, rng);
}

/// Summed per-launch counters of one (runner, graph) run — the quantity the
/// goldens pin exactly.
struct CounterSums {
  std::int64_t requests = 0;
  std::int64_t sectors = 0;
  std::int64_t bytes_load = 0;
  std::int64_t bytes_store = 0;
  std::int64_t bytes_atomic = 0;
  std::int64_t bytes_dram = 0;
  std::int64_t l1_accesses = 0;
  std::int64_t l1_hits = 0;
  std::int64_t l2_accesses = 0;
  std::int64_t l2_hits = 0;
  std::int64_t atomic_ops = 0;
  double issue_cycles = 0;
  double mem_stall_cycles = 0;
  double atomic_stall_cycles = 0;
  double elapsed_cycles = 0;
};

inline CounterSums sum_counters(const sim::Device& dev) {
  CounterSums s;
  for (const sim::KernelRecord& r : dev.profiler().records()) {
    s.requests += r.requests;
    s.sectors += r.sectors;
    s.bytes_load += r.bytes_load;
    s.bytes_store += r.bytes_store;
    s.bytes_atomic += r.bytes_atomic;
    s.bytes_dram += r.bytes_dram;
    s.l1_accesses += r.l1_accesses;
    s.l1_hits += r.l1_hits;
    s.l2_accesses += r.l2_accesses;
    s.l2_hits += r.l2_hits;
    s.atomic_ops += r.atomic_ops;
    s.issue_cycles += r.issue_cycles;
    s.mem_stall_cycles += r.mem_stall_cycles;
    s.atomic_stall_cycles += r.atomic_stall_cycles;
    s.elapsed_cycles += r.elapsed_cycles;
  }
  return s;
}

/// One golden record: "case <runner> <graph>" then one "key value" line per
/// counter. %.17g makes the double fields exact across the file round-trip.
inline std::string format_case(const std::string& runner,
                               const std::string& graph,
                               const CounterSums& s) {
  char buf[256];
  std::string out = "case " + runner + " " + graph + "\n";
  const auto add_i = [&](const char* k, std::int64_t v) {
    std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", k, v);
    out += buf;
  };
  const auto add_d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", k, v);
    out += buf;
  };
  add_i("requests", s.requests);
  add_i("sectors", s.sectors);
  add_i("bytes_load", s.bytes_load);
  add_i("bytes_store", s.bytes_store);
  add_i("bytes_atomic", s.bytes_atomic);
  add_i("bytes_dram", s.bytes_dram);
  add_i("l1_accesses", s.l1_accesses);
  add_i("l1_hits", s.l1_hits);
  add_i("l2_accesses", s.l2_accesses);
  add_i("l2_hits", s.l2_hits);
  add_i("atomic_ops", s.atomic_ops);
  add_d("issue_cycles", s.issue_cycles);
  add_d("mem_stall_cycles", s.mem_stall_cycles);
  add_d("atomic_stall_cycles", s.atomic_stall_cycles);
  add_d("elapsed_cycles", s.elapsed_cycles);
  return out;
}

}  // namespace tlp::testing
