// Integration tests across src/systems: every framework replica computes the
// same convolution as the CPU reference, honours its support matrix, and
// exhibits the qualitative properties the paper attributes to it (kernel
// counts, atomic traffic, occupancy, memory usage).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "models/reference.hpp"
#include "systems/baseline_systems.hpp"
#include "systems/partitioned.hpp"
#include "systems/dgl_system.hpp"
#include "systems/featgraph_system.hpp"
#include "systems/gnnadvisor_system.hpp"
#include "systems/system.hpp"
#include "systems/tlpgnn_system.hpp"

namespace tlp::systems {
namespace {

using graph::Csr;
using models::ConvSpec;
using models::ModelKind;
using tensor::Tensor;

struct World {
  Csr g;
  Tensor h;
  World(std::int64_t f = 32, std::uint64_t seed = 11) {
    Rng rng(seed);
    g = graph::power_law(300, 2400, 2.2, rng);
    h = Tensor::random(g.num_vertices(), f, rng);
  }
};

using SysModel = std::tuple<std::string, ModelKind>;

class SystemCorrectness : public ::testing::TestWithParam<SysModel> {};

TEST_P(SystemCorrectness, MatchesReference) {
  const auto& [name, kind] = GetParam();
  const World w;
  Rng rng(5);
  const ConvSpec spec = ConvSpec::make(kind, w.h.cols(), rng);
  auto sys = make_system(name);
  if (!sys->supports(kind, /*big_graph=*/false)) GTEST_SKIP();
  sim::Device dev;
  const RunResult r = sys->run(dev, w.g, w.h, spec);
  const Tensor ref = models::reference_conv(w.g, w.h, spec);
  EXPECT_TRUE(tensor::allclose(r.output, ref, 1e-3, 1e-4))
      << name << "/" << models::model_name(kind) << " max diff "
      << tensor::max_abs_diff(r.output, ref);
  EXPECT_GT(r.gpu_time_ms, 0.0);
  EXPECT_GE(r.runtime_ms, r.measured_ms);
  EXPECT_GE(r.measured_ms, r.gpu_time_ms);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystemsAllModels, SystemCorrectness,
    ::testing::Combine(
        ::testing::ValuesIn(system_names()),
        ::testing::Values(ModelKind::kGcn, ModelKind::kGin, ModelKind::kSage,
                          ModelKind::kGat)),
    [](const auto& suite_info) {
      return std::get<0>(suite_info.param) + std::string("_") +
             models::model_name(std::get<1>(suite_info.param));
    });

TEST(SystemMatrix, SupportFlags) {
  EXPECT_FALSE(make_system("gnnadvisor")->supports(ModelKind::kSage, false));
  EXPECT_FALSE(make_system("gnnadvisor")->supports(ModelKind::kGat, false));
  EXPECT_FALSE(make_system("gnnadvisor")->supports(ModelKind::kGcn, true));
  EXPECT_TRUE(make_system("gnnadvisor")->supports(ModelKind::kGcn, false));
  EXPECT_FALSE(make_system("push")->supports(ModelKind::kGat, false));
  EXPECT_TRUE(make_system("dgl")->supports(ModelKind::kGat, true));
  EXPECT_THROW(make_system("bogus"), tlp::CheckError);
}

TEST(Dgl, KernelCountsMatchPaper) {
  EXPECT_EQ(DglSystem::kernel_count(ModelKind::kGcn), 6);
  EXPECT_EQ(DglSystem::kernel_count(ModelKind::kGin), 8);
  EXPECT_EQ(DglSystem::kernel_count(ModelKind::kSage), 10);
  EXPECT_EQ(DglSystem::kernel_count(ModelKind::kGat), 18);

  const World w;
  Rng rng(6);
  sim::Device dev;
  for (const ModelKind kind : models::kAllModels) {
    const ConvSpec spec = ConvSpec::make(kind, w.h.cols(), rng);
    DglSystem dgl;
    const RunResult r = dgl.run(dev, w.g, w.h, spec);
    EXPECT_EQ(r.kernel_launches, DglSystem::kernel_count(kind));
  }
}

TEST(Tlpgnn, SingleKernelForEveryModel) {
  const World w;
  Rng rng(7);
  sim::Device dev;
  TlpgnnSystem sys;
  for (const ModelKind kind : models::kAllModels) {
    const ConvSpec spec = ConvSpec::make(kind, w.h.cols(), rng);
    const RunResult r = sys.run(dev, w.g, w.h, spec);
    EXPECT_EQ(r.kernel_launches, 1) << models::model_name(kind);
  }
}

TEST(Tlpgnn, AtomicFree) {
  const World w;
  Rng rng(8);
  sim::Device dev;
  TlpgnnSystem sys;
  const ConvSpec spec = ConvSpec::make(ModelKind::kGcn, w.h.cols(), rng);
  const RunResult r = sys.run(dev, w.g, w.h, spec);
  EXPECT_DOUBLE_EQ(r.metrics.bytes_atomic, 0.0);
}

TEST(Baselines, AtomicStrategiesProduceAtomicTraffic) {
  const World w;
  Rng rng(9);
  const ConvSpec spec = ConvSpec::make(ModelKind::kGcn, w.h.cols(), rng);
  for (const char* name : {"push", "edge", "gnnadvisor"}) {
    sim::Device dev;
    const RunResult r = make_system(name)->run(dev, w.g, w.h, spec);
    EXPECT_GT(r.metrics.bytes_atomic, 0.0) << name;
  }
  sim::Device dev;
  const RunResult pull = make_system("pull")->run(dev, w.g, w.h, spec);
  EXPECT_DOUBLE_EQ(pull.metrics.bytes_atomic, 0.0);
}

TEST(Tlpgnn, HybridHeuristicThresholds) {
  // §5: software when |V| > 1M or avg degree > 50.
  EXPECT_EQ(hybrid_heuristic(2'000'000, 3.0), sim::Assignment::kSoftwarePool);
  EXPECT_EQ(hybrid_heuristic(1000, 400.0), sim::Assignment::kSoftwarePool);
  EXPECT_EQ(hybrid_heuristic(1000, 3.0), sim::Assignment::kHardwareDynamic);
  EXPECT_EQ(hybrid_heuristic(999'999, 50.0), sim::Assignment::kHardwareDynamic);
}

TEST(Tlpgnn, AblationStagesAllCorrect) {
  const World w;
  Rng rng(10);
  const Tensor ref = models::reference_conv(
      w.g, w.h, ConvSpec::make(ModelKind::kGcn, w.h.cols(), rng));
  for (const bool hybrid : {false, true}) {
    for (const bool cache : {false, true}) {
      TlpgnnOptions opts;
      opts.hybrid_assignment = hybrid;
      opts.register_cache = cache;
      TlpgnnSystem sys(opts);
      sim::Device dev;
      ConvSpec spec;
      spec.kind = ModelKind::kGcn;
      const RunResult r = sys.run(dev, w.g, w.h, spec);
      EXPECT_TRUE(tensor::allclose(r.output, ref, 1e-3, 1e-4));
    }
  }
}

TEST(Tlpgnn, UnfusedGatMatchesFused) {
  const World w;
  Rng rng(11);
  const ConvSpec spec = ConvSpec::make(ModelKind::kGat, w.h.cols(), rng);
  TlpgnnOptions unfused_opts;
  unfused_opts.fused_gat = false;
  TlpgnnSystem fused, unfused(unfused_opts);
  sim::Device dev;
  const RunResult rf = fused.run(dev, w.g, w.h, spec);
  const RunResult ru = unfused.run(dev, w.g, w.h, spec);
  EXPECT_TRUE(tensor::allclose(ru.output, rf.output, 1e-3, 1e-4));
  EXPECT_EQ(rf.kernel_launches, 1);
  EXPECT_EQ(ru.kernel_launches, 3);
  // Fusion saves launches and global traffic.
  EXPECT_LT(rf.peak_device_bytes, ru.peak_device_bytes);
}

TEST(Tlpgnn, FixedGridStillCorrect) {
  const World w;
  Rng rng(12);
  const ConvSpec spec = ConvSpec::make(ModelKind::kGin, w.h.cols(), rng);
  const Tensor ref = models::reference_conv(w.g, w.h, spec);
  for (const int blocks : {1, 4, 64}) {
    TlpgnnOptions opts;
    opts.grid_blocks = blocks;
    TlpgnnSystem sys(opts);
    sim::Device dev;
    const RunResult r = sys.run(dev, w.g, w.h, spec);
    EXPECT_TRUE(tensor::allclose(r.output, ref, 1e-3, 1e-4)) << blocks;
  }
}

TEST(Featgraph, LowerOccupancyThanTlpgnn) {
  // The Figure 9 mechanism: FeatGraph's 1-warp blocks cap resident warps.
  const World w;
  Rng rng(13);
  ConvSpec spec;
  spec.kind = ModelKind::kGcn;
  sim::Device dev;
  FeatgraphSystem fg;
  const double occ_fg = fg.run(dev, w.g, w.h, spec).metrics.achieved_occupancy;
  TlpgnnSystem tl;
  const double occ_tl = tl.run(dev, w.g, w.h, spec).metrics.achieved_occupancy;
  EXPECT_LT(occ_fg, occ_tl);
}

TEST(Dgl, UsesMoreMemoryAndTrafficThanTlpgnn) {
  const World w;
  Rng rng(14);
  const ConvSpec spec = ConvSpec::make(ModelKind::kGat, w.h.cols(), rng);
  sim::Device dev;
  DglSystem dgl;
  const RunResult rd = dgl.run(dev, w.g, w.h, spec);
  TlpgnnSystem tl;
  const RunResult rt = tl.run(dev, w.g, w.h, spec);
  EXPECT_GT(rd.peak_device_bytes, 2 * rt.peak_device_bytes);
  const double dgl_traffic =
      rd.metrics.bytes_load + rd.metrics.bytes_store + rd.metrics.bytes_atomic;
  const double tlp_traffic =
      rt.metrics.bytes_load + rt.metrics.bytes_store + rt.metrics.bytes_atomic;
  EXPECT_GT(dgl_traffic, tlp_traffic);
}

TEST(Advisor, ReportsPreprocessingTime) {
  const World w;
  ConvSpec spec;
  spec.kind = ModelKind::kGcn;
  sim::Device dev;
  GnnAdvisorSystem sys;
  const RunResult r = sys.run(dev, w.g, w.h, spec);
  EXPECT_GT(r.preprocessing_ms, 0.0);
}

TEST(Partitioned, CountInvarianceBitIdentical) {
  // Regression for the fuzzer's partition-count invariant: the partitioned
  // runner must reproduce the unpartitioned output bit for bit at every
  // partition count, including counts that do not divide |V|. k=1 is the
  // plain system run itself (run_partitioned requires k >= 2).
  const World w;
  Rng rng(21);
  for (const ModelKind kind : models::kAllModels) {
    const ConvSpec spec = ConvSpec::make(kind, w.h.cols(), rng);
    TlpgnnSystem sys;
    sim::Device base_dev;
    const RunResult base = sys.run(base_dev, w.g, w.h, spec);
    for (const int k : {2, 3, 7}) {
      sim::Device dev;
      const RunResult part = run_partitioned(sys, dev, w.g, w.h, spec, k);
      ASSERT_EQ(part.output.rows(), base.output.rows());
      ASSERT_EQ(part.output.cols(), base.output.cols());
      const auto a = base.output.flat();
      const auto b = part.output.flat();
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << models::model_name(kind) << " k=" << k;
    }
  }
}

// system_names() is the one list of systems: every name on it constructs,
// Table 5's names are on it, and make_system rejects a name that is not.
TEST(Systems, ListedNamesConstructOthersThrow) {
  const std::vector<std::string> names = system_names();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    EXPECT_NO_THROW((void)make_system(name)) << name;
  }
  for (const auto& name : table5_system_names()) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  EXPECT_THROW((void)make_system("tlpgnn2"), tlp::CheckError);
  EXPECT_THROW((void)make_system(""), tlp::CheckError);
}

}  // namespace
}  // namespace tlp::systems
