// Counter goldens for the mechanistic timing model (DESIGN.md §4): every
// kernel strategy x the three mech_cases.hpp graph shapes.
//
// The formatted counter record of each case must match
// tests/goldens/mech_counters.txt byte for byte — the golden file was
// generated against the pre-refactor build, so any drift in the functional
// layer or the L1/L2 pricing fails here first.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "mech_cases.hpp"
#include "systems/system.hpp"

namespace tlp::testing {
namespace {

/// name ("<runner> <graph>") -> full formatted record, parsed from the
/// committed golden file.
std::map<std::string, std::string> load_goldens() {
  const std::string path =
      std::string(TLP_SOURCE_DIR) + "/tests/goldens/mech_counters.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::map<std::string, std::string> out;
  std::string line, key, body;
  while (std::getline(in, line)) {
    if (line.rfind("case ", 0) == 0) {
      if (!key.empty()) out[key] = body;
      key = line.substr(5);
      body = line + "\n";
    } else if (!key.empty()) {
      body += line + "\n";
    }
  }
  if (!key.empty()) out[key] = body;
  return out;
}

CounterSums run_case(const fuzz::KernelRunner& runner, const graph::Csr& g) {
  sim::Device dev(sim::GpuSpec::v100());
  const models::ConvSpec spec = mech_spec(runner.name);
  const tensor::Tensor h = mech_features(g.num_vertices());
  (void)runner.run(dev, g, h, spec, sim::LaunchConfig{});
  return sum_counters(dev);
}

// The mechanistic model must stay byte-identical to the pre-refactor goldens:
// every counter of every (strategy, shape) case, doubles round-tripped at
// full precision.
TEST(MechGoldens, MechanisticMatchesPreRefactorGoldens) {
  const auto goldens = load_goldens();
  const auto graphs = mech_graphs();
  ASSERT_EQ(goldens.size(), fuzz::kernel_runners().size() * graphs.size());
  for (const auto& runner : fuzz::kernel_runners()) {
    for (const auto& gc : graphs) {
      const CounterSums s = run_case(runner, gc.g);
      const std::string key = runner.name + " " + gc.name;
      const auto it = goldens.find(key);
      ASSERT_NE(it, goldens.end()) << "no golden for case " << key;
      EXPECT_EQ(format_case(runner.name, gc.name, s), it->second)
          << "mechanistic counters drifted for case " << key;
    }
  }
}

// The pull and push systems and their fuzz runners launch the same strategy
// functions (src/systems/strategies.hpp). Under the default LaunchConfig, the
// one the systems fix, each pair must launch the same kernels with the same
// counters and produce bit-identical outputs, so a fork of either fails here.
TEST(MechGoldens, SystemsMatchTheirRunners) {
  const std::pair<std::string, std::string> pairs[] = {
      {"push", "push_atomic"}, {"pull", "gather_pull"}, {"pull", "fused_gat"}};
  for (const auto& [system, runner_name] : pairs) {
    const fuzz::KernelRunner* runner = nullptr;
    for (const auto& r : fuzz::kernel_runners())
      if (r.name == runner_name) runner = &r;
    ASSERT_NE(runner, nullptr) << runner_name;
    for (const auto& gc : mech_graphs()) {
      const std::string pair = system + "/" + runner_name + " " + gc.name;
      const models::ConvSpec spec = mech_spec(runner_name);
      const tensor::Tensor h = mech_features(gc.g.num_vertices());
      sim::Device sys_dev(sim::GpuSpec::v100());
      const systems::RunResult r =
          systems::make_system(system)->run(sys_dev, gc.g, h, spec);
      sim::Device run_dev(sim::GpuSpec::v100());
      const tensor::Tensor got =
          runner->run(run_dev, gc.g, h, spec, sim::LaunchConfig{});

      const auto& sys_launches = sys_dev.profiler().records();
      const auto& run_launches = run_dev.profiler().records();
      ASSERT_EQ(sys_launches.size(), run_launches.size()) << pair;
      for (std::size_t i = 0; i < sys_launches.size(); ++i)
        EXPECT_EQ(sys_launches[i].name, run_launches[i].name) << pair;
      EXPECT_EQ(format_case(runner_name, gc.name, sum_counters(sys_dev)),
                format_case(runner_name, gc.name, sum_counters(run_dev)))
          << pair;
      ASSERT_EQ(r.output.size(), got.size()) << pair;
      EXPECT_EQ(std::memcmp(r.output.flat().data(), got.flat().data(),
                            got.flat().size_bytes()),
                0)
          << pair;
    }
  }
}

}  // namespace
}  // namespace tlp::testing
