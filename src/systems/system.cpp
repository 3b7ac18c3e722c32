#include "systems/system.hpp"

#include "common/check.hpp"
#include "systems/baseline_systems.hpp"
#include "systems/dgl_system.hpp"
#include "systems/featgraph_system.hpp"
#include "systems/gnnadvisor_system.hpp"
#include "systems/tlpgnn_system.hpp"

namespace tlp::systems {

RunResult finalize_run(sim::Device& dev, tensor::Tensor output,
                       const OverheadModel& overhead) {
  RunResult r;
  r.output = std::move(output);
  r.metrics = dev.metrics();
  r.kernel_launches = r.metrics.kernel_launches;
  r.peak_device_bytes = r.metrics.peak_device_bytes;
  r.gpu_time_ms = r.metrics.gpu_time_ms;
  r.measured_ms = r.gpu_time_ms +
                  r.kernel_launches * overhead.dispatch_us_per_kernel * 1e-3;
  r.runtime_ms = r.measured_ms +
                 r.kernel_launches * overhead.framework_ms_per_kernel;
  return r;
}

namespace {

template <class S>
std::unique_ptr<GnnSystem> construct() {
  return std::make_unique<S>();
}

struct NamedSystem {
  const char* name;
  std::unique_ptr<GnnSystem> (*make)();
};

constexpr NamedSystem kSystems[] = {
    {"tlpgnn", &construct<TlpgnnSystem>},
    {"dgl", &construct<DglSystem>},
    {"gnnadvisor", &construct<GnnAdvisorSystem>},
    {"featgraph", &construct<FeatgraphSystem>},
    {"push", &construct<PushSystem>},
    {"edge", &construct<EdgeCentricSystem>},
    {"pull", &construct<PullSystem>},
};

}  // namespace

std::unique_ptr<GnnSystem> make_system(const std::string& name) {
  for (const NamedSystem& s : kSystems) {
    if (name == s.name) return s.make();
  }
  TLP_CHECK_MSG(false, "unknown system '" << name << "'");
  __builtin_unreachable();
}

std::vector<std::string> system_names() {
  std::vector<std::string> names;
  for (const NamedSystem& s : kSystems) names.emplace_back(s.name);
  return names;
}

std::vector<std::string> table5_system_names() {
  return {"dgl", "gnnadvisor", "featgraph", "tlpgnn"};
}

}  // namespace tlp::systems
