// tlpsan driver: runs the framework replicas on small synthetic graphs with
// an access trace attached and feeds the trace through the analysis passes.
// This is the engine behind the `tlplint` CLI and the CI diagnostics gate.
#pragma once

#include <string>
#include <vector>

#include "analysis/pass.hpp"
#include "graph/csr.hpp"

namespace tlp::analysis {

/// One synthetic lint workload. Small on purpose: traces are per-lane, and
/// the pathologies the passes hunt (races, uncoalesced column reads, hub
/// contention) already manifest at a few thousand vertices.
struct LintDataset {
  std::string name;
  graph::Csr graph;
  std::int64_t feature_size = 64;
  std::uint64_t seed = 7;
};

/// The stock lint workloads: a power-law graph (hub contention, skewed
/// degrees) and an R-MAT graph (community structure, degree-1 tails that
/// exercise divergence). Both deterministic.
std::vector<LintDataset> default_lint_datasets();

/// Every registered system name: systems::system_names(), in its order.
std::vector<std::string> lint_system_names();

/// The GPU replica the lint drivers simulate on: the 1/16 scaled V100 of the
/// bench methodology (EXPERIMENTS.md). Scaling matters to the analysis, not
/// just the runtime: the full V100's 6 MB L2 swallows every lint-sized
/// working set, which would leave TLP-REUSE-009 vacuously silent — on the
/// scaled replica the same capacity relationships exist at a size the lint
/// matrix can afford to trace.
sim::GpuSpec lint_gpu_spec();

struct LintReport {
  std::vector<Diagnostic> diagnostics;
  bool trace_truncated = false;
  int runs = 0;            ///< (system, dataset, model) combinations executed
  std::int64_t launches = 0;  ///< kernel launches analyzed
};

/// Runs each named system on each dataset (GCN everywhere, GAT where the
/// system supports it), traces every launch, and runs all passes. The
/// simulated device uses `opt.gpu` (the tlplint CLI passes lint_gpu_spec()),
/// so the reuse pass judges the same cache the trace ran against. Throws
/// CheckError on unknown system names.
LintReport lint_systems(const std::vector<std::string>& systems,
                        const std::vector<LintDataset>& datasets,
                        const PassOptions& opt = {});

/// Lints the serving tier (`tlplint --serve`): runs a small deterministic
/// serve::Server session — Poisson traffic over a power-law graph, dynamic
/// batching, plus a mid-run OOM fault storm so the retry and partitioned
/// fallback paths execute — with the trace attached to the server's device,
/// then analyzes it like any other run. Diagnostics carry system "serve"
/// and dataset "pl1k-storm".
LintReport lint_serve(const PassOptions& opt = {});

}  // namespace tlp::analysis
