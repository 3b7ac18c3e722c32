// Differential and metamorphic oracles for one fuzz case.
//
// Differential: every kernel strategy and every framework replica must match
// models::reference_conv within float-accumulation tolerance. Metamorphic:
// properties that must hold exactly — relabeling vertices permutes the
// output (equivariance), the partition count never changes a single bit of
// the partitioned system's result, re-running a launch is deterministic, the
// launch policy does not change functional results, profiler counters stay
// inside physical bounds, and injected faults either degrade bit-identically
// (OOM) or surface as the typed error (launch failure).
#pragma once

#include <string>
#include <vector>

#include "fuzz/case_gen.hpp"
#include "graph/csr.hpp"
#include "models/model.hpp"
#include "sim/counters.hpp"
#include "tensor/tensor.hpp"

namespace tlp::fuzz {

struct CaseContext {
  CaseSpec spec;
  graph::Csr g;
  tensor::Tensor h;
  models::ConvSpec conv;
  tensor::Tensor ref;  ///< reference_conv(g, h, conv)

  /// Builds graph/features/spec/reference for a case.
  static CaseContext make(const CaseSpec& c);
};

struct OracleFailure {
  std::string oracle;   ///< which invariant broke ("kernel_diff", ...)
  std::string subject;  ///< kernel/system under test
  std::string detail;   ///< human-readable mismatch description
};

/// Comparison used by the differential oracles; rejects NaN/Inf mismatches
/// in addition to the tolerance band.
bool outputs_close(const tensor::Tensor& got, const tensor::Tensor& ref,
                   std::string* detail);

/// Every applicable kernel strategy vs the reference.
std::vector<OracleFailure> check_kernels(const CaseContext& cx);
/// Whether check_systems and the minimizer run system `name` on a case: it
/// supports the model; weights and multi-head GAT need run_pull's systems.
bool system_runs_case(const std::string& name, const models::ConvSpec& conv);
/// Every registered framework replica the case runs on vs the reference.
std::vector<OracleFailure> check_systems(const CaseContext& cx);
/// Vertex-reorder equivariance of the TLPGNN system.
std::vector<OracleFailure> check_reorder(const CaseContext& cx);
/// systems/partitioned: output bit-identical for k in {2, 3, 7} and to the
/// unpartitioned run.
std::vector<OracleFailure> check_partitions(const CaseContext& cx);
/// Same launch twice => bit-identical output and identical counters.
std::vector<OracleFailure> check_determinism(const CaseContext& cx);
/// All three Assignment policies produce bit-identical functional output.
std::vector<OracleFailure> check_assignments(const CaseContext& cx);
/// Fault-plan behaviour: injected OOM degrades bit-identically; an injected
/// launch failure surfaces as tlp::LaunchFailure; injected bit flips never
/// crash the harness.
std::vector<OracleFailure> check_faults(const CaseContext& cx);
/// Serving determinism: the same (traffic seed, FaultPlan storm schedule)
/// replays to a byte-identical outcome sequence and SLO report, with 100%
/// outcome accounting, and every response served under the storm is bitwise
/// equal to its fault-free counterpart.
std::vector<OracleFailure> check_serving(const CaseContext& cx);

/// Profiler-counter sanity for one run's aggregated metrics (occupancy and
/// utilization within [0,1], rates within bounds, DRAM traffic not exceeding
/// the L2-side total). Appended by the other oracles after each run.
void check_metrics(const std::string& subject, const sim::Metrics& m,
                   std::vector<OracleFailure>* out);

/// Names of all oracles above, for report bookkeeping.
const std::vector<std::string>& oracle_names();

}  // namespace tlp::fuzz
