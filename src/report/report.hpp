// tlpbench result model: the versioned JSON schema every bench run
// serializes into (DESIGN.md §9).
//
// One *record* is a single measured configuration — (section, dataset,
// variant) — holding a flat map of named metric values. One *BenchResult* is
// all records one bench produced plus its effective config. A *Report*
// merges the per-bench results of one suite run with schema + provenance.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hpp"

namespace tlp::report {

/// Schema identifier written into every document; bump when the layout of
/// records or the meaning of a metric changes (see DESIGN.md §9 for the
/// update protocol).
inline constexpr const char* kSchema = "tlpbench-v1";

/// One measured configuration. `section` groups records within a bench (the
/// model name for multi-model benches, the sweep name for ablation benches;
/// empty when the bench has a single table). `variant` is the column under
/// comparison — a system name ("pull"), a stage ("+cache"), or a swept
/// parameter value ("blocks=8").
struct Record {
  std::string section;
  std::string dataset;
  std::string variant;
  /// Insertion-ordered metric name -> value pairs.
  std::vector<std::pair<std::string, double>> values;

  Record& value(const std::string& name, double v);
  [[nodiscard]] std::optional<double> get(const std::string& name) const;

  [[nodiscard]] Json to_json() const;
  static Record from_json(const Json& j);
};

/// All records one bench emitted, with the config that produced them.
struct BenchResult {
  std::string name;   ///< short bench id: "table1", "fig9", "tuning", ...
  std::string title;  ///< one-line human description
  Json config = Json::object();  ///< effective max_edges/feature/seed/full
  std::vector<Record> records;

  [[nodiscard]] Json to_json() const;
  static BenchResult from_json(const Json& j);
};

/// A full suite run: per-bench results plus provenance. The `git` field holds
/// the commit the results were generated at ("unknown" outside a checkout);
/// no wall-clock timestamp is stored so that reruns are byte-identical.
struct Report {
  std::string schema = kSchema;
  std::uint64_t seed = 42;
  std::string git = "unknown";
  std::vector<BenchResult> benches;

  [[nodiscard]] const BenchResult* find_bench(const std::string& name) const;

  /// Records of `bench` matching the given selector fields; empty strings
  /// match everything.
  [[nodiscard]] std::vector<const Record*> select(
      const std::string& bench, const std::string& section,
      const std::string& dataset, const std::string& variant) const;

  /// The single value at (bench, section, dataset, variant, metric), if any.
  [[nodiscard]] std::optional<double> value(const std::string& bench,
                                            const std::string& section,
                                            const std::string& dataset,
                                            const std::string& variant,
                                            const std::string& metric) const;

  [[nodiscard]] Json to_json() const;
  /// Parses and validates the schema tag; throws JsonError on mismatch.
  static Report from_json(const Json& j);
};

}  // namespace tlp::report
