// tlpsan diagnostics: the findings the analysis passes emit, their stable
// rule ids, JSON serialization, and the baseline-comparison logic behind the
// CI gate (`tlplint --baseline`).
//
// Every diagnostic carries a *stable key* — rule id, system, kernel, and the
// access-site labels involved — deliberately excluding addresses, counts,
// datasets, and line numbers, so a baseline survives incidental churn and the
// gate fires only when a genuinely new (rule, code location) pair appears.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tlp::analysis {

// Stable rule identifiers. New rules append; ids are never reused.
// TLP-META-000 is the analyzer's self-diagnostic (trace truncated: coverage
// incomplete), emitted by the driver rather than a pass.
inline constexpr const char* kRuleMeta = "TLP-META-000";
inline constexpr const char* kRuleRace = "TLP-RACE-001";
inline constexpr const char* kRuleCoalesce = "TLP-COAL-002";
inline constexpr const char* kRuleDivergence = "TLP-DIV-003";
inline constexpr const char* kRuleAtomicContention = "TLP-ATOM-004";
inline constexpr const char* kRuleRedundantLoad = "TLP-RED-005";
inline constexpr const char* kRuleInit = "TLP-INIT-006";
inline constexpr const char* kRuleLifetime = "TLP-LIFE-007";
inline constexpr const char* kRuleBalance = "TLP-BAL-008";
inline constexpr const char* kRuleReuse = "TLP-REUSE-009";

enum class Severity { kNote, kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  std::string rule;     ///< stable rule id, e.g. "TLP-RACE-001"
  Severity severity = Severity::kWarning;
  /// True when the primary site carries a TLP_SITE_SUPPRESS for this rule:
  /// the finding is reported (with the site's justification) but does not
  /// count against the diagnostics gate.
  bool suppressed = false;
  std::string suppress_reason;

  std::string system;   ///< GnnSystem::name(), filled by the driver
  std::string dataset;  ///< synthetic dataset label, filled by the driver
  std::string kernel;   ///< kernel launch name
  std::string site;     ///< primary access-site label
  std::string site2;    ///< second site (race partner), may be empty
  std::string location;  ///< file:line of the primary site, may be empty
  std::string message;  ///< human-readable finding
  double metric = 0;    ///< pass-specific quantity (sectors/request, ...)
  std::int64_t count = 0;  ///< occurrences folded into this diagnostic

  /// Access-site ids set by passes; analyze_trace resolves them to labels,
  /// locations, and suppressions. Not serialized.
  std::uint32_t site_id = 0;
  std::uint32_t site2_id = 0;

  /// Baseline identity (see file comment).
  [[nodiscard]] std::string key() const;
};

/// Sorts by severity (errors first), then rule, system, kernel, site.
void sort_diagnostics(std::vector<Diagnostic>& diags);

/// Machine-readable report (a report::Json document): tool, version,
/// `trace_truncated` and the `diagnostics` array. `truncated` marks reports
/// built from a capped trace (coverage incomplete).
std::string to_json(const std::vector<Diagnostic>& diags,
                    bool truncated = false);

/// SARIF 2.1.0 document (the static-analysis interchange format CI
/// annotation services ingest): one run, one rule entry per distinct rule
/// id, one result per diagnostic. Severity maps kError→"error",
/// kWarning→"warning", kNote→"note"; suppressed findings carry an inline
/// `suppressions` entry (kind "inSource") with the site's justification.
std::string to_sarif(const std::vector<Diagnostic>& diags);

/// The `diagnostics[*].key` strings of a report produced by to_json (the
/// `--baseline` file), read with report::Json::parse. Throws
/// report::JsonError when the text does not parse (with its byte offset) or
/// has no `diagnostics` array of objects carrying a string `key`.
std::vector<std::string> keys_from_json(const std::string& json);

/// The CI gate: diagnostics whose key is absent from `baseline_keys`,
/// ignoring suppressed findings. Duplicate keys compare as one.
std::vector<Diagnostic> new_versus_baseline(
    const std::vector<Diagnostic>& diags,
    const std::vector<std::string>& baseline_keys);

}  // namespace tlp::analysis
