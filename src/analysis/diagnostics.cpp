#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "report/json.hpp"

namespace tlp::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::key() const {
  std::string k;
  k += rule;
  k += '|';
  k += system;
  k += '|';
  k += kernel;
  k += '|';
  k += site;
  if (!site2.empty()) {
    k += '|';
    k += site2;
  }
  return k;
}

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.severity != b.severity)
                return static_cast<int>(a.severity) > static_cast<int>(b.severity);
              if (a.suppressed != b.suppressed) return !a.suppressed;
              if (a.rule != b.rule) return a.rule < b.rule;
              if (a.system != b.system) return a.system < b.system;
              if (a.dataset != b.dataset) return a.dataset < b.dataset;
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              return a.site < b.site;
            });
}

using report::json_escape;

std::string to_json(const std::vector<Diagnostic>& diags, bool truncated) {
  std::ostringstream os;
  os << "{\n  \"tool\": \"tlplint\",\n  \"version\": 1,\n"
     << "  \"trace_truncated\": " << (truncated ? "true" : "false") << ",\n"
     << "  \"diagnostics\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    os << "    {\n"
       << "      \"key\": \"" << json_escape(d.key()) << "\",\n"
       << "      \"rule\": \"" << json_escape(d.rule) << "\",\n"
       << "      \"severity\": \"" << severity_name(d.severity) << "\",\n"
       << "      \"suppressed\": " << (d.suppressed ? "true" : "false")
       << ",\n";
    if (d.suppressed) {
      os << "      \"suppress_reason\": \"" << json_escape(d.suppress_reason)
         << "\",\n";
    }
    os << "      \"system\": \"" << json_escape(d.system) << "\",\n"
       << "      \"dataset\": \"" << json_escape(d.dataset) << "\",\n"
       << "      \"kernel\": \"" << json_escape(d.kernel) << "\",\n"
       << "      \"site\": \"" << json_escape(d.site) << "\",\n";
    if (!d.site2.empty())
      os << "      \"site2\": \"" << json_escape(d.site2) << "\",\n";
    if (!d.location.empty())
      os << "      \"location\": \"" << json_escape(d.location) << "\",\n";
    os << "      \"metric\": " << d.metric << ",\n"
       << "      \"count\": " << d.count << ",\n"
       << "      \"message\": \"" << json_escape(d.message) << "\"\n"
       << "    }" << (i + 1 < diags.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

namespace {

/// One-line rule summaries for the SARIF rules table.
const char* rule_description(const std::string& rule) {
  if (rule == kRuleMeta) return "trace truncated: analysis coverage incomplete";
  if (rule == kRuleRace) return "happens-before data race between warps";
  if (rule == kRuleCoalesce) return "uncoalesced global-memory access site";
  if (rule == kRuleDivergence) return "warp lane-activity imbalance";
  if (rule == kRuleAtomicContention) return "atomic-contention hotspot";
  if (rule == kRuleRedundantLoad)
    return "redundant load (register caching candidate)";
  if (rule == kRuleInit) return "device read before first write";
  if (rule == kRuleLifetime) return "dead or write-only device buffer";
  if (rule == kRuleBalance) return "inter-warp load imbalance";
  if (rule == kRuleReuse) return "reuse distance exceeds L2 capacity";
  return "tlpsan finding";
}

/// Splits "src/file.cpp:123" into a uri and a line; line 0 when absent.
void split_location(const std::string& loc, std::string& uri, int& line) {
  const std::size_t cut = loc.rfind(':');
  uri = loc;
  line = 0;
  if (cut == std::string::npos) return;
  const std::string tail = loc.substr(cut + 1);
  if (tail.empty() ||
      tail.find_first_not_of("0123456789") != std::string::npos) {
    return;
  }
  uri = loc.substr(0, cut);
  line = std::stoi(tail);
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  // Rules table: one reportingDescriptor per distinct rule id, sorted.
  std::set<std::string> rules;
  for (const Diagnostic& d : diags) rules.insert(d.rule);

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n    {\n"
     << "      \"tool\": {\n        \"driver\": {\n"
     << "          \"name\": \"tlplint\",\n"
     << "          \"version\": \"2.0.0\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/tlpgnn/tlpsan\",\n"
     << "          \"rules\": [\n";
  std::size_t ri = 0;
  for (const std::string& r : rules) {
    os << "            {\n"
       << "              \"id\": \"" << json_escape(r) << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(rule_description(r)) << "\" }\n"
       << "            }" << (++ri < rules.size() ? "," : "") << '\n';
  }
  os << "          ]\n        }\n      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    // SARIF levels coincide with our severity names (error/warning/note).
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(d.rule) << "\",\n"
       << "          \"level\": \"" << severity_name(d.severity) << "\",\n"
       << "          \"message\": { \"text\": \"" << json_escape(d.message)
       << "\" },\n";
    if (!d.location.empty()) {
      std::string uri;
      int line = 0;
      split_location(d.location, uri, line);
      os << "          \"locations\": [\n"
         << "            {\n"
         << "              \"physicalLocation\": {\n"
         << "                \"artifactLocation\": { \"uri\": \""
         << json_escape(uri) << "\", \"uriBaseId\": \"SRCROOT\" }";
      if (line > 0) {
        os << ",\n                \"region\": { \"startLine\": " << line
           << " }";
      }
      os << "\n              }\n            }\n          ],\n";
    }
    if (d.suppressed) {
      os << "          \"suppressions\": [\n"
         << "            { \"kind\": \"inSource\", \"justification\": \""
         << json_escape(d.suppress_reason) << "\" }\n"
         << "          ],\n";
    }
    os << "          \"partialFingerprints\": { \"tlpKey/v1\": \""
       << json_escape(d.key()) << "\" },\n"
       << "          \"properties\": {\n"
       << "            \"system\": \"" << json_escape(d.system) << "\",\n"
       << "            \"dataset\": \"" << json_escape(d.dataset) << "\",\n"
       << "            \"kernel\": \"" << json_escape(d.kernel) << "\",\n"
       << "            \"site\": \"" << json_escape(d.site) << "\",\n"
       << "            \"metric\": " << d.metric << ",\n"
       << "            \"count\": " << d.count << "\n"
       << "          }\n"
       << "        }" << (i + 1 < diags.size() ? "," : "") << '\n';
  }
  os << "      ]\n    }\n  ]\n}\n";
  return os.str();
}

std::vector<std::string> keys_from_json(const std::string& json) {
  std::vector<std::string> keys;
  const std::string needle = "\"key\"";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    pos = json.find(':', pos);
    if (pos == std::string::npos) break;
    pos = json.find('"', pos);
    if (pos == std::string::npos) break;
    const std::size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    keys.push_back(json.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return keys;
}

std::vector<Diagnostic> new_versus_baseline(
    const std::vector<Diagnostic>& diags,
    const std::vector<std::string>& baseline_keys) {
  const std::set<std::string> known(baseline_keys.begin(),
                                    baseline_keys.end());
  std::set<std::string> reported;
  std::vector<Diagnostic> fresh;
  for (const Diagnostic& d : diags) {
    if (d.suppressed) continue;
    const std::string k = d.key();
    if (known.count(k) != 0 || !reported.insert(k).second) continue;
    fresh.push_back(d);
  }
  return fresh;
}

}  // namespace tlp::analysis
