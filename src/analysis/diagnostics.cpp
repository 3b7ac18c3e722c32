#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <set>
#include <utility>

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

using report::Json;

std::string to_json(const std::vector<Diagnostic>& diags, bool truncated) {
  Json list = Json::array();
  for (const Diagnostic& d : diags) {
    Json o = Json::object({{"key", d.key()},
                           {"rule", d.rule},
                           {"severity", severity_name(d.severity)},
                           {"suppressed", d.suppressed}});
    if (d.suppressed) o.set("suppress_reason", d.suppress_reason);
    o.set("system", d.system);
    o.set("dataset", d.dataset);
    o.set("kernel", d.kernel);
    o.set("site", d.site);
    if (!d.site2.empty()) o.set("site2", d.site2);
    if (!d.location.empty()) o.set("location", d.location);
    o.set("metric", d.metric);
    o.set("count", d.count);
    o.set("message", d.message);
    list.push_back(std::move(o));
  }
  return Json::object({{"tool", "tlplint"},
                       {"version", 1},
                       {"trace_truncated", truncated},
                       {"diagnostics", std::move(list)}})
      .dump();
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
  const auto text = [](std::string t) {
    return Json::object({{"text", std::move(t)}});
  };
  // Rules table: one reportingDescriptor per distinct rule id, sorted.
  std::set<std::string> rule_ids;
  for (const Diagnostic& d : diags) rule_ids.insert(d.rule);
  Json rules = Json::array();
  for (const std::string& r : rule_ids) {
    rules.push_back(Json::object(
        {{"id", r}, {"shortDescription", text(rule_description(r))}}));
  }

  Json results = Json::array();
  for (const Diagnostic& d : diags) {
    // SARIF levels coincide with our severity names (error/warning/note).
    Json res = Json::object({{"ruleId", d.rule},
                             {"level", severity_name(d.severity)},
                             {"message", text(d.message)}});
    if (!d.location.empty()) {
      std::string uri;
      int line = 0;
      split_location(d.location, uri, line);
      Json physical = Json::object(
          {{"artifactLocation",
            Json::object({{"uri", uri}, {"uriBaseId", "SRCROOT"}})}});
      if (line > 0) physical.set("region", Json::object({{"startLine", line}}));
      res.set("locations", Json::array({Json::object(
                               {{"physicalLocation", std::move(physical)}})}));
    }
    if (d.suppressed) {
      res.set("suppressions",
              Json::array({Json::object(
                  {{"kind", "inSource"},
                   {"justification", d.suppress_reason}})}));
    }
    res.set("partialFingerprints", Json::object({{"tlpKey/v1", d.key()}}));
    res.set("properties", Json::object({{"system", d.system},
                                        {"dataset", d.dataset},
                                        {"kernel", d.kernel},
                                        {"site", d.site},
                                        {"metric", d.metric},
                                        {"count", d.count}}));
    results.push_back(std::move(res));
  }

  const Json driver = Json::object(
      {{"name", "tlplint"},
       {"version", "2.0.0"},
       {"informationUri", "https://example.invalid/tlpgnn/tlpsan"},
       {"rules", std::move(rules)}});
  const Json run =
      Json::object({{"tool", Json::object({{"driver", driver}})},
                    {"results", std::move(results)}});
  return Json::object(
             {{"$schema", "https://json.schemastore.org/sarif-2.1.0.json"},
              {"version", "2.1.0"},
              {"runs", Json::array({run})}})
      .dump();
}

std::vector<std::string> keys_from_json(const std::string& json) {
  const Json doc = Json::parse(json);
  std::vector<std::string> keys;
  for (const Json& d : doc.at("diagnostics").items())
    keys.push_back(d.at("key").as_string());
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
