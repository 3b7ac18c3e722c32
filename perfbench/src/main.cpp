// perfbench — the repository benchmark. Runs one workload against the public
// API of the src/ libraries, checks its outputs, and prints its metrics:
//
//   perfbench --workload paper-sweep|serve-zipf|lint-trace --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced run (see perfbench/README.md). The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the full result, with
// provenance, goes to DIR/result-*.json and a traced run's spans to
// DIR/spans-*.json. Exit codes: 0 correct, 1 a check failed, 2 usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-sweep|serve-zipf|lint-trace --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("expected --flag value pairs");
    kv[key.substr(2)] = argv[i + 1];
  }
  Options o;
  const auto need = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) usage(std::string("missing --") + k);
    return it->second;
  };
  try {
    o.workload = need("workload");
    o.seed = std::stoull(need("seed"));
    o.seconds = std::stod(need("seconds"));
    const std::string trace = need("trace");
    if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
    o.trace = trace == "1";
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (!(o.seconds > 0 && o.seconds <= 3600)) usage("--seconds out of range");
  o.out_dir = kv.count("out-dir") ? kv["out-dir"] : ".";
  if (kv.count("commit")) o.commit = kv["commit"];
  for (const auto& [k, v] : kv) {
    if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" &&
        k != "out-dir" && k != "commit")
      usage("unknown flag --" + k);
  }
  return o;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

tlp::report::Json provenance(const Options& o, double load_at_start) {
  tlp::report::Json p = tlp::report::Json::object();
  p.set("seed", std::to_string(o.seed));
  p.set("git_commit", o.commit);
  p.set("compiler", std::string("g++ ") + __VERSION__);
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  p.set("loadavg_1m_at_start", load_at_start);
  p.set("workload", o.workload);
  p.set("seconds", o.seconds);
  p.set("trace", o.trace);
  return p;
}

/// Self time summed per layer (the span name's first component).
std::map<std::string, double> self_time_by_layer(const SpanLog& log) {
  const std::vector<double> self = self_times_ms(log.spans());
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < self.size(); ++i) {
    const std::string& name = log.spans()[i].name;
    out[name.substr(0, name.find('.'))] += self[i];
  }
  return out;
}

void write_spans(const std::string& path, const SpanLog& log) {
  const std::vector<double> self = self_times_ms(log.spans());
  std::ofstream out(path, std::ios::binary);
  out << "[\n";
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    out << "  {\"name\": " << quoted(s.name) << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"start_ms\": " << num(s.start_ms)
        << ", \"end_ms\": " << num(s.end_ms) << ", \"self_ms\": "
        << num(self[i]) << "}" << (i + 1 < self.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void print_metrics(const char* title, const std::map<std::string, Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : ms)
    std::printf("  %-44s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  double load[1] = {0};
  if (getloadavg(load, 1) < 1) load[0] = -1;

  Result res;
  Ctx ctx{opt, res, {}, {}, 0};
  if (opt.workload == "paper-sweep") {
    run_paper_sweep(ctx);
  } else if (opt.workload == "serve-zipf") {
    run_serve_zipf(ctx);
  } else if (opt.workload == "lint-trace") {
    run_lint_trace(ctx);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }

  const std::map<std::string, Metric>& shown =
      opt.trace ? res.per_layer : res.end_to_end;
  for (const auto& [name, m] : shown) {
    if (!std::isfinite(m.value)) res.fail("metric " + name + " is not finite");
  }
  if (res.attempted < 1) res.fail("no op attempted");
  const bool correct = res.failures.empty() && res.failed == 0;

  const std::string tag = opt.workload + "-seed" + std::to_string(opt.seed) +
                          "-trace" + (opt.trace ? "1" : "0");
  tlp::report::Json doc = tlp::report::Json::object();
  doc.set("schema", "perfbench-v1");
  doc.set("provenance", provenance(opt, load[0]));
  doc.set("correct", correct);
  doc.set("attempted", res.attempted);
  doc.set("failed", res.failed);
  tlp::report::Json failures = tlp::report::Json::array();
  for (const std::string& f : res.failures) failures.push_back(f);
  doc.set("failures", std::move(failures));
  for (const auto& [key, metrics] :
       {std::pair{"end_to_end", &res.end_to_end},
        std::pair{"per_layer", &res.per_layer}}) {
    tlp::report::Json obj = tlp::report::Json::object();
    for (const auto& [name, m] : *metrics) {
      tlp::report::Json e = tlp::report::Json::object();
      e.set("value", m.value);
      e.set("unit", m.unit);
      obj.set(name, std::move(e));
    }
    doc.set(key, std::move(obj));
  }
  doc.set("detail", res.detail);
  if (opt.trace) {
    tlp::report::Json self = tlp::report::Json::object();
    for (const auto& [layer, ms] : self_time_by_layer(ctx.spans))
      self.set(layer, ms);
    doc.set("self_ms_by_layer", std::move(self));
    write_spans(opt.out_dir + "/spans-" + tag + ".json", ctx.spans);
  }
  const std::string result_path = opt.out_dir + "/result-" + tag + ".json";
  std::ofstream(result_path, std::ios::binary) << doc.dump() << "\n";

  std::printf("perfbench %s | seed %llu | %s run | %lld ops, %lld failed | "
              "sim_digest %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed),
              res.detail.string_or("sim_digest", "-").c_str());
  // A traced run's end-to-end numbers include span recording; they stay in
  // the result JSON but are not shown as the run's metrics.
  if (opt.trace)
    print_metrics("per-layer metrics:", res.per_layer);
  else
    print_metrics("end-to-end metrics:", res.end_to_end);
  for (const std::string& f : res.failures)
    std::printf("FAILED CHECK: %s\n", f.c_str());
  std::printf("correctness: %s\nfull result: %s\n", correct ? "PASS" : "FAIL",
              result_path.c_str());

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown) {
    if (!first) line += ", ";
    first = false;
    line += quoted(name) + ": {\"value\": " +
            (std::isfinite(m.value) ? num(m.value) : std::string("null")) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
