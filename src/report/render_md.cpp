#include "report/render_md.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "common/format.hpp"

namespace tlp::report {

namespace {

// --- small lookup / formatting helpers ---------------------------------------

using Format = std::string (*)(double);

std::string fixed0(double v) { return fixed(v, 0); }
std::string fixed1(double v) { return fixed(v, 1); }
std::string fixed2(double v) { return fixed(v, 2); }
std::string fixed3(double v) { return fixed(v, 3); }
std::string fixed4(double v) { return fixed(v, 4); }
std::string times1(double v) { return fixed(v, 1) + "x"; }
std::string times2(double v) { return fixed(v, 2) + "x"; }

/// `fmt(*v)`, or "-" when the record is absent (support matrix).
std::string cell(const std::optional<double>& v, Format fmt) {
  return v ? fmt(*v) : std::string("-");
}

std::string ratio_x(double a, double b, int digits) {
  return fixed(a / b, digits) + "x";
}

/// The records of one (bench, section, dataset) slice, looked up by variant.
struct Slice {
  const Report& rep;
  std::string bench, section, dataset;

  [[nodiscard]] std::optional<double> at(const std::string& variant,
                                         const std::string& metric) const {
    return rep.value(bench, section, dataset, variant, metric);
  }
  /// A row() getter for `metric`.
  [[nodiscard]] auto metric(const std::string& name) const {
    return [this, name](const std::string& variant) {
      return at(variant, name);
    };
  }
};

/// One table row: `label`, then `get(variant)` rendered by `fmt` for each
/// variant column.
template <typename Get>
std::vector<std::string> row(const std::string& label,
                             const std::vector<std::string>& variants,
                             Format fmt, Get get) {
  std::vector<std::string> cells{label};
  for (const std::string& v : variants) cells.push_back(cell(get(v), fmt));
  return cells;
}

/// Unique datasets of one bench section, in record (= dataset table) order.
std::vector<std::string> datasets_of(const BenchResult& b,
                                     const std::string& section) {
  std::vector<std::string> out;
  for (const Record& r : b.records) {
    if (r.section != section || r.dataset.empty()) continue;
    if (std::find(out.begin(), out.end(), r.dataset) == out.end())
      out.push_back(r.dataset);
  }
  return out;
}

/// One row per dataset of `section`, one `metric` cell per variant.
std::vector<std::vector<std::string>> dataset_rows(
    const Report& rep, const BenchResult& b, const std::string& section,
    const std::vector<std::string>& variants, const std::string& metric,
    Format fmt) {
  std::vector<std::vector<std::string>> rows;
  for (const std::string& ds : datasets_of(b, section)) {
    rows.push_back(row(ds, variants, fmt, [&](const std::string& v) {
      return rep.value(b.name, section, ds, v, metric);
    }));
  }
  return rows;
}

/// `prefix` + n for each n, e.g. ("blocks=", {1, 2}) -> {"blocks=1", ...}.
std::vector<std::string> swept(const std::string& prefix,
                               const std::vector<int>& values) {
  std::vector<std::string> out;
  for (const int v : values) out.push_back(prefix + std::to_string(v));
  return out;
}

void md_table(std::string& out, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows) {
  auto emit_row = [&out](const std::vector<std::string>& cells) {
    out += "|";
    for (const std::string& c : cells) {
      out += " ";
      out += c;
      out += " |";
    }
    out += "\n";
  };
  emit_row(header);
  std::vector<std::string> rule(header.size(), "---");
  emit_row(rule);
  for (const auto& r : rows) emit_row(r);
  out += "\n";
}

/// Calls `table(model)` under a bold heading for each model the bench
/// recorded a section for.
template <typename Table>
void per_model(std::string& md, const BenchResult& b, Table table) {
  for (const std::string model : {"GCN", "GIN", "Sage", "GAT"}) {
    if (datasets_of(b, model).empty()) continue;
    md += "**" + model + "**\n\n";
    table(model);
  }
}

std::string config_line(const BenchResult& b) {
  std::string out = "Config: ";
  out += "max-edges " +
         human_count(b.config.number_or("max_edges", 0)) +
         (b.config.bool_or("full", false) ? " (full scale)" : "") +
         ", F=" + fixed(b.config.number_or("feature", 0), 0) +
         ", seed " + fixed(b.config.number_or("seed", 42), 0) + ".";
  return out;
}

// --- per-bench sections ------------------------------------------------------
//
// Each body renders the tables and commentary of one bench from its records;
// the heading and config line come from render_section.

void table1(std::string& md, const Report& rep, const BenchResult& b) {
  const std::vector<std::string> found = datasets_of(b, "");
  const std::string ds = found.empty() ? std::string("OH") : found.front();
  const Slice s{rep, "table1", "", ds};
  const std::vector<std::string> systems{"push", "edge", "gnnadvisor", "pull"};
  md_table(
      md, {"Metrics", "Push", "Edge", "GnnA.", "Pull"},
      {row("Runtime (ms)", systems, fixed3, s.metric("measured_ms")),
       row("Mem load traffic", systems, human_bytes, s.metric("bytes_load")),
       row("Mem atomic store traffic", systems, human_bytes,
           s.metric("bytes_atomic")),
       row("Stall long scoreboard (cyc/instr)", systems, fixed1,
           s.metric("scoreboard_stall")),
       row("SM utilization", systems, pct, s.metric("sm_utilization"))});

  const auto pull = s.at("pull", "measured_ms");
  const auto push = s.at("push", "measured_ms");
  const auto edge = s.at("edge", "measured_ms");
  const auto gnna = s.at("gnnadvisor", "measured_ms");
  if (pull && push && edge && gnna) {
    md += "Measured pull speedup: " + ratio_x(*push, *pull, 2) + " over push, " +
          ratio_x(*edge, *pull, 2) + " over edge, " + ratio_x(*gnna, *pull, 2) +
          " over GNNAdvisor. Paper (V100, full scale): 1.8x / 1.6x / 5.8x.\n\n";
  }
  md += "Shape: pull is atomic-free and fastest; every atomic strategy pays "
        "traffic + stalls. Deviation: in our model edge-centric (32-lane "
        "scattered atomics) is the worst and GNNAdvisor "
        "(register-accumulated groups, one atomic merge per group) the "
        "mildest atomic strategy, whereas the paper measures GNNAdvisor "
        "worst — its released implementation carries overheads beyond the "
        "atomic mechanism that we do not replicate.\n\n";
}

void table2(std::string& md, const Report& rep, const BenchResult&) {
  const Slice s{rep, "table2", "", "PD"};
  const std::vector<std::string> mappings{"one-thread", "half-warp"};
  md_table(md, {"Metrics", "One Thread", "Half Warp"},
           {row("Runtime (ms)", mappings, fixed3, s.metric("runtime_ms")),
            row("Sector per request", mappings, fixed1,
                s.metric("sectors_per_request")),
            row("L1 cache hit", mappings, pct, s.metric("l1_hit_rate")),
            row("Long scoreboard (cyc/instr)", mappings, fixed1,
                s.metric("scoreboard_stall"))});

  const auto one = s.at("one-thread", "runtime_ms");
  const auto half = s.at("half-warp", "runtime_ms");
  if (one && half) {
    md += "Measured half-warp speedup over one-thread: " +
          ratio_x(*one, *half, 1) +
          " (paper: 27.3x, sectors 9.2 vs 2.1).\n\n";
  }

  md += "Lanes-per-vertex sweep (extension ablation):\n\n";
  std::vector<std::vector<std::string>> sweep;
  for (const int lpv : {1, 2, 4, 8, 16, 32}) {
    const std::string v = "lpv=" + std::to_string(lpv);
    sweep.push_back({std::to_string(lpv), cell(s.at(v, "runtime_ms"), fixed3),
                     cell(s.at(v, "sectors_per_request"), fixed1),
                     cell(s.at(v, "l1_hit_rate"), pct)});
  }
  md_table(md, {"lanes/vertex", "runtime (ms)", "sectors/req", "L1 hit"},
           sweep);

  md += "Shape: the one-thread mapping multiplies sectors/request and "
        "loses; the sweep improves monotonically from 1 to 32 lanes. "
        "Deviation: the magnitude is compressed because the simulator's L1 "
        "absorbs more of the scattered-access penalty than the V100 did.\n\n";
}

void table3(std::string& md, const Report& rep, const BenchResult&) {
  const std::vector<std::string> systems{"dgl", "three-kernel", "one-kernel"};
  const Slice s{rep, "table3", "", "RD"};
  const auto overhead = [&s](const std::string& v) -> std::optional<double> {
    const auto rt = s.at(v, "runtime_ms");
    const auto gt = s.at(v, "gpu_time_ms");
    if (!rt || !gt) return std::nullopt;
    return *rt - *gt;
  };
  const auto traffic = [&s](const std::string& v) -> std::optional<double> {
    const auto ld = s.at(v, "bytes_load");
    const auto st = s.at(v, "bytes_store");
    const auto atom = s.at(v, "bytes_atomic");
    if (!ld || !st || !atom) return std::nullopt;
    return *ld + *st + *atom;
  };
  md_table(
      md, {"Metrics", "DGL", "Three-Kernel", "One-Kernel"},
      {row("GPU Kernel launch", systems, fixed0, s.metric("kernel_launches")),
       row("Runtime (ms)", systems, fixed2, s.metric("runtime_ms")),
       row("GPU time (ms)", systems, fixed2, s.metric("gpu_time_ms")),
       row("Runtime - GPU time (ms)", systems, fixed2, overhead),
       row("Global mem usage", systems, human_bytes,
           s.metric("peak_device_bytes")),
       row("Global mem traffic", systems, human_bytes, traffic),
       row("Stall long scoreboard (cyc/instr)", systems, fixed1,
           s.metric("scoreboard_stall")),
       row("Average SM utilization", systems, pct,
           s.metric("sm_utilization"))});

  const auto dgl = s.at("dgl", "runtime_ms");
  const auto three = s.at("three-kernel", "runtime_ms");
  const auto one = s.at("one-kernel", "runtime_ms");
  if (dgl && three && one) {
    md += "Measured one-kernel speedup: " + ratio_x(*dgl, *one, 1) +
          " over DGL, " + ratio_x(*three, *one, 1) +
          " over three-kernel (paper: 7.5x / 4.6x).\n\n";
  }
  md += "Shape: fusion removes launches, framework overhead, the "
        "materialized E×F messages (memory usage + traffic), and wins; the "
        "fused kernel has by far the highest SM utilization. Our fused "
        "kernel's advantage overshoots (≈2x) because the replica pipelines "
        "are leaner than production DGL.\n\n";
}

void table5(std::string& md, const Report& rep, const BenchResult& b) {
  md += "'-' mirrors the paper's support matrix (GNNAdvisor: GCN/GIN only, "
        "crashes on the four largest graphs).\n\n";

  per_model(md, b, [&](const std::string& model) {
    std::vector<std::vector<std::string>> rows;
    for (const std::string& ds : datasets_of(b, model)) {
      const auto ms = [&](const std::string& sys) {
        return rep.value("table5", model, ds, sys, "measured_ms");
      };
      std::vector<std::string> cells =
          row(ds, {"dgl", "gnnadvisor", "featgraph", "tlpgnn"}, fixed3, ms);
      std::optional<double> best;
      for (const std::string sys : {"dgl", "gnnadvisor", "featgraph"}) {
        const auto v = ms(sys);
        if (v && (!best || *v < *best)) best = v;
      }
      const auto tlpgnn = ms("tlpgnn");
      cells.push_back(tlpgnn && best ? ratio_x(*best, *tlpgnn, 1)
                                     : std::string("-"));
      rows.push_back(std::move(cells));
    }
    md_table(md, {"Data", "DGL", "GNNA.", "FeatG.", "TLPGNN", "Speedup"},
             rows);
  });

  md += "Average TLPGNN speedup (geomean over all runs):\n\n";
  std::vector<std::vector<std::string>> avg;
  const std::vector<std::pair<std::string, std::string>> baselines{
      {"dgl", "5.6x"}, {"gnnadvisor", "7.7x"}, {"featgraph", "3.3x"}};
  for (const auto& [sys, paper] : baselines) {
    avg.push_back({"vs " + sys, paper,
                   cell(rep.value("table5", "summary", "", sys,
                                  "geomean_speedup"),
                        times2)});
  }
  md_table(md, {"", "paper (arithmetic)", "measured (geomean)"}, avg);

  md += "Shape: TLPGNN wins on average against all three; DGL is uniformly "
        "slow on small graphs (launch + framework overhead); FeatGraph is "
        "the closest competitor, exactly as in the paper (it also beat DGL "
        "in most of the paper's cells). Honest deviations: (a) FeatGraph's "
        "margin to TLPGNN is narrower than the paper's — its TVM penalty "
        "(1-warp blocks + 8-lane tiles) costs less in our machine model "
        "than on silicon; (b) on the near-regular molecular graphs (DD, OH) "
        "and a few Sage cells FeatGraph's 4-vertices-per-warp mapping "
        "genuinely wins, where the paper still has TLPGNN ahead ~1.5x; the "
        "paper's OA row, where DGL beats TLPGNN, reproduces in spirit as "
        "our weakest GCN/GIN rows.\n\n";
}

void fig8(std::string& md, const Report& rep, const BenchResult& b) {
  md_table(md, {"Data", "GCN atomic", "GIN atomic", "TLPGNN atomic"},
           dataset_rows(rep, b, "",
                        {"gnnadvisor-gcn", "gnnadvisor-gin", "tlpgnn"},
                        "bytes_atomic", human_bytes));
  md += "Shape: atomic-write traffic grows with edge count across the seven "
        "supported datasets (paper: MBs to 100s of MBs at full scale); "
        "TLPGNN's column is exactly zero.\n\n";
}

void fig9(std::string& md, const Report& rep, const BenchResult& b) {
  const std::vector<std::string> systems{"featgraph", "tlpgnn"};
  auto rows = dataset_rows(rep, b, "", systems, "achieved_occupancy", pct);
  rows.push_back(row("**Average**", systems, pct, [&](const std::string& v) {
    return rep.value("fig9", "summary", "", v, "mean_achieved_occupancy");
  }));
  md_table(md, {"Data", "FeatGraph", "TLPGNN"}, rows);
  md += "Paper averages: FeatGraph 41.2%, TLPGNN 68.2%.\n\n";
  md += "Shape: TLPGNN above FeatGraph on every dataset (mechanism: "
        "FeatGraph's 1-warp blocks cap resident warps at the 32-block SM "
        "slot limit). Absolute values are lower because small replicas "
        "cannot fill 5120 warp slots and the slot model idles during "
        "dispatch.\n\n";
}

void fig10(std::string& md, const Report& rep, const BenchResult& b) {
  md += "Speedup over the edge-centric baseline; each column adds one "
        "technique.\n\n";
  per_model(md, b, [&](const std::string& model) {
    std::vector<std::string> stages{"tlp", "+hybrid", "+cache"};
    std::vector<std::string> header{"Data", "TLP", "+Hybrid", "+Cache"};
    if (model == "GAT") {
      stages.push_back("+fusion");
      header.push_back("+Fusion");
    }
    auto rows = dataset_rows(rep, b, model, stages, "speedup", times2);
    rows.push_back(row("**geomean**", stages, times2,
                       [&](const std::string& st) {
                         return rep.value("fig10", model, "", st,
                                          "geomean_speedup");
                       }));
    md_table(md, header, rows);
  });
  md += "Paper cumulative averages: GCN 12.9x, GIN 12.1x, Sage 11.3x, GAT "
        "8.6x over the edge-centric baseline.\n\n";
  md += "Shape: every stage contributes; register caching helps most on "
        "high-degree graphs, matching the paper's observation; fusion is "
        "the dominant GAT technique. Honest deviation: the +Hybrid stage is "
        "nearly flat here, because at replica scale the static baseline "
        "already degenerates to ~1 vertex per warp (V ≈ number of warps), "
        "leaving no imbalance for dynamic assignment to fix; at larger "
        "`--max-edges` the stage turns positive but stays far from the "
        "paper's ~2x.\n\n";
}

void fig11(std::string& md, const Report& rep, const BenchResult& b) {
  md += "Speedup over a single block (512 threads/block), four largest "
        "replicas (strong-scaling replicas keep a 50K-vertex population; "
        "see DESIGN.md).\n\n";
  const std::vector<int> blocks{1, 2, 4, 8, 16, 32, 64, 128};
  per_model(md, b, [&](const std::string& model) {
    std::vector<std::string> header{"Data"};
    for (const int n : blocks) header.push_back(std::to_string(n));
    md_table(md, header,
             dataset_rows(rep, b, model, swept("blocks=", blocks), "speedup",
                          times1));
  });
  md += "Paper averages at 128 blocks: GCN 67.5x, GIN 62.5x, Sage 67.2x, "
        "GAT 45.3x.\n\n";
  md += "Shape: near-linear scaling at low block counts that saturates "
        "toward 128 blocks; GAT scales slightly worse than the others, as "
        "in the paper. The ceiling is lower because the replicas carry ~25x "
        "fewer vertices than the real graphs, so the tail wave and "
        "bandwidth floor arrive earlier.\n\n";
}

void fig12(std::string& md, const Report& rep, const BenchResult& b) {
  md += "Runtime normalized to feature size 16, four largest replicas.\n\n";
  const std::vector<int> sizes{16, 32, 64, 128, 256, 512};
  per_model(md, b, [&](const std::string& model) {
    std::vector<std::string> header{"Data"};
    for (const int f : sizes) header.push_back(std::to_string(f));
    md_table(md, header,
             dataset_rows(rep, b, model, swept("f=", sizes),
                          "normalized_runtime", times1));
  });
  md += "Paper at F=512 (32x the data of F=16): GCN 41.6x, GIN 40.4x, Sage "
        "36.7x, GAT 27.3x slower — i.e. roughly linear; F=16 runs ~1.4x "
        "faster than F=32 despite half the warp being idle.\n\n";
  md += "Shape: runtime grows sub-linearly at small F (the paper's \"half "
        "the warp idle yet barely slower\" observation) and roughly "
        "linearly beyond F=64. Deviation: the densest replicas stay flatter "
        "because at replica scale their per-edge scalar bookkeeping, which "
        "is F-independent, still dominates at small F.\n\n";
}

void tuning(std::string& md, const Report& rep, const BenchResult& b) {
  md += "Design-choice sweeps beyond the paper's figures (times in ms).\n\n";

  md += "**(a) warps per block** — the §5 balance-vs-dispatch knob:\n\n";
  md_table(md, {"Data", "1", "2", "4", "8", "16", "32"},
           dataset_rows(rep, b, "warps_per_block",
                        swept("wpb=", {1, 2, 4, 8, 16, 32}), "gpu_time_ms",
                        fixed3));

  md += "**(b) software-pool grab size** (Algorithm 1's `step`):\n\n";
  md_table(md, {"Data", "1", "4", "16", "64", "256"},
           dataset_rows(rep, b, "pool_step",
                        swept("step=", {1, 4, 16, 64, 256}), "gpu_time_ms",
                        fixed3));

  md += "**(c) machine sweep** — the same TLPGNN kernel across GPU specs "
        "(F=256 to reach the bandwidth-bound regime):\n\n";
  md_table(md, {"Data", "V100", "half-bandwidth", "A100-like"},
           dataset_rows(rep, b, "machine",
                        {"v100", "half-bandwidth", "a100-like"},
                        "gpu_time_ms", fixed3));
  md += "Shape: large 32-warp blocks pay an imbalance penalty on the sparse "
        "replicas (the paper's \"more warps per block, more imbalance\" "
        "claim); fine pool grabs win on dense replicas, coarse grabs on "
        "sparse ones; the F=256 runs are bandwidth-bound on OA "
        "(half-bandwidth hurts, A100-like helps) and latency-bound "
        "(machine-insensitive) on the small dense replicas.\n\n";
}

/// "N responses served in both runs, M mismatched" from a bit-identity
/// record.
std::string bit_identity(const Slice& s, const std::string& variant) {
  return cell(s.at(variant, "served_in_both"), fixed0) +
         " responses served in both runs, " +
         cell(s.at(variant, "mismatched"), fixed0) + " mismatched";
}

void serve(std::string& md, const Report& rep, const BenchResult&) {
  const std::vector<std::string> runs{"fault_free", "storm"};
  const std::vector<std::string> outcomes{"ok",       "retried", "degraded",
                                          "rejected", "failed",  "unaccounted"};
  const Slice s{rep, "serve", "serving", "PD"};
  double requests = 0.0;
  for (const std::string& o : outcomes)
    requests += s.at("fault_free", o).value_or(0.0);
  md += "The same " + fixed(requests, 0) +
        " seeded requests (PD replica, GCN) replayed twice: fault-free, and "
        "under a storm of injected allocation faults (2-deep bursts, then "
        "4-deep bursts, then recovery).\n\n";
  std::vector<std::vector<std::string>> rows;
  for (const std::string& o : outcomes)
    rows.push_back(row(o, runs, fixed0, s.metric(o)));
  rows.push_back(row("p50 (ms)", runs, fixed3, s.metric("p50_ms")));
  rows.push_back(row("p99 (ms)", runs, fixed3, s.metric("p99_ms")));
  md_table(md, {"Outcome", "fault-free", "storm"}, rows);
  md += "Bit-identity: " +
        bit_identity(s, "storm_vs_fault_free") + ".\n\n";
  md += "Shape: the fault-free run serves every request on its first direct "
        "attempt; the storm exercises both the retry and the partitioned-"
        "fallback ladders, keeps every outcome accounted for and hard "
        "failures under 5%, and stretches the tail, not the median. A storm "
        "may change which requests are served, never what a served request "
        "receives.\n\n";
}

void serve_cache(std::string& md, const Report& rep, const BenchResult& b) {
  md += "Pinned-cache size swept for the presample and degree policies over "
        "the same seeded traffic; `none` pins nothing and pays the full miss "
        "cost.\n\n";
  std::vector<std::vector<std::string>> rows;
  for (const Record& r : b.records) {
    if (r.section != "serve_cache" || !r.get("hit_ratio")) continue;
    rows.push_back({r.variant, cell(r.get("pinned_rows"), fixed0),
                    cell(r.get("hit_ratio"), fixed3),
                    cell(r.get("gather_ms"), fixed4),
                    cell(r.get("p50_ms"), fixed3),
                    cell(r.get("p99_ms"), fixed3),
                    cell(r.get("throughput_rps"), fixed1)});
  }
  md_table(md,
           {"variant", "pinned", "hit ratio", "gather ms", "p50 ms", "p99 ms",
            "req/s"},
           rows);
  md += "Bit-identity against the uncached reference: " +
        bit_identity({rep, "serve_cache", "serve_cache", "PD"},
                     "all_vs_uncached") +
        ".\n\n";
  md += "Shape: presample out-hits degree at every budget; as the cache "
        "grows, hit ratio rises, gather time falls and p99 never rises; the "
        "cache changes accounting, never output bytes.\n\n";
}

struct Section {
  const char* bench;
  const char* heading;
  void (*body)(std::string& md, const Report& rep, const BenchResult& b);
};

/// Every bench section, in suite (= EXPERIMENTS.md) order.
const Section kSections[] = {
    {"table1", "Table 1 — atomic operations", table1},
    {"table2", "Table 2 — coalesced access", table2},
    {"table3", "Table 3 — kernel launches", table3},
    {"table5", "Table 5 — main comparison", table5},
    {"fig8", "Figure 8 — GNNAdvisor atomic writes", fig8},
    {"fig9", "Figure 9 — achieved occupancy", fig9},
    {"fig10", "Figure 10 — technique ablation", fig10},
    {"fig11", "Figure 11 — thread-count scaling", fig11},
    {"fig12", "Figure 12 — feature-size scaling", fig12},
    {"tuning", "Extension — tuning ablations", tuning},
    {"serve", "Extension — serving SLO under a fault storm", serve},
    {"serve_cache", "Extension — serving feature-cache sweep", serve_cache},
};

}  // namespace

std::string render_section(const Report& rep, const std::string& bench) {
  const auto it =
      std::find_if(std::begin(kSections), std::end(kSections),
                   [&](const Section& s) { return bench == s.bench; });
  if (it == std::end(kSections)) return "";
  std::string md = std::string("## ") + it->heading + " (`tlpbench --only " +
                   bench + "`)\n\n";
  const BenchResult* b = rep.find_bench(bench);
  if (b == nullptr) {
    md += "*Not present in this report (run `tools/tlpbench` without "
          "`--only`, or rerun with this bench included).*\n\n";
    return md;
  }
  md += config_line(*b) + "\n\n";
  it->body(md, rep, *b);
  return md;
}

std::string render_experiments_md(const Report& rep,
                                  const std::vector<ShapeOutcome>& shapes) {
  std::string md;
  md += "# EXPERIMENTS — paper vs. measured\n\n";
  md += "> **Generated file — do not edit.** Produced by "
        "`tools/tlpbench --render-md` from the results snapshot in "
        "`bench/baseline.json`; CI fails when this file drifts from the "
        "generator output. To refresh after a model change: "
        "`./build/tools/tlpbench --update-baseline && "
        "./build/tools/tlpbench --render-md EXPERIMENTS.md` "
        "(see DESIGN.md §9).\n\n";
  md += "Reproduction target: the *shape* of each result — which system "
        "wins, by roughly what factor, and which mechanism the profile "
        "attributes it to — not absolute milliseconds (the substrate is a "
        "calibrated simulator, not the authors' V100; see DESIGN.md §1/§4). "
        "Default runs use scaled-down dataset replicas on a proportionally "
        "scaled-down GPU; every number below regenerates with "
        "`tools/tlpbench` or the section's `tlpbench --only` command "
        "(`--full` switches to paper-scale replicas). A `tlpbench` run "
        "prints the same sections for the benches it ran.\n\n";

  // --- shape-assertion summary ----------------------------------------------
  md += "## Shape summary\n\n";
  if (shapes.empty()) {
    md += "*No baseline assertions evaluated.*\n\n";
  } else {
    int passed = 0;
    std::vector<std::vector<std::string>> rows;
    for (const ShapeOutcome& s : shapes) {
      passed += s.passed ? 1 : 0;
      rows.push_back({s.passed ? "✓" : "**✗**", "`" + s.id + "`",
                      s.note.empty() ? s.detail : s.note});
    }
    md_table(md, {"", "assertion", "claim"}, rows);
    md += fixed(passed, 0) + "/" + fixed(shapes.size(), 0) +
          " shape assertions hold (see `bench/baseline.json` for the "
          "machine-readable form; `tools/tlpbench` re-evaluates them on "
          "every run).\n\n";
  }

  for (const Section& s : kSections) md += render_section(rep, s.bench);

  md += "## §3 micro mechanisms (`bench/micro_sim`)\n\n";
  md += "google-benchmark suite over the simulator substrate itself: "
        "coalesced vs scattered loads (4 vs ~30 sectors/request), atomic "
        "conflict serialization cost vs lane spread, cache hit/thrash "
        "regimes, end-to-end simulated-kernel throughput, generator and "
        "CSR-reverse throughput. Not part of the tlpbench suite — it "
        "measures host wall-clock, which is machine-dependent; use "
        "`--benchmark_format=json` for machine-readable output.\n\n";

  md += "---\n\n";
  md += "*Provenance: schema `" + rep.schema + "` · seed " +
        fixed(static_cast<double>(rep.seed), 0) + " · results generated at "
        "git `" + rep.git + "` · rendered by `tools/tlpbench --render-md`.*\n";
  return md;
}

}  // namespace tlp::report
