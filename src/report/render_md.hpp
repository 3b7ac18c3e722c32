// Renders tlpbench records as Markdown (DESIGN.md §9): one section per bench,
// shown on stdout by a `tlpbench` run, and EXPERIMENTS.md, which strings the
// sections together.
//
// The output is *derived*: paper-side numbers and deviation commentary are
// fixed text owned by this renderer (each paper number lives here once),
// every measured number is interpolated from the report, and a provenance
// footer records where the data came from. `tlpbench --render-md` writes the
// document; CI fails when the committed file drifts from the renderer
// output.
#pragma once

#include <string>
#include <vector>

#include "report/report.hpp"
#include "report/shapes.hpp"

namespace tlp::report {

/// The section of suite bench `bench` (a `tlpbench --list` id): heading,
/// config line, tables and commentary, or a placeholder note when the report
/// lacks the bench. Empty for an id with no section.
std::string render_section(const Report& report, const std::string& bench);

/// Full EXPERIMENTS.md content for `report`: preamble, the shape-assertion
/// outcomes, every bench section in suite order, footer. Deterministic:
/// same report + outcomes, same bytes.
std::string render_experiments_md(const Report& report,
                                  const std::vector<ShapeOutcome>& shapes);

}  // namespace tlp::report
