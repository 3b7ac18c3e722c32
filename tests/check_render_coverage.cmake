# Renderer coverage for tlpbench: every registered bench has an
# EXPERIMENTS.md section, and a run's stdout shows exactly that section.
#   1. Each `tlpbench --list` id has a `## ... (`tlpbench --only <id>`)`
#      heading in `tlpbench --render-md` output.
#   2. `tlpbench --only table2` prints, byte for byte, the table2 section that
#      `tlpbench --render-md --from` renders from the records it wrote.
# Invoked by ctest as
#   cmake -DTLPBENCH=... -DBASELINE=... -P check_render_coverage.cmake

execute_process(
  COMMAND "${TLPBENCH}" --list
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlpbench --list: expected exit 0, got ${rc}")
endif()
string(REGEX MATCHALL "\n  [a-z0-9_]+ " id_lines "${listing}")
if(NOT id_lines)
  message(FATAL_ERROR "tlpbench --list printed no bench ids: ${listing}")
endif()

execute_process(
  COMMAND "${TLPBENCH}" --render-md --baseline "${BASELINE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE doc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlpbench --render-md: expected exit 0, got ${rc}")
endif()
foreach(line IN LISTS id_lines)
  string(STRIP "${line}" id)
  string(FIND "${doc}" "(`tlpbench --only ${id}`)\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "bench ${id} has no `tlpbench --only ${id}` section "
                        "heading in the rendered EXPERIMENTS.md")
  endif()
endforeach()

# Returns in `out` the Markdown section of bench `id` within `text`: from its
# `## ` heading line up to (not including) the next `## ` heading.
function(section_of text id out)
  string(FIND "${text}" "(`tlpbench --only ${id}`)\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no section for ${id} in: ${text}")
  endif()
  string(SUBSTRING "${text}" 0 ${at} head)
  string(FIND "${head}" "## " start REVERSE)
  string(SUBSTRING "${text}" ${start} -1 rest)
  string(SUBSTRING "${rest}" 3 -1 after_heading)
  string(FIND "${after_heading}" "\n## " end)
  if(NOT end EQUAL -1)
    math(EXPR end "${end} + 4")
    string(SUBSTRING "${rest}" 0 ${end} rest)
  endif()
  set(${out} "${rest}" PARENT_SCOPE)
endfunction()

set(run_json "${CMAKE_CURRENT_BINARY_DIR}/render_coverage.json")
execute_process(
  COMMAND "${TLPBENCH}" --only table2 --max-edges 20000 --no-assert
          --out "${run_json}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlpbench --only table2: expected exit 0, got ${rc}: "
                      "${run_stderr}")
endif()
execute_process(
  COMMAND "${TLPBENCH}" --render-md --from "${run_json}"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE rendered)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlpbench --render-md --from: expected exit 0, got ${rc}")
endif()
section_of("${rendered}" table2 section)
string(FIND "${run_stdout}" "${section}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "tlpbench --only table2 stdout does not contain the "
                      "rendered table2 section.\n--- section ---\n${section}"
                      "\n--- stdout ---\n${run_stdout}")
endif()
file(REMOVE "${run_json}")
