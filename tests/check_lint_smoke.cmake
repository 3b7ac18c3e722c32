# End-to-end tlpsan smoke: tlplint runs the full system x dataset matrix plus
# a served session against the committed baseline (any new unsuppressed
# finding or truncated trace fails), and both reports it writes must parse
# and agree: one SARIF result per JSON diagnostic, with the same rule id in
# the same order. Invoked by ctest as
#   cmake -DTLPLINT=... -DBASELINE=... -P check_lint_smoke.cmake

set(json_out "${CMAKE_CURRENT_BINARY_DIR}/lint_smoke.json")
set(sarif_out "${CMAKE_CURRENT_BINARY_DIR}/lint_smoke.sarif")
file(REMOVE "${json_out}" "${sarif_out}")
execute_process(
  COMMAND "${TLPLINT}" --serve --strict --baseline "${BASELINE}"
          --sarif "${sarif_out}" --json "${json_out}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlplint --serve --strict: expected exit 0, got ${rc}\n"
                      "${out}\n${err}")
endif()

file(READ "${json_out}" report)
file(READ "${sarif_out}" sarif)
string(JSON ndiag LENGTH "${report}" diagnostics)
string(JSON nres LENGTH "${sarif}" runs 0 results)
if(NOT ndiag EQUAL nres)
  message(FATAL_ERROR "lint_smoke.json has ${ndiag} diagnostics but "
                      "lint_smoke.sarif has ${nres} results")
endif()
if(ndiag EQUAL 0)
  message(FATAL_ERROR "lint_smoke.json has no diagnostics; the matrix "
                      "always reports the paper-documented findings")
endif()
math(EXPR last "${ndiag} - 1")
foreach(i RANGE ${last})
  string(JSON rule GET "${report}" diagnostics ${i} rule)
  string(JSON rule_id GET "${sarif}" runs 0 results ${i} ruleId)
  if(NOT rule STREQUAL rule_id)
    message(FATAL_ERROR "diagnostic ${i}: JSON rule ${rule} but SARIF "
                        "ruleId ${rule_id}")
  endif()
endforeach()
