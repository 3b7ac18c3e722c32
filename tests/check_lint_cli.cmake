# tlplint command-line contract: an unknown flag, an unknown --systems name or
# a --baseline file that is not a tlplint JSON report is a usage error (exit
# 2), a flag value out of range is a runtime error (exit 1); each prints a
# diagnostic naming the flag and neither aborts nor runs the lint matrix.
# Invoked by ctest as
#   cmake -DTLPLINT=... -P check_lint_cli.cmake

function(expect_reject rc_want flag_re)
  execute_process(
    COMMAND "${TLPLINT}" ${ARGN}
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_VARIABLE out)
  if(NOT rc STREQUAL "${rc_want}")
    message(FATAL_ERROR "tlplint ${ARGN}: expected exit ${rc_want}, got ${rc}")
  endif()
  if(NOT err MATCHES "^error: .*${flag_re}")
    message(FATAL_ERROR
            "tlplint ${ARGN}: diagnostic must name ${flag_re}, got: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "rejected tlplint ${ARGN} printed a report: ${out}")
  endif()
endfunction()

# Case 1: an unknown flag is rejected before any system runs.
expect_reject(2 "unknown flag --bogus-flag" --bogus-flag)
# Case 2: a --systems name outside lint_system_names(); the diagnostic lists
# the valid set.
expect_reject(2 "--systems.*bogus.*valid: .*tlpgnn" --systems bogus)
# Case 3: an out-of-range --max-trace-mb is a CheckError, reported and
# mapped to exit 1 rather than an abort.
expect_reject(1 "--max-trace-mb" --max-trace-mb 0)
# Case 4: a --baseline file that is not JSON; the diagnostic names the file
# and the byte offset of the parse error.
set(bad_baseline "${CMAKE_CURRENT_BINARY_DIR}/lint_cli_bad_baseline.json")
file(WRITE "${bad_baseline}" "TLP-COAL-002|Edge|gather|feat\n")
expect_reject(2 "--baseline.*lint_cli_bad_baseline.json.*at byte 0"
              --systems push --baseline "${bad_baseline}")
# Case 5: valid JSON without a `diagnostics` array is rejected the same way.
file(WRITE "${bad_baseline}" "{\"keys\": []}\n")
expect_reject(2 "--baseline.*lint_cli_bad_baseline.json.*diagnostics"
              --systems push --baseline "${bad_baseline}")
