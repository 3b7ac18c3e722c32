# CLI regression check: a flag a tool does not know, or an enum-valued flag
# given a value outside its set, must exit with code 2 and a diagnostic
# naming the flag — never fall through to a default or die with a generic
# CheckError (exit 1). Invoked by ctest as
#   cmake -DTLPBENCH=... -DTLPGNN_CLI=... -DTLPSERVE=... -DTLPFUZZ=...
#         -DBASELINE=... -P check_cli_enums.cmake

# Case 1: tlpbench rejects a flag it no longer has (the removed
# --timing-tier) before any bench runs.
execute_process(
  COMMAND "${TLPBENCH}" run --only table1 --max-edges 5000
          --timing-tier analytical
          --out "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_unused.json"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc1
  ERROR_VARIABLE err1
  OUTPUT_QUIET)
if(NOT rc1 EQUAL 2)
  message(FATAL_ERROR "tlpbench --timing-tier: expected exit 2, got ${rc1}")
endif()
if(NOT err1 MATCHES "unknown flag --timing-tier")
  message(FATAL_ERROR
          "tlpbench --timing-tier: diagnostic must name the flag, got: ${err1}")
endif()
# The rejected run must not have left a report behind.
if(EXISTS "${CMAKE_CURRENT_BINARY_DIR}/cli_enums_unused.json")
  message(FATAL_ERROR "rejected tlpbench run wrote a report; it must not")
endif()

# Case 2: tlpgnn_cli, same contract on the other front end. The rejected run
# must not get as far as printing a profile.
execute_process(
  COMMAND "${TLPGNN_CLI}" run --max-edges 2000 --timing-tier analytical
  RESULT_VARIABLE rc2
  ERROR_VARIABLE err2
  OUTPUT_VARIABLE out2)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR "tlpgnn_cli --timing-tier: expected exit 2, got ${rc2}")
endif()
if(NOT err2 MATCHES "unknown flag --timing-tier")
  message(FATAL_ERROR
          "tlpgnn_cli --timing-tier: diagnostic must name the flag, got: "
          "${err2}")
endif()
if(NOT out2 STREQUAL "")
  message(FATAL_ERROR
          "rejected tlpgnn_cli run printed output; it must not: ${out2}")
endif()

# Case 3: tlpserve --cache-policy, the pre-existing enum flag swept into the
# same checked-getter path.
execute_process(
  COMMAND "${TLPSERVE}" --max-edges 2000 --requests 4
          --cache-policy lru
  RESULT_VARIABLE rc3
  ERROR_VARIABLE err3
  OUTPUT_QUIET)
if(NOT rc3 EQUAL 2)
  message(FATAL_ERROR "tlpserve bad --cache-policy: expected exit 2, got ${rc3}")
endif()
if(NOT err3 MATCHES "cache-policy" OR NOT err3 MATCHES "valid:.*presample")
  message(FATAL_ERROR
          "tlpserve bad --cache-policy: diagnostic must name the flag and "
          "the valid set, got: ${err3}")
endif()

# Case 4: tlpgnn_cli --model, read through the same checked getter.
execute_process(
  COMMAND "${TLPGNN_CLI}" run --max-edges 2000 --model gcn2
  RESULT_VARIABLE rc4
  ERROR_VARIABLE err4
  OUTPUT_QUIET)
if(NOT rc4 EQUAL 2)
  message(FATAL_ERROR "tlpgnn_cli bad --model: expected exit 2, got ${rc4}")
endif()
if(NOT err4 MATCHES "--model" OR NOT err4 MATCHES "valid:.*GAT")
  message(FATAL_ERROR
          "tlpgnn_cli bad --model: diagnostic must name the flag and the "
          "valid set, got: ${err4}")
endif()

# Case 5: tlpserve --arrival.
execute_process(
  COMMAND "${TLPSERVE}" --max-edges 2000 --requests 4 --arrival uniform
  RESULT_VARIABLE rc5
  ERROR_VARIABLE err5
  OUTPUT_QUIET)
if(NOT rc5 EQUAL 2)
  message(FATAL_ERROR "tlpserve bad --arrival: expected exit 2, got ${rc5}")
endif()
if(NOT err5 MATCHES "--arrival" OR NOT err5 MATCHES "valid:.*bursty")
  message(FATAL_ERROR
          "tlpserve bad --arrival: diagnostic must name the flag and the "
          "valid set, got: ${err5}")
endif()

# Case 6: tlpfuzz, the last front end to check its flags. A mistyped --iters
# must not fall back to the default campaign.
execute_process(
  COMMAND "${TLPFUZZ}" --iter 1 --time-budget 0.5
  RESULT_VARIABLE rc6
  ERROR_VARIABLE err6
  OUTPUT_VARIABLE out6)
if(NOT rc6 EQUAL 2)
  message(FATAL_ERROR "tlpfuzz --iter: expected exit 2, got ${rc6}")
endif()
if(NOT err6 MATCHES "unknown flag --iter")
  message(FATAL_ERROR
          "tlpfuzz --iter: diagnostic must name the flag, got: ${err6}")
endif()
if(NOT out6 STREQUAL "")
  message(FATAL_ERROR
          "rejected tlpfuzz run printed output; it must not: ${out6}")
endif()
