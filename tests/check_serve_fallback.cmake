# tlpserve's --partitions and --fallback-attempts reach the partitioned
# fallback: the CI fault storm with one fallback attempt that starts at 4
# parts must still degrade requests, and spends at most one fallback attempt
# per request that reached the fallback (degraded + failed). With the default
# two attempts the same storm spends more than that. Invoked by ctest as
#   cmake -DTLPSERVE=... -P check_serve_fallback.cmake

set(json_out "${CMAKE_CURRENT_BINARY_DIR}/serve_fallback.json")
file(REMOVE "${json_out}")
execute_process(
  COMMAND "${TLPSERVE}" --storm-at 20 --storm-oom-every 60 --storm-oom-burst 4
          --storm-stop-at 100 --verify --fallback-attempts 1 --partitions 4
          --json "${json_out}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tlpserve storm: expected exit 0, got ${rc}\n"
                      "${out}\n${err}")
endif()

file(READ "${json_out}" report)
string(JSON degraded GET "${report}" slo degraded)
string(JSON failed GET "${report}" slo failed)
string(JSON attempts GET "${report}" slo fallback_attempts)
if(NOT degraded GREATER 0)
  message(FATAL_ERROR "no request degraded: the storm no longer reaches the "
                      "partitioned fallback")
endif()
math(EXPR reached "${degraded} + ${failed}")
if(attempts GREATER reached)
  message(FATAL_ERROR "${attempts} fallback attempts for ${reached} requests "
                      "that reached the fallback: --fallback-attempts 1 "
                      "was not applied")
endif()
