# CLI regression checks for tlpbench's --only front end. A --only selection
# that matches nothing must fail with exit code 2 and a loud diagnostic,
# never write an empty report that would vacuously pass every shape
# assertion; and a bench-specific flag (serve's --requests) must reach the
# selected bench. Invoked by ctest as
#   cmake -DTLPBENCH=... -DBASELINE=... -P check_only_no_match.cmake

# Case 1: a name that is not a bench.
execute_process(
  COMMAND "${TLPBENCH}" run --only no_such_bench
          --out "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc1
  ERROR_VARIABLE err1
  OUTPUT_QUIET)
if(NOT rc1 EQUAL 2)
  message(FATAL_ERROR "unknown --only name: expected exit 2, got ${rc1}")
endif()
if(NOT err1 MATCHES "unknown bench")
  message(FATAL_ERROR "unknown --only name: missing diagnostic, got: ${err1}")
endif()

# Case 2: an empty selection (no names survive CSV parsing).
execute_process(
  COMMAND "${TLPBENCH}" run --only ""
          --out "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json"
          --baseline "${BASELINE}"
  RESULT_VARIABLE rc2
  ERROR_VARIABLE err2
  OUTPUT_QUIET)
if(NOT rc2 EQUAL 2)
  message(FATAL_ERROR "empty --only selection: expected exit 2, got ${rc2}")
endif()
if(NOT err2 MATCHES "matched no benchmarks")
  message(FATAL_ERROR "empty --only selection: missing diagnostic, got: ${err2}")
endif()

# The failed runs must not have left a report behind.
if(EXISTS "${CMAKE_CURRENT_BINARY_DIR}/only_no_match.json")
  message(FATAL_ERROR "zero-match run wrote a report file; it must not")
endif()

# Case 3: bench-specific flags are forwarded to the selected bench. Both
# serve runs must account for exactly the 7 requested requests.
set(forward_json "${CMAKE_CURRENT_BINARY_DIR}/only_forward.json")
execute_process(
  COMMAND "${TLPBENCH}" --only serve --requests 7 --max-edges 20000
          --no-assert --out "${forward_json}"
  RESULT_VARIABLE rc3
  OUTPUT_QUIET
  ERROR_VARIABLE err3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "--only serve --requests 7: expected exit 0, got ${rc3}: ${err3}")
endif()
file(READ "${forward_json}" doc)
string(JSON nrec LENGTH "${doc}" benches 0 records)
math(EXPR last "${nrec} - 1")
set(checked "")
foreach(i RANGE ${last})
  string(JSON variant GET "${doc}" benches 0 records ${i} variant)
  if(NOT variant MATCHES "^(fault_free|storm)$")
    continue()
  endif()
  set(total 0)
  foreach(outcome ok retried degraded rejected failed unaccounted)
    string(JSON n GET "${doc}" benches 0 records ${i} values ${outcome})
    math(EXPR total "${total} + ${n}")
  endforeach()
  if(NOT total EQUAL 7)
    message(FATAL_ERROR "--only serve --requests 7: the ${variant} run "
                        "accounted for ${total} requests, not 7 (flag not "
                        "forwarded)")
  endif()
  list(APPEND checked ${variant})
endforeach()
if(NOT checked STREQUAL "fault_free;storm")
  message(FATAL_ERROR "--only serve --requests 7: expected fault_free and "
                      "storm records, found: ${checked}")
endif()
file(REMOVE "${forward_json}")
