# Bad-configuration test driver, invoked via `cmake -P`:
#
#   cmake -DBINARY=<exe> -DKNOB=<OASIS_VAR=value> -P cmake/RunBadConfig.cmake
#
# Runs BINARY with every OASIS_* knob scrubbed except KNOB, which holds a
# malformed value, and expects what RunMain promises for it: exit status 2,
# exactly one "[config] ..." line on stderr, and nothing on stdout.

foreach(required BINARY KNOB)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "RunBadConfig.cmake: -D${required}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          --unset=OASIS_TRACE --unset=OASIS_METRICS --unset=OASIS_TRACE_CAPACITY
          --unset=OASIS_LOG_LEVEL --unset=OASIS_SEED --unset=OASIS_PROF
          --unset=OASIS_CHECK --unset=OASIS_JOBS --unset=OASIS_DC_RACKS
          --unset=OASIS_POLICY --unset=OASIS_FLEET --unset=OASIS_BENCH_RUNS
          --unset=OASIS_CSV_DIR --unset=OASIS_BENCH_JSON --unset=OASIS_BENCH_GIT_SHA
          "${KNOB}" "${BINARY}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT status EQUAL 2)
  message(FATAL_ERROR "${KNOB} ${BINARY}: exit status ${status}, expected 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${KNOB} ${BINARY}: wrote to stdout:\n${out}")
endif()
if(NOT err MATCHES "^\\[config\\] [^\n]*\n$")
  message(FATAL_ERROR "${KNOB} ${BINARY}: stderr is not one [config] line:\n${err}")
endif()
message(STATUS "${KNOB}: ${err}")
