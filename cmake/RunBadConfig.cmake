# Bad-configuration test driver, invoked via `cmake -P`:
#
#   cmake -DBINARY=<exe> -DKNOB=<OASIS_VAR=value> -P cmake/RunBadConfig.cmake
#   cmake -DBINARY=<exe> -DARGS=<arg|arg|...> -P cmake/RunBadConfig.cmake
#
# Runs BINARY with every OASIS_* knob scrubbed except KNOB, which holds a
# malformed value, and expects what RunMain promises for it: exit status 2,
# exactly one "[config] ..." line on stderr, and nothing on stdout. With
# ARGS instead (command-line arguments, "|"-separated, one of them a
# malformed number) the one stderr line is the binary's "usage: ..." line.

if(NOT DEFINED BINARY)
  message(FATAL_ERROR "RunBadConfig.cmake: -DBINARY=... is required")
endif()
if(DEFINED ARGS)
  string(REPLACE "|" ";" args "${ARGS}")
  set(expected_line "^usage: [^\n]*\n$")
  set(what "${ARGS}")
elseif(DEFINED KNOB)
  set(args "")
  set(expected_line "^\\[config\\] [^\n]*\n$")
  set(what "${KNOB}")
else()
  message(FATAL_ERROR "RunBadConfig.cmake: -DKNOB=... or -DARGS=... is required")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          --unset=OASIS_TRACE --unset=OASIS_METRICS --unset=OASIS_TRACE_CAPACITY
          --unset=OASIS_LOG_LEVEL --unset=OASIS_SEED --unset=OASIS_PROF
          --unset=OASIS_CHECK --unset=OASIS_JOBS --unset=OASIS_DC_RACKS
          --unset=OASIS_POLICY --unset=OASIS_FLEET --unset=OASIS_BENCH_RUNS
          --unset=OASIS_CSV_DIR --unset=OASIS_BENCH_JSON --unset=OASIS_BENCH_GIT_SHA
          ${KNOB} "${BINARY}" ${args}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT status EQUAL 2)
  message(FATAL_ERROR "${what} ${BINARY}: exit status ${status}, expected 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${what} ${BINARY}: wrote to stdout:\n${out}")
endif()
if(NOT err MATCHES "${expected_line}")
  message(FATAL_ERROR "${what} ${BINARY}: stderr is not one expected line:\n${err}")
endif()
message(STATUS "${what}: ${err}")
