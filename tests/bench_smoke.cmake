# Runs one bench binary and fails unless it exits 0 and prints something:
#   cmake -DBIN=path/to/bench -DARGS="--flag=value ..." -P bench_smoke.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
if(out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARGS} printed nothing")
endif()
