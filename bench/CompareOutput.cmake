# Runs a bench binary and fails unless its standard output equals a
# committed file byte for byte. Used by the `results` ctest label:
#
#   cmake -DBENCH=<binary> "-DARGS=<space-separated arguments>"
#         -DEXPECTED=<committed file> -DACTUAL=<output file>
#         -P CompareOutput.cmake
#
# The output is kept in ACTUAL, so a failure can be inspected with
# `diff EXPECTED ACTUAL`.

separate_arguments(Args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${Args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} failed: ${Status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE Differs)
if(NOT Differs EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} no longer reproduces ${EXPECTED}; "
                      "see: diff ${EXPECTED} ${ACTUAL}")
endif()
