# Byte-for-byte output pin for a paper-table binary.
#
# Runs BIN with the optional ARGS list, fails if it exits non-zero or if its
# stdout differs from the committed reference REF; the actual output is left
# in OUT for diffing. OSIRIS_SAMPLE is cleared so a campaign always runs its
# full plan. Regenerate a reference only for an intentional change to the
# table, as with the golden traces, e.g.
#   ./build/bench/table1_coverage > tests/golden/table1_coverage.txt
#
# Usage: cmake -DBIN=<exe> [-DARGS=<arg;...>] -DREF=<file> -DOUT=<file>
#              -P check_output.cmake

foreach(var BIN REF OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output: -D${var}=... is required")
  endif()
endforeach()

unset(ENV{OSIRIS_SAMPLE})
execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_output: ${BIN} exited with ${rc}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${REF} RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "check_output: output of ${BIN} differs from ${REF}; actual output in ${OUT}")
endif()
