# Byte-for-byte output pin for a binary: a paper table or a trace export.
#
# Runs BIN with the optional ARGS list, fails if it exits non-zero or if its
# stdout differs from the committed reference REF; the actual output is left
# in OUT for diffing. When REF2 and OUT2 are given, the file OUT2 that the
# same run wrote (ARGS names it) must match REF2 too. OSIRIS_SAMPLE is
# cleared so a campaign always runs its full plan. Regenerate a reference
# only for an intentional change to the table, as with the golden traces,
# e.g.
#   ./build/bench/table1_coverage > tests/golden/table1_coverage.txt
#
# Usage: cmake -DBIN=<exe> [-DARGS=<arg;...>] -DREF=<file> -DOUT=<file>
#              [-DREF2=<file> -DOUT2=<file>] -P check_output.cmake

foreach(var BIN REF OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output: -D${var}=... is required")
  endif()
endforeach()

unset(ENV{OSIRIS_SAMPLE})
if(DEFINED OUT2)
  file(REMOVE ${OUT2})  # a file left by an earlier run must not pass for this one's
endif()
execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_output: ${BIN} exited with ${rc}")
endif()

function(compare out ref)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${ref} RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "check_output: output of ${BIN} differs from ${ref}; actual output in ${out}")
  endif()
endfunction()

compare(${OUT} ${REF})
if(DEFINED REF2)
  compare(${OUT2} ${REF2})
endif()
