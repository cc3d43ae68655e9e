# Passes only when EXE exits 0 and its stdout contains the line EXPECT
# (ctest's PASS_REGULAR_EXPRESSION alone would ignore the exit code).
#   cmake -DEXE=<program> -DEXPECT=<text> -P expect_output.cmake
execute_process(COMMAND ${EXE} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
string(FIND "${out}" "${EXPECT}\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} did not print: ${EXPECT}")
endif()
