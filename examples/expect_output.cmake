# Passes only when EXE, run with ARGS, exits with EXIT (default 0) and its
# output (stdout, then stderr) contains the line EXPECT and every line of
# EXPECT_FILE (ctest's PASS_REGULAR_EXPRESSION alone would ignore the exit
# code).
#   cmake -DEXE=<program> [-DARGS=<arguments>] [-DEXIT=<code>]
#         [-DEXPECT=<text>] [-DEXPECT_FILE=<file>] -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()
execute_process(COMMAND ${EXE} ${args} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(out "${out}${err}")
message("${out}")
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${EXE} exited with ${rc}, expected ${EXIT}")
endif()
set(lines)
if(DEFINED EXPECT)
  list(APPEND lines "${EXPECT}")
endif()
if(DEFINED EXPECT_FILE)
  # file(STRINGS) escapes a ';' inside a line; appending the list quoted
  # keeps the escapes, so such a line stays one element.
  file(STRINGS "${EXPECT_FILE}" file_lines)
  list(APPEND lines "${file_lines}")
endif()
foreach(line IN LISTS lines)
  string(FIND "${out}" "${line}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} did not print: ${line}")
  endif()
endforeach()
