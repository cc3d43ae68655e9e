# Passes only when EXE, run with ARGS in DIR (default: the current
# directory), exits with EXIT (default 0) and its output (stdout, then
# stderr) either contains the line EXPECT and every line of EXPECT_FILE, or
# equals the whole of EXACT_FILE (ctest's PASS_REGULAR_EXPRESSION alone
# would ignore the exit code). In exact mode every match of the regular
# expression MASK (e.g. a wall-clock timing) is replaced by '*' before the
# comparison, and a mismatch is written to <EXACT_FILE name>.actual in the
# current directory, not DIR, and shown as a diff.
#   cmake -DEXE=<program> [-DARGS=<arguments>] [-DDIR=<dir>] [-DEXIT=<code>]
#         [-DEXPECT=<text>] [-DEXPECT_FILE=<file>]
#         [-DEXACT_FILE=<file> [-DMASK=<regex>]] -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()
if(NOT DEFINED DIR)
  set(DIR .)
endif()
execute_process(COMMAND ${EXE} ${args} WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(out "${out}${err}")
message("${out}")
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${EXE} exited with ${rc}, expected ${EXIT}")
endif()
if(DEFINED EXACT_FILE)
  if(DEFINED MASK)
    string(REGEX REPLACE "${MASK}" "*" out "${out}")
  endif()
  file(READ "${EXACT_FILE}" want)
  if(NOT out STREQUAL want)
    get_filename_component(name "${EXACT_FILE}" NAME)
    file(WRITE "${name}.actual" "${out}")
    execute_process(COMMAND diff -u "${EXACT_FILE}" "${name}.actual")
    message(FATAL_ERROR "${EXE} output differs from ${EXACT_FILE}")
  endif()
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
