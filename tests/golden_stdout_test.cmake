# Runs one bench or example program and compares its stdout, byte for
# byte, with its golden file. On a mismatch the program's output is kept
# at ACTUAL and a unified diff against the golden is printed.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P tests/golden_stdout_test.cmake
#
# A change that moves a bench's output on purpose copies ACTUAL over the
# golden and says why in CHANGES.md.

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${PROGRAM}"
                OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}:\n${stderr}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}; "
                      "its output is in ${ACTUAL}")
endif()
