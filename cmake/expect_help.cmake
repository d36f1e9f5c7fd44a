# ctest helper: `cmake -DBIN=<binary> -P expect_help.cmake` fails unless
# `<binary> --help` exits 0 with its usage synopsis on stdout.
execute_process(COMMAND ${BIN} --help
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "usage")
  message(FATAL_ERROR "${BIN} --help exited ${rc}\nstdout:\n${out}\n"
                      "stderr:\n${err}")
endif()
