# The CLI smoke test of one bench or example (see qosrm_add_cli_smoke in
# the top-level CMakeLists.txt):
#
#   cmake -DBIN=<binary> -DFLAGS=<flag,flag,...> -P cli_smoke.cmake
#
# --help must exit 0 and name every flag of FLAGS; --no-such-flag must exit
# 1 naming it.
execute_process(COMMAND ${BIN} --help RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --help exited ${rc}")
endif()
string(REPLACE "," ";" flags "${FLAGS}")
foreach(flag IN LISTS flags)
  if(NOT out MATCHES "\n  --${flag}[=\n]")
    message(FATAL_ERROR "${BIN} --help does not name --${flag}:\n${out}")
  endif()
endforeach()

execute_process(COMMAND ${BIN} --no-such-flag RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "unknown flag --no-such-flag")
  message(FATAL_ERROR "${BIN} --no-such-flag exited ${rc}: ${err}")
endif()
