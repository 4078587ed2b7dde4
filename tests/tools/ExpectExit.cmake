# Runs a command and fails unless it exits with an expected code.
#   cmake "-DCMD=<program>|<arg>|..." -DEXPECT=<code> -P ExpectExit.cmake
# Arguments are '|'-separated so the list survives add_test intact.
string(REPLACE "|" ";" Cmd "${CMD}")
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc)
if(NOT Rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${Rc}, expected ${EXPECT}: ${Cmd}")
endif()
