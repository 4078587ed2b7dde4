# Runs a command and fails unless it exits with an expected code.
#   cmake "-DCMD=<program>|<arg>|..." -DEXPECT=<code> [-DMATCH=<regex>]
#         -P ExpectExit.cmake
# Arguments are '|'-separated so the list survives add_test intact. With
# MATCH, the command's combined stdout and stderr must also match <regex>.
string(REPLACE "|" ";" Cmd "${CMD}")
if(DEFINED MATCH)
  execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                  ERROR_VARIABLE Out)
else()
  execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc)
endif()
if(NOT Rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${Rc}, expected ${EXPECT}: ${Cmd}\n${Out}")
endif()
if(DEFINED MATCH AND NOT Out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match ${MATCH}: ${Cmd}\n${Out}")
endif()
