# Runs a command and fails unless it exits with an expected code and every
# line it prints on stdout is a JSON object.
#   cmake "-DCMD=<program>|<arg>|..." -DEXPECT=<code> -P ExpectJsonLines.cmake
# Arguments are '|'-separated so the list survives add_test intact. Lines
# are cut with string(FIND), not as a CMake list, so a ';' or '[' in the
# output cannot split or merge them.
string(REPLACE "|" ";" Cmd "${CMD}")
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc OUTPUT_VARIABLE Out)
if(NOT Rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${Rc}, expected ${EXPECT}: ${Cmd}\n${Out}")
endif()
if(Out STREQUAL "")
  message(FATAL_ERROR "no output: ${Cmd}")
endif()
set(Rest "${Out}")
while(NOT Rest STREQUAL "")
  string(FIND "${Rest}" "\n" Eol)
  if(Eol EQUAL -1)
    set(Line "${Rest}")
    set(Rest "")
  else()
    string(SUBSTRING "${Rest}" 0 ${Eol} Line)
    math(EXPR Next "${Eol} + 1")
    string(SUBSTRING "${Rest}" ${Next} -1 Rest)
  endif()
  string(JSON Type ERROR_VARIABLE Err TYPE "${Line}")
  if(NOT Type STREQUAL "OBJECT")
    message(FATAL_ERROR "not a JSON object (${Err}): ${Line}\nfrom: ${Cmd}")
  endif()
endwhile()
