# ctest bench_reproduce_smoke: cmake -DREPRODUCE=<vlcsa_reproduce> -P reproduce_smoke.cmake
#
# An unknown --artifact must exit 2 and list the artifacts; --artifact=all at
# 2000 samples must exit 0 and print exactly one banner per listed artifact.

execute_process(COMMAND "${REPRODUCE}" --artifact=nope
                RESULT_VARIABLE unknown_exit OUTPUT_QUIET ERROR_VARIABLE listing)
if(NOT unknown_exit EQUAL 2)
  message(FATAL_ERROR "--artifact=nope exited ${unknown_exit}, expected 2")
endif()
string(REGEX MATCHALL "\n  [^ \n]+  [^\n]+" rows "${listing}")
list(LENGTH rows artifact_count)
if(artifact_count EQUAL 0)
  message(FATAL_ERROR "--artifact=nope listed no artifacts:\n${listing}")
endif()

execute_process(COMMAND "${REPRODUCE}" --artifact=all --samples=2000 --threads=2
                RESULT_VARIABLE all_exit OUTPUT_VARIABLE output ERROR_VARIABLE errors)
if(NOT all_exit EQUAL 0)
  message(FATAL_ERROR "--artifact=all exited ${all_exit}:\n${errors}")
endif()
string(REGEX MATCHALL "(^|\n)==== [^\n]+ ====\n" banners "${output}")
list(LENGTH banners banner_count)
if(NOT banner_count EQUAL artifact_count)
  message(FATAL_ERROR "${banner_count} banners for ${artifact_count} artifacts")
endif()
foreach(row IN LISTS rows)
  string(REGEX REPLACE "^\n  [^ ]+  " "" title "${row}")
  string(FIND "${output}" "==== ${title} ====\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no banner for artifact '${title}'")
  endif()
endforeach()
message(STATUS "${artifact_count} artifacts, one banner each")
