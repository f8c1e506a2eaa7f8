# The bench binaries end to end, run by ctest (see CMakeLists.txt):
#
#   MODE=roundtrip  bench_scenarios --emit-schema, then --short figure,
#                   kv-put-50 and signal-loss cells and a bench_loadgen
#                   --short cell, every row validated by
#                   tools/check_bench_jsonl.py against the exported schema.
#   MODE=bad-name   an unknown scheme or structure name, from the flag or
#                   the env knob, exits 2 before any cell runs and leaves
#                   no artifact behind.
#   MODE=reuse      --scenario 'grow-storm-*' --short runs the fixed-HMHT
#                   reference cell, the same spec in every grow-storm-D,
#                   once: the later entries print "not rerun" and write
#                   its rows again under their own names.
#
# cmake -DMODE=... -DBIN_DIR=<binaries> -DSRC_DIR=<repo> -DOUT_DIR=<scratch>
#       -DPYTHON=<python3> -P tests/bench_cli.cmake

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
set(rows ${OUT_DIR}/rows.jsonl)

# run(<expected exit code> <command...>)
function(run expect)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expect}")
    message(FATAL_ERROR "exit ${rc} (expected ${expect}): ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

if(MODE STREQUAL "roundtrip")
  execute_process(COMMAND ${BIN_DIR}/bench_scenarios --emit-schema
                  OUTPUT_FILE ${OUT_DIR}/schema.json RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--emit-schema exited ${rc}")
  endif()
  run(0 ${BIN_DIR}/bench_scenarios --scenario fig2-hml --short
        --threads 2 --smr NR,EpochPOP --duration-ms 40 --json ${rows})
  run(0 ${BIN_DIR}/bench_scenarios --scenario kv-put-50 --short
        --ds HMHT --threads 2 --smr EBR,EpochPOP --json ${rows})
  run(0 ${BIN_DIR}/bench_scenarios --scenario signal-loss --short
        --threads 3 --smr EpochPOP --json ${rows})
  run(0 ${BIN_DIR}/bench_loadgen --short --ds HMHT --smr EBR
        --connections 2 --pipeline 4 --json ${rows})
  run(0 ${PYTHON} ${SRC_DIR}/tools/check_bench_jsonl.py
        --schema ${OUT_DIR}/schema.json ${rows}
        --require-kind scenario --require-kind phase --require-kind mem_sample
        --require-kind net --require-kind conn --summary)
elseif(MODE STREQUAL "bad-name")
  run(2 ${BIN_DIR}/bench_scenarios --scenario fig2-hml --smr EBR,Bogus
        --json ${rows})
  run(2 ${CMAKE_COMMAND} -E env POPSMR_BENCH_DS=HML,Bogus
        ${BIN_DIR}/bench_scenarios --scenario kv-put-50 --short --json ${rows})
  run(2 ${CMAKE_COMMAND} -E env POPSMR_BENCH_SMRS=Bogus
        ${BIN_DIR}/bench_scenarios --scenario signal-loss --short
        --json ${rows})
  if(EXISTS ${rows})
    message(FATAL_ERROR "a rejected run left ${rows} behind")
  endif()
elseif(MODE STREQUAL "reuse")
  execute_process(COMMAND ${BIN_DIR}/bench_scenarios --scenario grow-storm-*
                          --short --threads 2 --smr EpochPOP --json ${rows}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "grow-storm-* exited ${rc}\n${out}\n${err}")
  endif()
  string(REGEX MATCHALL "\\(same cell as grow-storm-1: not rerun\\)"
         reused "${out}")
  list(LENGTH reused n)
  if(NOT n EQUAL 2)
    message(FATAL_ERROR "expected 2 reused HMHT cells, saw ${n}:\n${out}")
  endif()
  # One HMHT scenario row per entry, each the first run's numbers: equal
  # once the entry name and the write-time fields are dropped.
  file(STRINGS ${rows} lines REGEX "\"kind\":\"scenario\".*\"ds\":\"HMHT\"")
  set(names)
  set(first)
  foreach(line IN LISTS lines)
    string(JSON name GET "${line}" scenario)
    list(APPEND names ${name})
    string(JSON body REMOVE "${line}" scenario)
    string(JSON body REMOVE "${body}" ts)
    if(NOT first)
      set(first "${body}")
    elseif(NOT body STREQUAL first)
      message(FATAL_ERROR "${name}'s HMHT row differs from grow-storm-1's:\n"
                          "${body}\n${first}")
    endif()
  endforeach()
  if(NOT names STREQUAL "grow-storm-1;grow-storm-16;grow-storm-64")
    message(FATAL_ERROR "HMHT scenario rows for '${names}'")
  endif()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
