# ctest driver for ppclust_cli smoke tests. Invoked as
#   cmake -DCLI=<path> -DMODE=usage_error|end_to_end|threaded
#         [-DSCRATCH=<dir>] -P ...
# and fails via message(FATAL_ERROR) on any unexpected behaviour.

if(MODE STREQUAL "usage_error")
  # No command at all, and an unknown command: both must fail with the
  # documented usage exit code 2, not crash or succeed.
  execute_process(COMMAND "${CLI}" RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "bare invocation exited ${code}, want 2")
  endif()
  execute_process(COMMAND "${CLI}" frobnicate RESULT_VARIABLE code)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "unknown command exited ${code}, want 2")
  endif()
  execute_process(COMMAND "${CLI}" cluster RESULT_VARIABLE code)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "cluster with no files exited ${code}, want 1")
  endif()

elseif(MODE STREQUAL "end_to_end")
  file(REMOVE_RECURSE "${SCRATCH}")
  file(MAKE_DIRECTORY "${SCRATCH}")

  execute_process(
    COMMAND "${CLI}" generate --kind=mixed --objects=24 --parties=2
            --seed=7 "--prefix=${SCRATCH}/smoke"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "generate exited ${code}\n${out}${err}")
  endif()
  foreach(part smoke.part0.csv smoke.part1.csv smoke.labels.csv)
    if(NOT EXISTS "${SCRATCH}/${part}")
      message(FATAL_ERROR "generate did not write ${part}")
    endif()
  endforeach()

  execute_process(
    COMMAND "${CLI}" cluster "${SCRATCH}/smoke.part0.csv"
            "${SCRATCH}/smoke.part1.csv" --clusters=3 --linkage=average
            "--newick=${SCRATCH}/smoke.nwk"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cluster exited ${code}\n${out}${err}")
  endif()
  if(NOT out MATCHES "silhouette")
    message(FATAL_ERROR "cluster output missing silhouette line:\n${out}")
  endif()
  if(NOT EXISTS "${SCRATCH}/smoke.nwk")
    message(FATAL_ERROR "cluster did not write the --newick file")
  endif()

elseif(MODE STREQUAL "analyze")
  # The analyze command runs the protocol and checks its own closed-form
  # traffic model against channel taps (exits 1 on any byte mismatch).
  file(REMOVE_RECURSE "${SCRATCH}")
  file(MAKE_DIRECTORY "${SCRATCH}")

  execute_process(
    COMMAND "${CLI}" generate --kind=mixed --objects=24 --parties=3
            --seed=5 "--prefix=${SCRATCH}/smoke"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "generate exited ${code}\n${out}${err}")
  endif()

  execute_process(
    COMMAND "${CLI}" analyze "${SCRATCH}/smoke.part0.csv"
            "${SCRATCH}/smoke.part1.csv" "${SCRATCH}/smoke.part2.csv"
            --threads=2
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "analyze exited ${code}\n${out}${err}")
  endif()
  if(NOT out MATCHES "# schedule: [0-9]+ steps")
    message(FATAL_ERROR "analyze did not report its schedule:\n${out}")
  endif()
  if(NOT out MATCHES "comparison rounds")
    message(FATAL_ERROR "analyze output missing the phase table:\n${out}")
  endif()

  # --schedule is not a flag: it must fail as unknown, not be ignored.
  execute_process(
    COMMAND "${CLI}" analyze "${SCRATCH}/smoke.part0.csv"
            "${SCRATCH}/smoke.part1.csv" --schedule=fine
    RESULT_VARIABLE code ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "unknown flag '--schedule'")
    message(FATAL_ERROR "--schedule=fine exited ${code}, want 1 with an "
            "unknown-flag error:\n${err}")
  endif()

elseif(MODE STREQUAL "threaded")
  # Four workers must publish the exact same outcome as the sequential
  # run: compare full cluster output across --threads values, ignoring
  # only the wall-clock line.
  file(REMOVE_RECURSE "${SCRATCH}")
  file(MAKE_DIRECTORY "${SCRATCH}")

  execute_process(
    COMMAND "${CLI}" generate --kind=mixed --objects=24 --parties=3
            --seed=11 "--prefix=${SCRATCH}/smoke"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "generate exited ${code}\n${out}${err}")
  endif()

  foreach(threads 1 4)
    execute_process(
      COMMAND "${CLI}" cluster "${SCRATCH}/smoke.part0.csv"
              "${SCRATCH}/smoke.part1.csv" "${SCRATCH}/smoke.part2.csv"
              --clusters=3 --threads=${threads}
      RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR
              "cluster --threads=${threads} exited ${code}\n${out}${err}")
    endif()
    # Drop the timing line; everything else must match bit for bit.
    string(REGEX REPLACE "# protocol:[^\n]*\n" "" out "${out}")
    set(out_${threads} "${out}")
  endforeach()
  if(NOT out_1 STREQUAL out_4)
    message(FATAL_ERROR "threaded outcome diverged from sequential:\n"
            "--- threads=1 ---\n${out_1}\n"
            "--- threads=4 ---\n${out_4}")
  endif()

  # An absurd --threads is rejected before any input is read or any
  # thread is started. The TIMEOUT bounds a regression that would start
  # the run instead.
  set(peers "A=127.0.0.1:1,B=127.0.0.1:2,TP=127.0.0.1:3,COORD=127.0.0.1:4")
  foreach(cmd "cluster" "analyze" "serve")
    if(cmd STREQUAL "serve")
      set(args "${SCRATCH}/smoke.part0.csv" --role=holder --party=A
               --holders=A,B "--peers=${peers}")
    else()
      set(args "${SCRATCH}/smoke.part0.csv" "${SCRATCH}/smoke.part1.csv"
               "${SCRATCH}/smoke.part2.csv")
    endif()
    execute_process(
      COMMAND "${CLI}" ${cmd} ${args} --threads=100000
      TIMEOUT 60
      RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT code EQUAL 1 OR NOT err MATCHES "--threads must be in")
      message(FATAL_ERROR "${cmd} --threads=100000 exited ${code}, want 1 "
              "with a --threads error:\n${out}${err}")
    endif()
    if(out MATCHES "# protocol:")
      message(FATAL_ERROR "${cmd} --threads=100000 ran the protocol:\n${out}")
    endif()
  endforeach()

else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
