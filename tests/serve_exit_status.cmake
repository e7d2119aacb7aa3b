# Replays a one-line workload holding an invalid mutation through
# `im_run --serve` and checks the exact exit status: 1 when the replay
# halts on the error record, 0 under --keep-going. Any other status (a
# crash included) fails. Run by ctest:
#
#   cmake -DIM_RUN=<im_run> -DWORKLOAD=<file> -DEXPECT=<status>
#         [-DKEEP_GOING=ON] -P serve_exit_status.cmake
file(WRITE "${WORKLOAD}" "add 0,99999999,0.1\n")
set(args --serve --dataset=nethept --scale=tiny --model=WC --eps=2.0
         --threads=1 --workload=${WORKLOAD})
if(KEEP_GOING)
  list(APPEND args --keep-going)
endif()
execute_process(COMMAND "${IM_RUN}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "im_run exited '${status}', want ${EXPECT}\n${out}${err}")
endif()
if(NOT out MATCHES "\"op\":\"error\"")
  message(FATAL_ERROR "no error record in the replay output\n${out}")
endif()
