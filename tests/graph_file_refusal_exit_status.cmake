# Writes a catalog profile as an .imgrf with dataset_gen, cuts it to its
# first 3000 bytes and runs `im_run --graph-file` on the torn file with
# --keep-going. The open is refused, so im_run must exit 1 with the
# refusal before it selects: no seeds line, and no run on another graph.
# Run by ctest:
#
#   cmake -DDATASET_GEN=<dataset_gen> -DIM_RUN=<im_run> -DFILE=<out.imgrf>
#         -P graph_file_refusal_exit_status.cmake
execute_process(COMMAND "${DATASET_GEN}" --dataset=nethept --scale=tiny
                        --model=WC --seed=7 --out=${FILE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "dataset_gen exited '${status}'\n${out}${err}")
endif()
execute_process(COMMAND head -c 3000 "${FILE}"
                OUTPUT_FILE ${FILE}.torn
                RESULT_VARIABLE status)
file(REMOVE "${FILE}")
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "cannot cut ${FILE} to 3000 bytes")
endif()
execute_process(COMMAND "${IM_RUN}" --algorithm=IMM --graph-file=${FILE}.torn
                        --model=WC --k=5 --seed=7 --mc=100 --keep-going
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE "${FILE}.torn")
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "im_run on a torn file exited '${status}', want 1\n${out}${err}")
endif()
if(out MATCHES "seeds:" OR NOT err MATCHES "cannot open")
  message(FATAL_ERROR "im_run ran instead of refusing the torn file\n${out}${err}")
endif()
