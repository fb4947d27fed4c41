# Replay every committed golden in replays/ as recorded, then again on
# the accurate tier with fast-forward off. Unlike replay_smoke (which
# records a fresh golden first), this catches any drift of the digest
# definition or the model against the committed library. Driven by CTest
# via -P; REPLAY/GOLDENS come in as -D definitions.
file(GLOB goldens ${GOLDENS}/*.json)
if(NOT goldens)
  message(FATAL_ERROR "no goldens under ${GOLDENS}")
endif()

foreach(golden IN LISTS goldens)
  execute_process(COMMAND ${REPLAY} ${golden} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay as recorded failed (${rc}): ${golden}")
  endif()
  execute_process(
    COMMAND ${REPLAY} ${golden} --exec-tier accurate --no-fast-forward
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "accurate no-ff replay failed (${rc}): ${golden}")
  endif()
endforeach()
