# Schema-stability check for handler_effects.json.
#
# Runs the analyzer with --effects and asserts the artifact still carries the
# v3 key set that downstream tooling (the blocking-point inventory, CI trend
# scripts) relies on. Growing the schema is fine; renaming or dropping a key,
# or bumping schema_version without updating this check, fails the gate.
#
# Usage: cmake -DANALYZER=<bin> -DROOT=<repo> -DOUT=<file> -P check_effects_schema.cmake

foreach(var ANALYZER ROOT OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_effects_schema: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${ANALYZER} --root ${ROOT} --effects ${OUT} --quiet
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_effects_schema: analyzer exited with ${rc}")
endif()

file(READ ${OUT} doc)

# Version pin: bumping it must be a deliberate act that also updates this file.
string(FIND "${doc}" "\"schema_version\": 3" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "check_effects_schema: schema_version != 3")
endif()

# Top-level and per-handler keys of the v3 schema.
set(required_keys
  "\"root\""
  "\"policies\""
  "\"handlers\""
  "\"blocking_points\""
  "\"server\""
  "\"msg\""
  "\"kind\""
  "\"fn\""
  "\"file\""
  "\"line\""
  "\"has_body\""
  "\"opens_window\""
  "\"recursive\""
  "\"has_unbounded_loop\""
  "\"unresolved_callees\""
  "\"mutations_total\""
  "\"mutations_after_close\""
  "\"may_close_by_yield\""
  "\"predictions\""
  "\"pessimistic\""
  "\"enhanced\""
  "\"may_close_by_seep\""
  "\"suppressed\""
  "\"effects\""
  "\"detail\""
)
foreach(key IN LISTS required_keys)
  string(FIND "${doc}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "check_effects_schema: required key ${key} missing from ${OUT}")
  endif()
endforeach()

message(STATUS "check_effects_schema: handler_effects.json schema v3 intact")
