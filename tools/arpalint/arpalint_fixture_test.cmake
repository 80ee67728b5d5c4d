# Runs arpalint over the self-test fixture trees.
#
# tree_bad must exit 1 and report every rule at least once; tree_ok must
# exit 0 with no findings. Invoked by the arpalint_fixtures ctest entry with
# -DARPALINT=<binary> -DFIXTURES=<tests/lint_fixtures>.

if(NOT ARPALINT OR NOT FIXTURES)
  message(FATAL_ERROR "usage: cmake -DARPALINT=... -DFIXTURES=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND ${ARPALINT} --root=${FIXTURES}/tree_bad src
                OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err
                RESULT_VARIABLE bad_rc)
if(NOT bad_rc EQUAL 1)
  message(FATAL_ERROR "tree_bad: expected exit 1, got ${bad_rc}\n${bad_out}${bad_err}")
endif()
foreach(rule hot-path-alloc determinism layer-dag check-macros directive)
  if(NOT bad_out MATCHES "\\[${rule}\\]")
    message(FATAL_ERROR "tree_bad: rule ${rule} did not fire\n${bad_out}")
  endif()
endforeach()

# ARPALINT-NOALLOC exempts calls in its own file only, and must mark a
# declaration (tree_ok/src/sim/intrusive_fifo.h is the exempt case). An
# unqualified call on `this` is flagged too; a declaration is not
# (tree_ok/src/sim/fixed_ring.h).
foreach(finding
        "src/sim/fifo_user.h:11: \\[hot-path-alloc\\] \\.push\\(\\)"
        "src/sim/fifo.h:18: \\[directive\\] ARPALINT-NOALLOC marks no"
        "src/sim/self_grow.h:15: \\[hot-path-alloc\\] unqualified reserve\\(\\)")
  if(NOT bad_out MATCHES "${finding}")
    message(FATAL_ERROR "tree_bad: expected a finding matching ${finding}\n${bad_out}")
  endif()
endforeach()

execute_process(COMMAND ${ARPALINT} --root=${FIXTURES}/tree_ok src
                OUTPUT_VARIABLE ok_out ERROR_VARIABLE ok_err
                RESULT_VARIABLE ok_rc)
if(NOT ok_rc EQUAL 0)
  message(FATAL_ERROR "tree_ok: expected exit 0, got ${ok_rc}\n${ok_out}${ok_err}")
endif()

message(STATUS "arpalint fixtures: tree_bad fires every rule, tree_ok is clean")
