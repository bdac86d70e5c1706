# Doc-drift check: every bench binary and every test the prose names
# must still exist. Fails when README.md, DESIGN.md, EXPERIMENTS.md,
# doc/*.md or any file under .claude/skills/
#  - names a `bench_<name>` (or its `BENCH_<name>.json` record) that
#    bench/CMakeLists.txt no longer builds, or
#  - cites a test as `Suite.Name` whose suite some TEST, TEST_F or
#    TEST_P in tests/*.cpp declares, but whose test none does.
# CHANGES.md is history and is not scanned.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/doc_drift.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT SOURCE_DIR)
    message(FATAL_ERROR "doc_drift: pass -DSOURCE_DIR=<repo root>")
endif()

# The bench targets: the OCCSIM_EXPERIMENTS list plus every literal
# add_executable(bench_...). The shared headers (bench_json.hh,
# bench_reporter.hh) are valid names too.
file(READ "${SOURCE_DIR}/bench/CMakeLists.txt" bench_cmake)
string(REGEX MATCH "set\\(OCCSIM_EXPERIMENTS[^)]*\\)" experiments
       "${bench_cmake}")
string(REGEX MATCHALL "bench_[a-z0-9_]+" targets "${experiments}")
string(REGEX MATCHALL "add_executable\\(bench_[a-z0-9_]+" literal
       "${bench_cmake}")
foreach(entry IN LISTS literal)
    string(REPLACE "add_executable(" "" entry "${entry}")
    list(APPEND targets "${entry}")
endforeach()
file(GLOB headers RELATIVE "${SOURCE_DIR}/bench"
     "${SOURCE_DIR}/bench/bench_*.hh")
foreach(header IN LISTS headers)
    string(REGEX REPLACE "\\.hh$" "" header "${header}")
    list(APPEND targets "${header}")
endforeach()

file(GLOB docs "${SOURCE_DIR}/README.md" "${SOURCE_DIR}/DESIGN.md"
     "${SOURCE_DIR}/EXPERIMENTS.md" "${SOURCE_DIR}/doc/*.md")
file(GLOB_RECURSE skills LIST_DIRECTORIES false
     "${SOURCE_DIR}/.claude/skills/*")
list(APPEND docs ${skills})

# The declared tests, as Suite.Name, and their suites.
file(GLOB test_sources "${SOURCE_DIR}/tests/*.cpp")
set(tests "")
set(suites "")
set(ws "[ \t\r\n]*")
set(ident "[A-Za-z0-9_]+")
foreach(source IN LISTS test_sources)
    file(READ "${source}" text)
    string(REGEX MATCHALL "TEST(_F|_P)?\\(${ws}${ident}${ws},${ws}${ident}"
           decls "${text}")
    foreach(decl IN LISTS decls)
        string(REGEX REPLACE
               "^TEST(_F|_P)?\\(${ws}(${ident})${ws},${ws}(${ident})$"
               "\\2.\\3" test "${decl}")
        string(REGEX REPLACE "\\..*$" "" suite "${test}")
        list(APPEND tests "${test}")
        list(APPEND suites "${suite}")
    endforeach()
endforeach()
list(REMOVE_DUPLICATES suites)
if(NOT suites)
    message(FATAL_ERROR "doc_drift: no TEST declarations found in "
                        "tests/*.cpp; the scan itself is broken")
endif()

set(stale "")
set(references 0)
set(citations 0)
foreach(doc IN LISTS docs)
    file(READ "${doc}" text)
    string(REPLACE ";" " " text "${text}")  # keep matches whole list items
    # A name starts after anything but a letter, digit or dot, so
    # smoke_bench_x counts and .bench_build does not.
    string(REGEX MATCHALL "(^|[^.A-Za-z0-9])(bench|BENCH)_[a-z][a-z0-9_]*"
           names "${text}")
    file(RELATIVE_PATH shown "${SOURCE_DIR}" "${doc}")
    foreach(name IN LISTS names)
        string(REGEX REPLACE "^.*(bench|BENCH)_" "bench_" name "${name}")
        math(EXPR references "${references} + 1")
        if(NOT name IN_LIST targets)
            list(APPEND stale "${shown}: ${name}")
        endif()
    endforeach()
    # A test citation is a Word.Word whose first word is a declared
    # suite, or a `Word.Word` in backticks with both words capitalized
    # (so a renamed or deleted suite is still caught). File names
    # (packed_trace.hh) and prose (e.g.) are neither.
    string(REGEX MATCHALL "`?[A-Za-z][A-Za-z0-9_]*\\.[A-Za-z][A-Za-z0-9_]*"
           cited "${text}")
    foreach(test IN LISTS cited)
        string(REGEX MATCH "^`[A-Z][A-Za-z0-9_]*\\.[A-Z]" quoted "${test}")
        string(REPLACE "`" "" test "${test}")
        string(REGEX REPLACE "\\..*$" "" suite "${test}")
        if(NOT quoted AND NOT suite IN_LIST suites)
            continue()
        endif()
        math(EXPR citations "${citations} + 1")
        if(NOT test IN_LIST tests)
            list(APPEND stale "${shown}: ${test}")
        endif()
    endforeach()
endforeach()

if(references EQUAL 0)
    message(FATAL_ERROR "doc_drift: no bench names found in the docs; "
                        "the scan itself is broken")
endif()
if(citations EQUAL 0)
    message(FATAL_ERROR "doc_drift: no Suite.Name test citations found "
                        "in the docs; the scan itself is broken")
endif()
if(stale)
    list(REMOVE_DUPLICATES stale)
    list(JOIN stale "\n  " lines)
    message(FATAL_ERROR "doc_drift: the docs name bench binaries that "
                        "bench/CMakeLists.txt does not build, or tests "
                        "that tests/*.cpp does not declare:\n  ${lines}")
endif()
message(STATUS "doc_drift: ${references} bench references, all built; "
               "${citations} test citations, all declared")
