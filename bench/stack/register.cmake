# Included right after the root project() call through
# CMAKE_PROJECT_liberation_codes_INCLUDE. Defers reading this directory's
# CMakeLists.txt to the end of the root CMakeLists, so bench_stack is
# defined after every root setting and option has been applied. (Deferred
# arguments are expanded when the call runs, hence the variable.)
set(BENCH_STACK_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${BENCH_STACK_DIR}/CMakeLists.txt")
