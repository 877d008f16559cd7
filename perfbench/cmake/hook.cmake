# Injected into the repository's configure step through
# CMAKE_PROJECT_INCLUDE (see perfbench/run.py). It runs right after the
# root project() call and defers the benchmark's target definitions until
# the root CMakeLists.txt has finished, so the benchmark inherits the
# repository's default build type, flags and options like the in-tree
# targets.
get_filename_component(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
cmake_language(DEFER CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
