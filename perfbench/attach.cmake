# Attaches the benchmark to the repository's build without changing the
# repository's build files. perfbench/run.py configures the repository root
# with -DCMAKE_PROJECT_wfdining_INCLUDE=<this file>, and CMake includes it
# at the end of the root's project() call. Targets are linked by name, which
# CMake resolves after the whole tree is read, so perfbench/ may be added
# before the repository's own subdirectories.
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} perfbench)
