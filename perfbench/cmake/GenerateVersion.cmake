# The library's CMakeLists runs ${CMAKE_SOURCE_DIR}/cmake/GenerateVersion.cmake
# to stamp the revision. With perfbench as the top-level project that path
# lands here, so forward to the repository's script.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenerateVersion.cmake)
