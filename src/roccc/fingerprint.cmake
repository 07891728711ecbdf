# Writes OUT, the C++ file that defines roccc::kCompilerFingerprint: the
# SHA-256 of one "<path> <sha256>\n" line per SRC_DIR/**/*.{cpp,hpp}, with
# paths relative to SRC_DIR in sorted order. Every compile-cache key hashes
# it (src/roccc/cache.hpp), so an entry written by any other source tree
# misses. Run as `cmake -DSRC_DIR=... -DOUT=... -P fingerprint.cmake`;
# src/roccc/CMakeLists.txt reruns it whenever a source changes.
file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
list(SORT sources)
set(listing "")
foreach(path IN LISTS sources)
  file(SHA256 "${SRC_DIR}/${path}" digest)
  string(APPEND listing "${path} ${digest}\n")
endforeach()
string(SHA256 fingerprint "${listing}")
file(WRITE "${OUT}" "// Generated by src/roccc/fingerprint.cmake.
#include \"roccc/cache.hpp\"

namespace roccc {
const char* const kCompilerFingerprint = \"${fingerprint}\";
} // namespace roccc
")
