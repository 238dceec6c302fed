// libFuzzer entry point over `serve::HttpParser` (see fuzz/targets.h).
// Built only under -DJURYOPT_ENABLE_FUZZERS=ON with a clang toolchain:
//   ./fuzz_http tests/corpus/http
#include <cstddef>
#include <cstdint>

#include "fuzz/targets.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  jury::fuzz::FuzzHttp(data, size);
  return 0;
}
