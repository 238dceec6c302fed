// Deterministic replay of the checked-in fuzz seed corpus
// (tests/corpus/) through the structured fuzz targets (fuzz/targets.h).
//
// This is the tier-1 face of the fuzzing setup: it runs in every build —
// including the ASAN and UBSAN CI jobs — without a fuzzing toolchain,
// so any input that ever crashed (and was checked in as a seed) stays
// fixed, and the "no input can abort" contract is asserted on every
// commit. The libFuzzer binaries (fuzz/fuzz_*_main.cc, built under
// -DJURYOPT_ENABLE_FUZZERS=ON) explore beyond the seeds; new findings
// get minimized and added here.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/targets.h"
#include "gtest/gtest.h"

namespace jury {
namespace {

#ifndef JURYOPT_CORPUS_DIR
#error "build must define JURYOPT_CORPUS_DIR (see CMakeLists.txt)"
#endif

std::filesystem::path CorpusDir(const std::string& target) {
  return std::filesystem::path(JURYOPT_CORPUS_DIR) / target;
}

std::vector<std::filesystem::path> CorpusFiles(const std::string& target) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(CorpusDir(target))) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  // directory_iterator order is unspecified; sort for a stable replay.
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open corpus file " << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

using TargetFn = void (*)(const std::uint8_t*, std::size_t);

void ReplayCorpus(const std::string& target, TargetFn fn) {
  const std::vector<std::filesystem::path> files = CorpusFiles(target);
  ASSERT_FALSE(files.empty())
      << "empty corpus directory " << CorpusDir(target)
      << " — seeds are checked in, so this is a packaging error";
  for (const std::filesystem::path& path : files) {
    SCOPED_TRACE(path.string());
    const std::vector<std::uint8_t> bytes = ReadBytes(path);
    // The assertion is survival: any abort/UB here fails the test (and
    // the sanitizer jobs make UB loud even when it wouldn't crash).
    fn(bytes.data(), bytes.size());
  }
}

TEST(FuzzCorpus, JsonSeedsReplayClean) { ReplayCorpus("json", fuzz::FuzzJson); }

TEST(FuzzCorpus, SolveRequestSeedsReplayClean) {
  ReplayCorpus("solve_request", fuzz::FuzzSolveRequest);
}

TEST(FuzzCorpus, PoolSnapshotSeedsReplayClean) {
  ReplayCorpus("pool_snapshot", fuzz::FuzzPoolSnapshot);
}

TEST(FuzzCorpus, HttpSeedsReplayClean) { ReplayCorpus("http", fuzz::FuzzHttp); }

}  // namespace
}  // namespace jury
