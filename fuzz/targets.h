#ifndef JURYOPT_FUZZ_TARGETS_H_
#define JURYOPT_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

/// \brief The structured fuzz targets over the public surface.
///
/// Each target consumes arbitrary bytes and exercises one attack
/// surface; the contract under test is uniform: *every* input outcome is
/// a `Status` (or a successful solve), never an abort, never UB. The
/// same functions back two harnesses:
///
///  * the libFuzzer entry points in `fuzz/fuzz_*_main.cc`, built only
///    under `-DJURYOPT_ENABLE_FUZZERS=ON` (clang's `-fsanitize=fuzzer`);
///  * `tests/fuzz_corpus_test.cc`, a plain gtest that replays the
///    checked-in seed corpus (`tests/corpus/`) deterministically in
///    every build — including the ASAN and UBSAN CI jobs — so corpus
///    regressions are caught without a fuzzing toolchain.
///
/// Targets clamp *valid but expensive* knobs (restart counts, node
/// budgets, bucket counts) before solving, for throughput; clamping
/// never masks a crash class, because the unclamped values still flow
/// through parsing and `Validate()` — the layers where hostile input is
/// rejected.
namespace jury::fuzz {

/// Bytes -> `Json::Parse`. On success, additionally asserts the
/// round-trip property: `Dump(Parse(Dump(doc)))` is byte-identical to
/// `Dump(doc)` (the canonical-form invariant the golden traces rely on).
void FuzzJson(const std::uint8_t* data, std::size_t size);

/// Bytes -> `SolveRequest::FromJsonText` -> `Validate` -> `Solve` on a
/// tiny planned pool.
void FuzzSolveRequest(const std::uint8_t* data, std::size_t size);

/// Bytes -> worker quality/cost columns (raw IEEE doubles, so NaN, the
/// infinities, negatives, and out-of-range values all occur) ->
/// `PoolPlanContext::Plan` -> a solve when the pool validates.
void FuzzPoolSnapshot(const std::uint8_t* data, std::size_t size);

/// Bytes -> `serve::HttpParser`, as a keep-alive connection reads them:
/// completed requests are taken and the parser `Reset()` for the bytes
/// after them (pipelining). The first byte picks chunk sizes; the rest is
/// the wire stream, fed once in one piece and once in those chunks.
/// Asserts split-invariance (the same requests, final state and error
/// either way) and that `Feed` consumes no more than it was given, and
/// all of it unless a request completed or failed.
void FuzzHttp(const std::uint8_t* data, std::size_t size);

}  // namespace jury::fuzz

#endif  // JURYOPT_FUZZ_TARGETS_H_
