#include "jq/bucket.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "jq/prior_transform.h"
#include "model/prior.h"
#include "model/worker.h"
#include "util/check.h"
#include "util/math.h"
#include "util/status.h"
#include "util/simd_dispatch.h"
#include "util/simd_kernels_inl.h"

namespace jury {

Status BucketJqOptions::Validate() const {
  if (num_buckets < 1) {
    return Status::InvalidArgument("bucket.num_buckets must be >= 1");
  }
  if (num_buckets > kMaxBuckets) {
    // The deconvolution tables are sized by the bucket count, so a
    // request-supplied count must not become an unbounded allocation.
    return Status::InvalidArgument("bucket.num_buckets must be <= 1000000");
  }
  if (!(high_quality_cutoff > 0.0) || !(high_quality_cutoff <= 1.0)) {
    return Status::InvalidArgument(
        "bucket.high_quality_cutoff must lie in (0, 1]");
  }
  return Status::OK();
}

namespace {

/// Sorted (bucket, quality) pair; workers are processed in decreasing bucket
/// order so the Algorithm-2 suffix bound settles keys as early as possible.
struct BucketedWorker {
  std::int64_t bucket = 0;
  double quality = 0.5;
};

/// Per-buffer ceiling of the Algorithm-1 DP: 2^23 doubles (64 MiB). A
/// grid whose window would pass it is coarsened until it fits.
constexpr std::int64_t kMaxWindowSlots = std::int64_t{1} << 23;

/// Accumulates the final sweep (steps 21-25 of Algorithm 1): probability at
/// positive keys counts fully, probability at key zero counts half (the
/// symmetric tie case of Fig. 3).
class JqAccumulator {
 public:
  void AddSettledPositive(double prob) { jq_ += prob; }
  void AddFinal(std::int64_t key, double prob) {
    if (key > 0) {
      jq_ += prob;
    } else if (key == 0) {
      jq_ += 0.5 * prob;
    }
  }
  double value() const { return jq_; }

 private:
  double jq_ = 0.0;
};

std::size_t CountPositive(const double* probs, std::int64_t count) {
  std::size_t positive = 0;
  for (std::int64_t j = 0; j < count; ++j) positive += probs[j] > 0.0;
  return positive;
}

/// One Algorithm-1 step over the live window: `out[j]` is the probability
/// at the j-th key of the next window, `src[j - b] * q` (the key moved up
/// by b, v_i = 0) plus `src[j] * (1 - q)` (moved down, v_i = 1), where
/// `src` holds the `live` same-parity keys that survived pruning. Terms
/// whose source lies outside `src` are left out. Each entry is the sum a
/// scatter `nxt[key ± b] += ...` into a zeroed array builds in ascending
/// key order, since (0 + up) + down == up + down bit for bit.
void ConvolveWindow(const double* __restrict src, std::int64_t live,
                    std::int64_t b, double q, double* __restrict out) {
  const double down = 1.0 - q;
  const std::int64_t lower = std::min(b, live);
  const std::int64_t upper = std::max(b, live);
  for (std::int64_t j = 0; j < lower; ++j) out[j] = src[j] * down;
  for (std::int64_t j = b; j < live; ++j) {
    out[j] = src[j - b] * q + src[j] * down;
  }
  for (std::int64_t j = live; j < b; ++j) out[j] = 0.0;
  for (std::int64_t j = upper; j < live + b; ++j) out[j] = src[j - b] * q;
}

/// The Algorithm-1 pass (with Algorithm 2 when `pruning` is on).
///
/// Every key reachable after folding workers 0..i-1 has the parity of
/// their bucket sum, so the state stores one parity only: `cur[j]` is the
/// probability at key `lo + 2j` for j < `len`. Each iteration splits that
/// window into three ascending runs: keys below -aggregate[i] and above
/// +aggregate[i] are settled by Algorithm 2 (the positive ones go to the
/// accumulator in ascending key order), and the live keys between are
/// convolved into a window `b` slots longer. The cost is the sum over
/// iterations of the window length, at most min(prefix, suffix) bucket
/// sum + 1 per step, instead of n sweeps over all 2·span+1 keys; the
/// result, `keys_expanded` and `keys_pruned` are bit for bit those of the
/// full-array sweep.
double RunDense(const std::vector<BucketedWorker>& ws,
                const std::vector<std::int64_t>& aggregate, std::int64_t slots,
                bool pruning, BucketJqStats* stats) {
  // `slots` is `MaxWindowSlots`: no window the sweep writes is longer. The
  // buffers stay uninitialised: each step writes its whole output window,
  // and only the current window is ever read.
  const auto size = static_cast<std::size_t>(slots);
  auto cur = std::make_unique_for_overwrite<double[]>(size);
  auto nxt = std::make_unique_for_overwrite<double[]>(size);
  cur[0] = 1.0;
  std::int64_t lo = 0;   // key of cur[0]
  std::int64_t len = 1;  // window length

  JqAccumulator acc;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t b = ws[i].bucket;
    // Live slots [first, last): keys within ±aggregate[i]. Arithmetic
    // shifts are floor division by 2, so `first` is the slot of the
    // smallest key >= -aggregate[i] and `last` one past the largest key
    // <= +aggregate[i].
    std::int64_t first = 0;
    std::int64_t last = len;
    if (pruning) {
      const std::int64_t remaining = aggregate[i];
      first = std::clamp<std::int64_t>((-remaining - lo + 1) >> 1, 0, len);
      last = std::clamp<std::int64_t>(((remaining - lo) >> 1) + 1, first, len);
    }
    if (stats != nullptr) {
      stats->keys_expanded += CountPositive(cur.get(), len);
      stats->keys_pruned += CountPositive(cur.get(), first) +
                            CountPositive(cur.get() + last, len - last);
    }
    // Algorithm 2: the sign of these keys can no longer change.
    for (std::int64_t j = last; j < len; ++j) acc.AddSettledPositive(cur[j]);

    const std::int64_t live = last - first;
    if (live == 0) {
      len = 0;
      break;
    }
    JURY_CHECK_LE(live + b, slots);
    ConvolveWindow(cur.get() + first, live, b, ws[i].quality, nxt.get());
    lo += 2 * first - b;
    len = live + b;
    cur.swap(nxt);
  }
  for (std::int64_t j = 0; j < len; ++j) acc.AddFinal(lo + 2 * j, cur[j]);
  return acc.value();
}

/// Buckets every worker on the grid of width `delta` (GetBucketArray:
/// b_i = ceil(phi_i/delta - 1/2), the nearest bucket), sorted in
/// decreasing bucket order (steps 2-3 of Algorithm 1) so pruning sees
/// the big contributors first.
std::vector<BucketedWorker> BucketWorkers(const std::vector<double>& qs,
                                          const std::vector<double>& phis,
                                          double delta) {
  std::vector<BucketedWorker> ws(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ws[i].bucket =
        static_cast<std::int64_t>(std::ceil(phis[i] / delta - 0.5));
    ws[i].quality = qs[i];
  }
  std::sort(ws.begin(), ws.end(), [](const auto& a, const auto& b) {
    return a.bucket > b.bucket;
  });
  return ws;
}

/// AggregateBucket: aggregate[i] = b[i] + b[i+1] + ... + b[n-1].
std::vector<std::int64_t> AggregateBuckets(
    const std::vector<BucketedWorker>& ws) {
  std::vector<std::int64_t> aggregate(ws.size(), 0);
  std::int64_t suffix = 0;
  for (std::size_t i = ws.size(); i > 0; --i) {
    suffix += ws[i - 1].bucket;
    aggregate[i - 1] = suffix;
  }
  return aggregate;
}

/// The longest window `RunDense` writes. Before step i the window holds
/// at most P_i + 1 keys (P_i = b_0 + ... + b_{i-1}, one parity), of which
/// pruning keeps at most aggregate[i] + 1 live, and the step lengthens the
/// live run by b_i: at most min(P_i, aggregate[i]) + b_i + 1 slots, or
/// P_i + b_i + 1 without pruning (span + 1 at the last step).
std::int64_t MaxWindowSlots(const std::vector<BucketedWorker>& ws,
                            const std::vector<std::int64_t>& aggregate,
                            bool pruning) {
  std::int64_t most = 1;  // the initial point mass at key 0
  std::int64_t prefix = 0;
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const std::int64_t live = pruning ? std::min(prefix, aggregate[i]) : prefix;
    most = std::max(most, live + ws[i].bucket + 1);
    prefix += ws[i].bucket;
  }
  return most;
}

}  // namespace

void BucketKeyDistribution::Reset() {
  pmf_.assign(1, 1.0);
  span_ = 0;
}

void BucketKeyDistribution::Convolve(std::int64_t b, double q) {
  JURY_CHECK_GE(b, 0);
  if (b == 0) return;  // +0 and -0 coincide: exact identity
  const std::int64_t new_span = span_ + b;
  // `assign` reuses the scratch buffer's capacity: per-move convolutions
  // stop allocating once the session has seen its largest span.
  scratch_.assign(static_cast<std::size_t>(2 * new_span + 1), 0.0);
  for (std::int64_t key = -span_; key <= span_; ++key) {
    const double prob = pmf_[static_cast<std::size_t>(key + span_)];
    if (prob == 0.0) continue;
    scratch_[static_cast<std::size_t>(key + b + new_span)] += prob * q;
    scratch_[static_cast<std::size_t>(key - b + new_span)] +=
        prob * (1.0 - q);
  }
  pmf_.swap(scratch_);
  span_ = new_span;
}

void BucketKeyDistribution::Deconvolve(std::int64_t b, double q) {
  JURY_CHECK_GE(b, 0);
  if (b == 0) return;
  JURY_CHECK_GE(span_, b);
  JURY_CHECK(q >= 0.5 && q <= 1.0)
      << "Deconvolve requires a normalized quality, got " << q;
  const std::int64_t ns = span_ - b;
  // Every entry is written exactly once (descending j only reads entries
  // written earlier in the pass), so a resize without zeroing suffices.
  scratch_.resize(static_cast<std::size_t>(2 * ns + 1));
  for (std::int64_t j = ns; j >= -ns; --j) {
    const double above =
        (j + 2 * b <= ns) ? scratch_[static_cast<std::size_t>(j + 2 * b + ns)]
                          : 0.0;
    scratch_[static_cast<std::size_t>(j + ns)] =
        (pmf_[static_cast<std::size_t>(j + b + span_)] - (1.0 - q) * above) /
        q;
  }
  pmf_.swap(scratch_);
  span_ = ns;
}

double BucketKeyDistribution::PositiveMass() const {
  // Canonical interleaved accumulation (simd_kernels_inl.h): 0.5 * g[0]
  // plus four interleaved partial sums over the positive keys. One fixed
  // order shared by every mass consumer — the fused batch kernels at
  // every dispatch level sum in exactly this order, which is what lets
  // the AVX2 variant run one IEEE chain per vector lane and still be
  // bit-identical to this function.
  return simd::internal::CommittedMass(pmf_.data(), span_);
}

void BucketKeyDistribution::ConvolvePositiveMassBatch(const std::int64_t* bs,
                                                      const double* qs,
                                                      std::size_t count,
                                                      double* out) const {
  // Keys outside [-span_, span_] read as zero, which the kernel's
  // segmented/masked loops encode branch-free. For new key s the convolved
  // entry is g[s] = f[s-b]*q + f[s+b]*(1-q), built in exactly that order
  // by Convolve's ascending scatter, and PositiveMass accumulates 0.5*g[0]
  // then g[1..new_span] ascending — the dispatched `convolve_mass` kernel
  // (scalar reference or AVX2; see simd_dispatch.h) replicates this term
  // for term, so the fused result is bit-identical to the scalar
  // copy-convolve-sweep at every level.
  for (std::size_t j = 0; j < count; ++j) {
    JURY_CHECK_GE(bs[j], 0);
  }
  simd::Kernels().convolve_mass(pmf_.data(), span_, bs, qs, count, out);
}

double BucketKeyDistribution::DeconvolvePositiveMass(std::int64_t b,
                                                     double q) const {
  double out = 0.0;
  DeconvolvePositiveMassBatch(&b, &q, 1, &out);
  return out;
}

void BucketKeyDistribution::DeconvolvePositiveMassBatch(const std::int64_t* bs,
                                                        const double* qs,
                                                        std::size_t count,
                                                        double* out) const {
  // Fused {copy; Deconvolve(b, q); PositiveMass()} per candidate: the same
  // backward recurrence over one reused row (no full-distribution copy),
  // then the same canonical mass sweep — bit-identical to the scalar pair
  // at every dispatch level (scalar reference, AVX2, AVX-512; see the
  // `deconvolve_mass` contract in util/simd_dispatch.h).
  for (std::size_t j = 0; j < count; ++j) {
    JURY_CHECK_GE(bs[j], 0);
    JURY_CHECK_GE(span_, bs[j]);
    if (bs[j] > 0) {
      JURY_CHECK(qs[j] >= 0.5 && qs[j] <= 1.0)
          << "DeconvolvePositiveMass requires a normalized quality, got "
          << qs[j];
    }
  }
  simd::Kernels().deconvolve_mass(pmf_.data(), span_, bs, qs, count, out);
}

double BucketErrorBound(int n, double delta) {
  JURY_CHECK_GE(n, 0);
  JURY_CHECK_GE(delta, 0.0);
  return std::exp(static_cast<double>(n) * delta / 4.0) - 1.0;
}

int RequiredBucketMultiplier(double upper, double max_error) {
  JURY_CHECK_GT(max_error, 0.0);
  JURY_CHECK_GT(upper, 0.0);
  // With numBuckets = d*n: delta = upper/(d*n), so the bound is
  // e^{upper/(4d)} - 1 < max_error  <=>  d > upper / (4 ln(1+max_error)).
  const double d = upper / (4.0 * std::log1p(max_error));
  return std::max(1, static_cast<int>(std::ceil(d)));
}

Result<double> EstimateJq(const Jury& jury, double alpha,
                          const BucketJqOptions& options,
                          BucketJqStats* stats) {
  JURY_RETURN_NOT_OK(jury.Validate());
  JURY_RETURN_NOT_OK(ValidateAlpha(alpha));
  if (jury.empty()) {
    return Status::InvalidArgument("EstimateJq requires a non-empty jury");
  }
  if (options.num_buckets <= 0) {
    return Status::InvalidArgument("num_buckets must be positive");
  }
  if (stats != nullptr) *stats = BucketJqStats{};

  // Theorem 3: the prior is one more juror; §3.3: flip low-quality jurors.
  const Jury with_prior = ApplyPrior(jury, alpha);
  const Jury normalized = Normalize(with_prior).jury;
  const std::vector<double> qs = normalized.qualities();
  const int n = static_cast<int>(qs.size());

  // §4.4 escape hatch: a near-perfect juror alone pins JQ into (cutoff, 1].
  if (options.high_quality_cutoff < 1.0) {
    double best = 0.0;
    bool fired = false;
    for (double q : qs) {
      if (q > options.high_quality_cutoff) {
        fired = true;
        best = std::max(best, q);
      }
    }
    if (fired) {
      if (stats != nullptr) {
        stats->high_quality_shortcut = true;
        stats->error_bound = 1.0 - best;
      }
      return best;
    }
  }

  // Bucket assignment (GetBucketArray): nearest bucket of phi(q_i) on the
  // grid of `num_buckets` intervals covering [0, upper].
  std::vector<double> phis(qs.size());
  double upper = 0.0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    phis[i] = LogOdds(EffectiveQuality(qs[i]));
    upper = std::max(upper, phis[i]);
  }
  if (upper <= 0.0) {
    // Every juror (and the prior) has quality exactly 0.5: R(V) = 0 for all
    // votings, so JQ = 0.5 exactly.
    return 0.5;
  }
  // Past the per-buffer ceiling, coarsen the grid until the window fits:
  // the window grows about linearly with the bucket count, and the §4.4
  // lower bound holds at any delta (`stats` reports the delta used). At
  // one bucket the window is at most n + 1 slots, so only a jury of 2^23
  // or more workers can still pass the ceiling.
  int num_buckets = options.num_buckets;
  double delta = 0.0;
  std::vector<BucketedWorker> ws;
  std::vector<std::int64_t> aggregate;
  std::int64_t slots = 0;
  while (true) {
    delta = upper / static_cast<double>(num_buckets);
    ws = BucketWorkers(qs, phis, delta);
    aggregate = AggregateBuckets(ws);
    slots = MaxWindowSlots(ws, aggregate, options.enable_pruning);
    if (slots <= kMaxWindowSlots || num_buckets == 1) break;
    const double shrink = static_cast<double>(kMaxWindowSlots) / slots;
    num_buckets = std::clamp(static_cast<int>(num_buckets * shrink), 1,
                             num_buckets - 1);
  }

  if (stats != nullptr) {
    stats->delta = delta;
    stats->error_bound = BucketErrorBound(n, delta);
    stats->window_slots = slots;
  }

  const double jq_hat =
      RunDense(ws, aggregate, slots, options.enable_pruning, stats);
  // Guard against floating-point drift just above 1.
  return std::min(jq_hat, 1.0);
}

}  // namespace jury
