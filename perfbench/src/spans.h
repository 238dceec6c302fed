#ifndef JURYOPT_PERFBENCH_SPANS_H_
#define JURYOPT_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

/// One timed interval around a call into a layer: name, start, end, the
/// span that caused it (0 = none) and the request it belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;

  double seconds() const { return end - start; }
};

/// In-memory span store. Spans are appended when they end and written out
/// once, when the run is over; nothing is flushed while timing. Disabled
/// recorders hand out id 0 and record nothing. Thread-safe.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  std::uint64_t NewId();
  void Record(Span span);

  /// Every recorded span, in the order they ended.
  std::vector<Span> spans() const;
  /// Self time of every span (its duration minus the time its direct
  /// children cover), summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;
  /// Total duration per span name, and how many spans carry each name.
  std::map<std::string, double> SecondsByName() const;
  std::map<std::string, std::size_t> CountByName() const;

  /// Writes one JSON object per span to `path`. False on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::vector<Span> spans_;    // guarded by mutex_
};

/// RAII span: starts on construction, records on destruction (or `End`).
/// A null recorder times the interval and records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent,
             std::uint64_t request);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Ends the span now and returns its duration in seconds.
  double End();

 private:
  SpanRecorder* recorder_;
  Span span_;
  bool open_ = true;
};

}  // namespace perfbench

#endif  // JURYOPT_PERFBENCH_SPANS_H_
