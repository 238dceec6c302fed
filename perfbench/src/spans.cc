#include "spans.h"

#include <fstream>
#include <unordered_map>

#include "util/json.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const Span& span : all) {
    if (span.parent != 0) child_seconds[span.parent] += span.seconds();
  }
  std::map<std::string, double> self;
  for (const Span& span : all) {
    const auto it = child_seconds.find(span.id);
    self[span.name] +=
        span.seconds() - (it == child_seconds.end() ? 0.0 : it->second);
  }
  return self;
}

std::map<std::string, double> SpanRecorder::SecondsByName() const {
  std::map<std::string, double> total;
  for (const Span& span : spans()) total[span.name] += span.seconds();
  return total;
}

std::map<std::string, std::size_t> SpanRecorder::CountByName() const {
  std::map<std::string, std::size_t> count;
  for (const Span& span : spans()) count[span.name] += 1;
  return count;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans()) {
    out << jury::Json::Object()
               .Set("id", span.id)
               .Set("parent", span.parent)
               .Set("request", span.request)
               .Set("name", span.name)
               .Set("start", span.start)
               .Set("end", span.end)
               .Dump()
        << "\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       std::uint64_t parent, std::uint64_t request)
    : recorder_(recorder) {
  span_.id = recorder_ != nullptr ? recorder_->NewId() : 0;
  span_.parent = parent;
  span_.request = request;
  span_.name = std::move(name);
  span_.start = NowSeconds();
}

double ScopedSpan::End() {
  if (open_) {
    span_.end = NowSeconds();
    open_ = false;
    if (recorder_ != nullptr) recorder_->Record(span_);
  }
  return span_.seconds();
}

}  // namespace perfbench
