#pragma once
/// \file trace.hpp
/// In-memory spans recorded by the benchmark's own code around the calls
/// it makes into each kertbn layer, plus the arithmetic the traced run
/// reports from them (self time, coverage).
///
/// Each load thread owns one SpanLog; a span's parent is the span open
/// on the same thread when it started, so hooks the pipeline invokes
/// inside a wrapped call (row observers, the write-ahead ingest log) nest
/// under that call. A log that is not recording costs one branch per
/// span.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread in nanoseconds. With the guest's steal
/// accounting it leaves out time the hypervisor ran something else on
/// this vCPU.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  std::uint32_t name = 0;  ///< Index into the owning log's name table.
  std::int32_t parent = -1;  ///< Index of the parent span, -1 for a root.
  std::uint64_t trace = 0;   ///< Interval, query or sweep the span serves.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's spans. Not thread-safe: only the owning thread records.
class SpanLog {
 public:
  SpanLog(std::string thread, const std::vector<const char*>* names)
      : thread_(std::move(thread)), names_(names) {}

  const std::string& thread() const { return thread_; }
  const char* name(std::uint32_t id) const { return (*names_)[id]; }
  bool has_name(std::uint32_t id) const { return id < names_->size(); }

  void set_recording(bool on) { recording_ = on; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a span under the currently open one; returns its index, or -1
  /// when not recording.
  std::int32_t open(std::uint32_t name, std::uint64_t trace) {
    if (!recording_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, current_, trace, now_ns(), 0});
    current_ = idx;
    return idx;
  }
  void close(std::int32_t idx) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  /// Records a finished span under the currently open one, from times
  /// the caller already took (no extra clock reads on a hot loop).
  void record(std::uint32_t name, std::uint64_t trace, std::int64_t start_ns,
              std::int64_t end_ns) {
    if (recording_) {
      spans_.push_back(Span{name, current_, trace, start_ns, end_ns});
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  const std::vector<const char*>* names_;
  bool recording_ = false;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

/// RAII span on a log (no-op when the log is null or not recording).
class Scope {
 public:
  Scope(SpanLog* log, std::uint32_t name, std::uint64_t trace)
      : log_(log), idx_(log != nullptr ? log->open(name, trace) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// Per span: its duration minus the part of it its direct children cover
/// (the union of the children's intervals, clipped to the span).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Share of the roots' time covered by their direct children: the
/// fraction of a load thread's busy time that named layer spans
/// explain. 1 when there are no roots.
double coverage(const std::vector<Span>& spans);

/// Durations (or self times) in microseconds of every span named \p name.
std::vector<double> durations_us(const std::vector<Span>& spans,
                                 std::uint32_t name, bool self = false);

/// Writes every span of \p logs to \p path: a text header line
/// "e2e-spans 1 <span bytes>", one line of space-separated span names
/// (index = Span::name), then per log a line "<thread> <count>" followed
/// by that many raw Span records. Returns false when the file cannot be
/// written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace e2e
