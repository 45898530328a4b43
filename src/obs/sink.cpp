#include "obs/sink.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "obs/json.hpp"

namespace kertbn::obs {

namespace {

std::mutex g_sink_mutex;
std::shared_ptr<EventSink> g_sink;           // guarded by g_sink_mutex
std::atomic<bool> g_has_sink{false};         // fast-path mirror

std::chrono::steady_clock::time_point process_start() {
  static const auto start = std::chrono::steady_clock::now();
  return start;
}

// Touch the anchor at static-init time so t=0 predates all events.
const auto g_anchor = process_start();

std::atomic<std::uint64_t> g_next_thread_ordinal{0};

/// Appends the "tags" member, omitted when there are none.
void write_tags(json::Writer& w, const std::vector<SpanTag>& tags) {
  if (tags.empty()) return;
  w.key("tags").begin_object();
  for (const SpanTag& tag : tags) {
    w.key(tag.key);
    std::visit([&w](const auto& v) { w.value(v); }, tag.value);
  }
  w.end_object();
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_start())
          .count());
}

std::uint64_t thread_ordinal() {
  thread_local const std::uint64_t ordinal =
      g_next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

void set_sink(std::shared_ptr<EventSink> sink) {
  std::lock_guard lock(g_sink_mutex);
  g_sink = std::move(sink);
  g_has_sink.store(g_sink != nullptr, std::memory_order_release);
}

std::shared_ptr<EventSink> sink() {
  std::lock_guard lock(g_sink_mutex);
  return g_sink;
}

bool has_sink() { return g_has_sink.load(std::memory_order_acquire); }

void emit_span(const SpanEvent& event) {
  if (const auto s = sink()) s->on_span(event);
}

void emit_event(const LogEvent& event) {
  if (const auto s = sink()) s->on_event(event);
}

void publish_metrics() {
  if (const auto s = sink()) {
    s->on_metrics(MetricsRegistry::instance().snapshot(), now_ns());
  }
}

void flush_sink() {
  if (const auto s = sink()) s->flush();
}

bool init_from_env() {
  const char* path = std::getenv("KERTBN_OBS_JSONL");
  if (path == nullptr || *path == '\0') return false;
  FileSink::Options options;
  if (const char* cap = std::getenv("KERTBN_OBS_JSONL_MAX_BYTES")) {
    const long long v = std::atoll(cap);
    if (v > 0) options.max_bytes = static_cast<std::size_t>(v);
  }
  set_sink(std::make_shared<FileSink>(path, options));
  return true;
}

// --------------------------------------------------------------- FileSink

FileSink::FileSink(const std::string& path) : FileSink(path, Options{}) {}

FileSink::FileSink(const std::string& path, Options options)
    : path_(path), options_(options) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    throw std::runtime_error("obs::FileSink: cannot open " + path);
  }
}

FileSink::~FileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t FileSink::rotations() const {
  std::lock_guard lock(mutex_);
  return rotations_;
}

std::size_t FileSink::dropped_events() const {
  std::lock_guard lock(mutex_);
  return dropped_events_;
}

void FileSink::write_line(const std::string& line) {
  std::lock_guard lock(mutex_);
  if (options_.max_bytes > 0 &&
      bytes_written_ + line.size() > options_.max_bytes) {
    // Rotate: the current file moves to <path>.1 (replacing any older one)
    // and a fresh file takes its place. On failure the sink stays closed
    // and retries on the next write — the cap is hard, so the event is
    // dropped rather than letting a soak fill the disk.
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    const std::string rotated = path_ + ".1";
    std::remove(rotated.c_str());
    if (std::rename(path_.c_str(), rotated.c_str()) == 0) {
      file_ = std::fopen(path_.c_str(), "w");
    }
    if (file_ != nullptr) {
      bytes_written_ = 0;
      ++rotations_;
    }
  }
  const bool over_cap =
      options_.max_bytes > 0 &&
      bytes_written_ + line.size() > options_.max_bytes;
  if (file_ == nullptr || over_cap) {
    ++dropped_events_;
    static Counter& dropped =
        MetricsRegistry::instance().counter("kert.obs.sink_dropped_events");
    dropped.add(1);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
  bytes_written_ += line.size();
}

void FileSink::on_span(const SpanEvent& event) {
  json::Writer w;
  w.begin_object()
      .field("type", "span")
      .field("name", event.name)
      .field("trace", event.trace_id)
      .field("span", event.span_id)
      .field("parent", event.parent_id)
      .field("thread", event.thread_id)
      .field("t_ns", event.start_ns)
      .field("dur_ns", event.duration_ns);
  write_tags(w, event.tags);
  w.end_object();
  write_line(w.take() + '\n');
}

void FileSink::on_event(const LogEvent& event) {
  json::Writer w;
  w.begin_object()
      .field("type", "event")
      .field("name", event.name)
      .field("t_ns", event.t_ns);
  write_tags(w, event.tags);
  w.end_object();
  write_line(w.take() + '\n');
}

void FileSink::on_metrics(const MetricsSnapshot& snapshot,
                          std::uint64_t t_ns) {
  json::Writer w;
  w.begin_object().field("type", "metrics").field("t_ns", t_ns);
  w.key("counters").begin_object();
  for (const auto& [name, v] : snapshot.counters) w.field(name, v);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, v] : snapshot.gauges) w.field(name, v);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name)
        .begin_object()
        .field("count", h.count)
        .field("sum", h.sum)
        .field("max", h.max);
    w.key("buckets").begin_array();
    // Trailing zero buckets are elided to keep lines short; consumers
    // treat missing entries as zero.
    std::size_t last = HistogramStats::kBuckets;
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t i = 0; i < last; ++i) w.value(h.buckets[i]);
    w.end_array().end_object();
  }
  w.end_object().end_object();
  write_line(w.take() + '\n');
}

void FileSink::flush() {
  std::lock_guard lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace kertbn::obs
