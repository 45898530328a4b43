#pragma once
/// \file sink.hpp
/// Pluggable event pipeline for the self-telemetry layer. Spans (span.hpp)
/// and metrics snapshots (metrics.hpp) are pushed as structured events into
/// a process-wide sink. The default sink is null — instrumented code pays
/// only an atomic flag check — and a JSONL file sink can be installed
/// (programmatically or via the KERTBN_OBS_JSONL environment variable) so
/// runs produce machine-readable traces:
///
///   {"type":"span","name":"kert.reconstruct","trace":3,"span":3,
///    "parent":0,"thread":0,"t_ns":81234,"dur_ns":1523011,
///    "tags":{"version":2,"incremental":true,"rows_touched":12}}
///   {"type":"metrics","t_ns":99123,"counters":{...},"gauges":{...},
///    "histograms":{"pool.task_run_ns":{"count":40,"sum":...,"max":...}}}

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"

namespace kertbn::obs {

/// One key/value annotation on a span.
struct SpanTag {
  std::string key;
  std::variant<std::uint64_t, double, bool, std::string> value;
};

/// A completed span, as delivered to the sink.
struct SpanEvent {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace.
  std::uint64_t thread_id = 0;  ///< Dense per-process thread ordinal.
  std::uint64_t start_ns = 0;   ///< Steady nanoseconds since process start.
  std::uint64_t duration_ns = 0;
  std::vector<SpanTag> tags;
};

/// A discrete structured occurrence (drift confirmed, early-reconstruction
/// advisory, periodic status dump, ...) — something that happened at one
/// instant, as opposed to a span's measured duration. Serialized by the
/// FileSink as {"type":"event","name":...,"t_ns":...,"tags":{...}}.
struct LogEvent {
  std::string name;
  std::uint64_t t_ns = 0;  ///< now_ns() timebase.
  std::vector<SpanTag> tags;
};

/// Receiver for telemetry events. Implementations must be thread-safe:
/// spans close concurrently on pool workers.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_span(const SpanEvent& event) = 0;
  virtual void on_metrics(const MetricsSnapshot& snapshot,
                          std::uint64_t t_ns) = 0;
  /// Structured instant events; default ignores them so sinks that predate
  /// LogEvent keep compiling.
  virtual void on_event(const LogEvent& event) { (void)event; }
  virtual void flush() {}
};

/// JSONL file sink: one event object per line, append-mode, mutex-guarded.
///
/// The sink can be bounded: with max_bytes > 0 a write that would push the
/// current file past the cap first rotates it to `<path>.1` (replacing any
/// previous `<path>.1`) and starts a fresh file, so a long soak holds at
/// most ~2·max_bytes of telemetry on disk. When rotation or reopening
/// fails (permissions changed, directory vanished) the event is dropped
/// and counted in the `kert.obs.sink_dropped_events` counter — telemetry
/// must never take the serving process down with it.
class FileSink : public EventSink {
 public:
  struct Options {
    /// 0 = unbounded (the default). Otherwise the rotation cap in bytes.
    std::size_t max_bytes = 0;
  };

  /// Opens \p path for writing (truncates). Throws std::runtime_error on
  /// failure so misconfigured telemetry is loud, not silent.
  explicit FileSink(const std::string& path);
  FileSink(const std::string& path, Options options);
  ~FileSink() override;

  void on_span(const SpanEvent& event) override;
  void on_metrics(const MetricsSnapshot& snapshot,
                  std::uint64_t t_ns) override;
  void on_event(const LogEvent& event) override;
  void flush() override;

  const std::string& path() const { return path_; }
  /// Completed rotations (current file reached max_bytes and moved aside).
  std::size_t rotations() const;
  /// Events dropped because rotation/reopen failed (also counted in the
  /// kert.obs.sink_dropped_events metric).
  std::size_t dropped_events() const;

 private:
  /// Appends one serialized line, rotating first when it would overflow
  /// the cap. Drops (and counts) the line when no file can be written.
  void write_line(const std::string& line);

  std::string path_;
  Options options_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::size_t bytes_written_ = 0;  // current file, guarded by mutex_
  std::size_t rotations_ = 0;
  std::size_t dropped_events_ = 0;
};

/// Steady-clock nanoseconds since process start (the timebase of every
/// event timestamp — monotonic and comparable within one run).
std::uint64_t now_ns();

/// Dense ordinal of the calling thread (0 = first thread to ask).
std::uint64_t thread_ordinal();

/// Installs \p sink as the process-wide event receiver (nullptr restores
/// the null sink). Must not race with in-flight spans: install sinks at
/// phase boundaries, not while pool work is running.
void set_sink(std::shared_ptr<EventSink> sink);

/// The current sink (nullptr = null sink).
std::shared_ptr<EventSink> sink();

/// Fast check instrumentation uses before building an event.
bool has_sink();

/// Pushes the given span event to the sink, if any.
void emit_span(const SpanEvent& event);

/// Pushes the given structured event to the sink, if any.
void emit_event(const LogEvent& event);

/// Snapshots the global registry and pushes it to the sink, if any.
void publish_metrics();

/// Flushes the sink, if any.
void flush_sink();

/// Installs a FileSink at $KERTBN_OBS_JSONL when the variable is set and
/// non-empty; $KERTBN_OBS_JSONL_MAX_BYTES (when set and positive) bounds
/// it with size-capped rotation. Returns true when a sink was installed.
bool init_from_env();

}  // namespace kertbn::obs
