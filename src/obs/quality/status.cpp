#include "obs/quality/status.hpp"

#include <string_view>

#include "obs/json.hpp"

namespace kertbn::quality {

namespace {

using obs::json::Value;

// Lenient member reads: a missing or mistyped member reads as its zero
// value.

std::string str(const Value& v, std::string_view key) {
  const Value* m = v.find(key);
  return m != nullptr && m->kind == Value::Kind::kString ? m->string : "";
}

double num(const Value& v, std::string_view key) {
  const Value* m = v.find(key);
  return m != nullptr && m->kind == Value::Kind::kNumber ? m->number : 0.0;
}

std::uint64_t u64(const Value& v, std::string_view key) {
  // Casting a double outside [0, 2^64) to an integer is undefined, so
  // out-of-range counts read as zero too.
  const double n = num(v, key);
  return n >= 0.0 && n < 18446744073709551616.0
             ? static_cast<std::uint64_t>(n)
             : 0;
}

bool flag(const Value& v, std::string_view key) {
  const Value* m = v.find(key);
  return m != nullptr && m->kind == Value::Kind::kBool && m->boolean;
}

}  // namespace

std::string StatusReport::to_json() const {
  obs::json::Writer w;
  w.begin_object()
      .field("type", "status_report")
      .field("generated_at", generated_at)
      .field("model_version", model_version)
      .field("model_health", model_health)
      .field("health_transitions", health_transitions);
  w.key("recent_transitions").begin_array();
  for (const TransitionStatus& t : recent_transitions) {
    w.begin_object()
        .field("at", t.at)
        .field("from", t.from)
        .field("to", t.to)
        .field("reason", t.reason)
        .end_object();
  }
  w.end_array()
      .field("failed_reconstructions", failed_reconstructions)
      .field("stale_skips", stale_skips)
      .field("last_failure_reason", last_failure_reason)
      .field("drift_notices", drift_notices)
      .field("last_drift_reason", last_drift_reason)
      .field("overall_drift", overall_drift)
      .field("scorer_ready", scorer_ready)
      .field("scored_snapshot_version", scored_snapshot_version)
      .field("rows_scored", rows_scored)
      .field("rows_unscored", rows_unscored);
  w.key("streams").begin_array();
  for (const StreamStatus& s : streams) {
    w.begin_object()
        .field("name", s.name)
        .field("count", s.count)
        .field("mean_abs_err", s.mean_abs_err)
        .field("mean_z", s.mean_z)
        .field("rms_z", s.rms_z)
        .field("mean_log_score", s.mean_log_score)
        .field("coverage", s.coverage)
        .field("drift", s.drift)
        .field("cusum", s.cusum)
        .field("page_hinkley", s.page_hinkley)
        .field("predicted_mean", s.predicted_mean)
        .field("predicted_stddev", s.predicted_stddev)
        .field("band_lo", s.band_lo)
        .field("band_hi", s.band_hi)
        .end_object();
  }
  w.end_array();

  if (recovery.has_value()) {
    w.key("recovery")
        .begin_object()
        .field("checkpoint_loaded", recovery->checkpoint_loaded)
        .field("server_restored", recovery->server_restored)
        .field("model_restored", recovery->model_restored)
        .field("checkpoint_seq", recovery->checkpoint_seq)
        .field("replayed_records", recovery->replayed_records)
        .field("skipped_crc", recovery->skipped_crc)
        .field("torn_tails", recovery->torn_tails)
        .field("replayed_ingests", recovery->replayed_ingests)
        .field("replayed_misses", recovery->replayed_misses)
        .field("malformed_payloads", recovery->malformed_payloads)
        .end_object();
  }

  if (overload.has_value()) {
    w.key("overload")
        .begin_object()
        .field("level", overload->level)
        .field("transitions", overload->transitions)
        .field("shed_intervals", overload->shed_intervals)
        .field("rejected_ingest", overload->rejected_ingest)
        .field("shed_queries", overload->shed_queries)
        .field("deadline_exceeded", overload->deadline_exceeded)
        .field("deferred_reconstructions", overload->deferred_reconstructions)
        .field("aborted_reconstructions", overload->aborted_reconstructions)
        .end_object();
  }

  w.field("query_count", query_count)
      .field("query_latency_p50_ns", query_latency_p50_ns)
      .field("query_latency_p95_ns", query_latency_p95_ns)
      .field("query_latency_p99_ns", query_latency_p99_ns)
      .field("simd_tier", simd_tier)
      .field("plan_cache_hits", plan_cache_hits)
      .field("plan_cache_misses", plan_cache_misses)
      .end_object();
  return w.take();
}

std::optional<StatusReport> status_report_from_json(const std::string& text) {
  const std::optional<Value> parsed = obs::json::parse(text);
  if (!parsed.has_value() || parsed->kind != Value::Kind::kObject ||
      str(*parsed, "type") != "status_report") {
    return std::nullopt;
  }
  const Value& v = *parsed;

  StatusReport r;
  r.generated_at = num(v, "generated_at");
  r.model_version = u64(v, "model_version");
  r.model_health = str(v, "model_health");
  r.health_transitions = u64(v, "health_transitions");
  if (const Value* ts = v.find("recent_transitions");
      ts != nullptr && ts->kind == Value::Kind::kArray) {
    for (const Value& t : ts->array) {
      if (t.kind != Value::Kind::kObject) return std::nullopt;
      r.recent_transitions.push_back(TransitionStatus{
          num(t, "at"), str(t, "from"), str(t, "to"), str(t, "reason")});
    }
  }
  r.failed_reconstructions = u64(v, "failed_reconstructions");
  r.stale_skips = u64(v, "stale_skips");
  r.last_failure_reason = str(v, "last_failure_reason");
  r.drift_notices = u64(v, "drift_notices");
  r.last_drift_reason = str(v, "last_drift_reason");

  r.overall_drift = str(v, "overall_drift");
  r.scorer_ready = flag(v, "scorer_ready");
  r.scored_snapshot_version = u64(v, "scored_snapshot_version");
  r.rows_scored = u64(v, "rows_scored");
  r.rows_unscored = u64(v, "rows_unscored");
  if (const Value* ss = v.find("streams");
      ss != nullptr && ss->kind == Value::Kind::kArray) {
    for (const Value& s : ss->array) {
      if (s.kind != Value::Kind::kObject) return std::nullopt;
      StreamStatus out;
      out.name = str(s, "name");
      out.count = u64(s, "count");
      out.mean_abs_err = num(s, "mean_abs_err");
      out.mean_z = num(s, "mean_z");
      out.rms_z = num(s, "rms_z");
      out.mean_log_score = num(s, "mean_log_score");
      out.coverage = num(s, "coverage");
      out.drift = str(s, "drift");
      out.cusum = num(s, "cusum");
      out.page_hinkley = num(s, "page_hinkley");
      out.predicted_mean = num(s, "predicted_mean");
      out.predicted_stddev = num(s, "predicted_stddev");
      out.band_lo = num(s, "band_lo");
      out.band_hi = num(s, "band_hi");
      r.streams.push_back(std::move(out));
    }
  }

  if (const Value* rec = v.find("recovery");
      rec != nullptr && rec->kind == Value::Kind::kObject) {
    RecoveryStatus out;
    out.checkpoint_loaded = flag(*rec, "checkpoint_loaded");
    out.server_restored = flag(*rec, "server_restored");
    out.model_restored = flag(*rec, "model_restored");
    out.checkpoint_seq = u64(*rec, "checkpoint_seq");
    out.replayed_records = u64(*rec, "replayed_records");
    out.skipped_crc = u64(*rec, "skipped_crc");
    out.torn_tails = u64(*rec, "torn_tails");
    out.replayed_ingests = u64(*rec, "replayed_ingests");
    out.replayed_misses = u64(*rec, "replayed_misses");
    out.malformed_payloads = u64(*rec, "malformed_payloads");
    r.recovery = out;
  }

  if (const Value* ov = v.find("overload");
      ov != nullptr && ov->kind == Value::Kind::kObject) {
    OverloadStatus out;
    out.level = str(*ov, "level");
    out.transitions = u64(*ov, "transitions");
    out.shed_intervals = u64(*ov, "shed_intervals");
    out.rejected_ingest = u64(*ov, "rejected_ingest");
    out.shed_queries = u64(*ov, "shed_queries");
    out.deadline_exceeded = u64(*ov, "deadline_exceeded");
    out.deferred_reconstructions = u64(*ov, "deferred_reconstructions");
    out.aborted_reconstructions = u64(*ov, "aborted_reconstructions");
    r.overload = out;
  }

  r.query_count = u64(v, "query_count");
  r.query_latency_p50_ns = u64(v, "query_latency_p50_ns");
  r.query_latency_p95_ns = u64(v, "query_latency_p95_ns");
  r.query_latency_p99_ns = u64(v, "query_latency_p99_ns");
  r.simd_tier = str(v, "simd_tier");
  r.plan_cache_hits = u64(v, "plan_cache_hits");
  r.plan_cache_misses = u64(v, "plan_cache_misses");
  return r;
}

}  // namespace kertbn::quality
