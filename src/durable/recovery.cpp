#include "durable/recovery.hpp"

#include <charconv>

#include "common/text_codec.hpp"
#include "obs/span.hpp"

namespace kertbn::durable {
namespace {

/// Shortest round-trip representation: parses back to the identical
/// double, and is much cheaper to produce than iostream formatting — the
/// encoder sits on the ingest hot path.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_count(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Sanity caps for payload decoding: a corrupted-but-CRC-valid count (or a
/// hostile journal file) must not drive a giant allocation.
constexpr std::size_t kMaxReports = 4096;
constexpr std::size_t kMaxServicesPerReport = 65536;

struct RecoveryMetrics {
  obs::Counter& recoveries;
  obs::Counter& replayed_ingests;
  obs::Counter& replayed_misses;
  obs::Counter& malformed_payloads;

  static RecoveryMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static RecoveryMetrics m{
        reg.counter("kert.durable.recoveries"),
        reg.counter("kert.durable.replayed_ingests"),
        reg.counter("kert.durable.replayed_misses"),
        reg.counter("kert.durable.malformed_payloads")};
    return m;
  }
};

}  // namespace

std::string encode_ingest(const std::vector<sim::AgentReport>& reports,
                          double response_mean) {
  std::string out;
  encode_ingest_into(out, reports, response_mean);
  return out;
}

void encode_ingest_into(std::string& out,
                        const std::vector<sim::AgentReport>& reports,
                        double response_mean) {
  out.clear();
  std::size_t means = 0;
  for (const auto& report : reports) means += report.service_means.size();
  out.reserve(32 + reports.size() * 24 + means * 40);
  out += "ingest ";
  append_double(out, response_mean);
  out += ' ';
  append_count(out, reports.size());
  for (const auto& report : reports) {
    out += " agent ";
    append_count(out, report.agent);
    out += ' ';
    append_count(out, report.service_means.size());
    for (const auto& [service, mean] : report.service_means) {
      out += ' ';
      append_count(out, service);
      out += ' ';
      append_double(out, mean);
    }
  }
}

std::string encode_missed() { return "miss"; }

bool decode_event(std::string_view payload, IngestEvent& out) {
  text::Cursor in(payload);
  const std::string_view keyword = in.token();
  if (keyword == "miss") {
    out.missed = true;
    out.reports.clear();
    out.response_mean = 0.0;
    return in.at_end();
  }
  if (keyword != "ingest") return false;
  out.missed = false;
  std::size_t n_reports = 0;
  if (!in.number(out.response_mean) || !in.count(n_reports)) return false;
  if (n_reports > kMaxReports) return false;
  out.reports.clear();
  out.reports.reserve(n_reports);
  for (std::size_t r = 0; r < n_reports; ++r) {
    sim::AgentReport report;
    std::size_t n_services = 0;
    if (in.token() != "agent" || !in.count(report.agent) ||
        !in.count(n_services) || n_services > kMaxServicesPerReport) {
      return false;
    }
    report.service_means.resize(n_services);
    for (auto& [service, mean] : report.service_means) {
      if (!in.count(service) || !in.number(mean)) return false;
    }
    out.reports.push_back(std::move(report));
  }
  // Trailing garbage means the payload is not what we encoded.
  return in.at_end();
}

void ServerJournal::attach(sim::ManagementServer& server) {
  server.set_ingest_log(
      [this](const std::vector<sim::AgentReport>& reports,
             double response_mean) {
        encode_ingest_into(scratch_, reports, response_mean);
        writer_.append(scratch_);
      });
  server.set_missed_log([this] { writer_.append(encode_missed()); });
}

void ServerJournal::detach(sim::ManagementServer& server) {
  server.set_ingest_log(nullptr);
  server.set_missed_log(nullptr);
}

RecoveryReport RecoveryManager::recover(sim::ManagementServer& server,
                                        core::ModelManager* manager,
                                        double now) const {
  KERTBN_SPAN_VAR(span, "durable.recover");
  RecoveryReport report;

  // 1. Newest valid checkpoint, if any. A rejected checkpoint leaves
  // checkpoint_seq at 0, so the journal is replayed from the beginning.
  CheckpointStore store(CheckpointStore::Config{dir_});
  std::string ckpt_error;
  if (auto ckpt = store.load_newest(&ckpt_error)) {
    report.checkpoint_loaded = true;
    report.checkpoint_seq = ckpt->journal_seq;
    report.server_restored = server.restore_state(ckpt->server);
    if (!report.server_restored) {
      // Shape mismatch (e.g. a checkpoint from a different deployment):
      // ignore it entirely and rebuild the state from the journal alone.
      report.checkpoint_seq = 0;
    } else if (manager != nullptr) {
      report.model_restored =
          manager->restore_from_checkpoint(ckpt->manager, now);
    }
  }

  // 2. Replay everything past the checkpoint through the server. The
  // journal hooks must not be attached yet — replayed events are already
  // durable and must not be re-journaled with fresh sequence numbers.
  report.replay = replay_journal(
      dir_, report.checkpoint_seq,
      [&](std::uint64_t, std::string_view payload) {
        IngestEvent event;
        if (!decode_event(payload, event)) {
          ++report.malformed_payloads;
          return;
        }
        if (event.missed) {
          server.note_missed_interval();
          ++report.replayed_misses;
        } else {
          server.ingest_interval(event.reports, event.response_mean);
          ++report.replayed_ingests;
        }
      });

  span.tag("checkpoint_seq", report.checkpoint_seq);
  span.tag("replayed_ingests",
           static_cast<std::uint64_t>(report.replayed_ingests));
  span.tag("replayed_misses",
           static_cast<std::uint64_t>(report.replayed_misses));
  span.tag("model_restored", report.model_restored);
  if (obs::enabled()) {
    RecoveryMetrics& m = RecoveryMetrics::get();
    m.recoveries.add(1);
    m.replayed_ingests.add(report.replayed_ingests);
    m.replayed_misses.add(report.replayed_misses);
    m.malformed_payloads.add(report.malformed_payloads);
  }
  return report;
}

}  // namespace kertbn::durable
