#include "durable/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <string_view>

#include "common/contract.hpp"
#include "common/text_codec.hpp"
#include "durable/crc32c.hpp"
#include "obs/span.hpp"

namespace kertbn::durable {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "kertbn-checkpoint";
constexpr std::size_t kVersion = 1;
/// A corrupt length field must not turn into a giant allocation.
constexpr std::size_t kMaxModelBytes = 1u << 26;
constexpr std::size_t kMaxWindowValues = 10'000'000;

struct CheckpointMetrics {
  obs::Counter& written;
  obs::Counter& rejected;
  obs::Counter& bytes;

  static CheckpointMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static CheckpointMetrics m{
        reg.counter("kert.durable.checkpoints_written"),
        reg.counter("kert.durable.checkpoints_rejected"),
        reg.counter("kert.durable.checkpoint_bytes")};
    return m;
  }
};

std::string checkpoint_name(std::uint64_t journal_seq) {
  text::Writer out;
  out << "ckpt-";
  out.hex(journal_seq, 16) << ".ck";
  return std::move(out.str());
}

/// Body then CRC footer: the footer "crc <8 hex>\n" covers every byte of
/// the body (through "end\n").
std::string serialize(const Checkpoint& ckpt) {
  const sim::ServerState& s = ckpt.server;
  text::Writer out;
  out.reserve(256 + 25 * (s.window.size() + s.last_seen.size()) +
              ckpt.manager.model_text.size());
  out << kMagic << ' ' << kVersion << '\n';
  out << "seq " << ckpt.journal_seq << '\n';
  out << "now " << ckpt.sim_now << '\n';
  out << "server " << s.rows << ' ' << s.cols << '\n';
  for (std::size_t r = 0; r < s.rows; ++r) {
    out << "row";
    for (std::size_t c = 0; c < s.cols; ++c) {
      out << ' ' << s.window[r * s.cols + c];
    }
    out << '\n';
  }
  out << "seen " << s.last_seen.size();
  for (const auto& v : s.last_seen) {
    if (v.has_value()) {
      out << ' ' << *v;
    } else {
      out << " -";
    }
  }
  out << '\n';
  out << "counters " << s.total_points << ' ' << s.dropped_intervals << ' '
      << s.quarantined_values << ' ' << s.duplicate_values << ' '
      << s.consecutive_missed_intervals << '\n';
  out << "manager " << ckpt.manager.next_due << ' ' << ckpt.manager.version
      << '\n';
  // The serialized model is framed by byte count — it is multi-line text.
  out << "model " << ckpt.manager.model_text.size() << '\n';
  out << ckpt.manager.model_text;
  out << "end\n";
  const std::uint32_t crc = mask_crc(crc32c(out.str()));
  out << "crc ";
  out.hex(crc, 8) << '\n';
  return std::move(out.str());
}

/// Fallible parser mirroring serialize()'s body. Any mismatch → nullopt.
std::optional<Checkpoint> parse(std::string_view body, std::string* error) {
  const auto fail = [&](const char* what) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };

  text::Cursor in(body);
  std::size_t version = 0;
  if (in.token() != kMagic || !in.count(version) || version != kVersion) {
    return fail("bad checkpoint header");
  }

  Checkpoint ckpt;
  if (in.token() != "seq" || !in.count(ckpt.journal_seq)) {
    return fail("bad seq line");
  }
  if (in.token() != "now" || !in.number(ckpt.sim_now)) {
    return fail("bad now line");
  }

  sim::ServerState& s = ckpt.server;
  if (in.token() != "server" || !in.count(s.rows) || !in.count(s.cols)) {
    return fail("bad server line");
  }
  if (s.cols == 0 || s.rows > kMaxWindowValues ||
      s.cols > kMaxWindowValues || s.rows * s.cols > kMaxWindowValues) {
    return fail("window shape exceeds sanity cap");
  }
  s.window.resize(s.rows * s.cols);
  for (std::size_t r = 0; r < s.rows; ++r) {
    if (in.token() != "row") return fail("bad row line");
    for (std::size_t c = 0; c < s.cols; ++c) {
      if (!in.number(s.window[r * s.cols + c])) return fail("bad row value");
    }
  }

  std::size_t n_seen = 0;
  if (in.token() != "seen" || !in.count(n_seen) ||
      n_seen > kMaxWindowValues) {
    return fail("bad seen line");
  }
  s.last_seen.resize(n_seen);
  for (std::size_t i = 0; i < n_seen; ++i) {
    const std::string_view token = in.token();
    double v = 0.0;
    if (token == "-") {
      s.last_seen[i] = std::nullopt;
    } else if (text::parse_number(token, v)) {
      s.last_seen[i] = v;
    } else {
      return fail("bad seen value");
    }
  }

  if (in.token() != "counters" || !in.count(s.total_points) ||
      !in.count(s.dropped_intervals) || !in.count(s.quarantined_values) ||
      !in.count(s.duplicate_values) ||
      !in.count(s.consecutive_missed_intervals)) {
    return fail("bad counters line");
  }
  if (in.token() != "manager" || !in.number(ckpt.manager.next_due) ||
      !in.count(ckpt.manager.version)) {
    return fail("bad manager line");
  }

  std::size_t model_bytes = 0;
  if (in.token() != "model" || !in.count(model_bytes) ||
      model_bytes > kMaxModelBytes || !in.rest_of_line().empty()) {
    return fail("bad model frame");
  }
  const std::optional<std::string_view> model = in.bytes(model_bytes);
  if (!model.has_value()) return fail("model text cut short");
  ckpt.manager.model_text = *model;
  if (in.token() != "end") return fail("missing end");
  if (!in.at_end()) return fail("bytes after end");
  return ckpt;
}

}  // namespace

std::optional<Checkpoint> load_checkpoint_file(const std::string& path,
                                               std::string* error) {
  const std::optional<std::string> data = text::read_file(path);
  if (!data.has_value()) {
    if (error != nullptr) *error = "cannot open checkpoint file";
    return std::nullopt;
  }

  // Split the CRC footer off the body: the last line is "crc <8 hex>".
  const std::size_t footer_at = data->rfind("crc ");
  if (footer_at == std::string::npos ||
      (footer_at != 0 && (*data)[footer_at - 1] != '\n')) {
    if (error != nullptr) *error = "missing crc footer";
    return std::nullopt;
  }
  const std::string_view body(data->data(), footer_at);
  text::Cursor footer(std::string_view(*data).substr(footer_at + 4));
  std::uint32_t stored = 0;
  if (!text::parse_count(footer.token(), stored, 16) || !footer.at_end()) {
    if (error != nullptr) *error = "unparsable crc footer";
    return std::nullopt;
  }
  if (mask_crc(crc32c(body)) != stored) {
    if (error != nullptr) *error = "checkpoint crc mismatch";
    return std::nullopt;
  }
  return parse(body, error);
}

CheckpointStore::CheckpointStore(Config config) : config_(std::move(config)) {
  KERTBN_EXPECTS(!config_.dir.empty());
  KERTBN_EXPECTS(config_.keep >= 1);
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
}

std::vector<std::string> CheckpointStore::files() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 8 &&
        name.substr(name.size() - 3) == ".ck") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CheckpointStore::write(const Checkpoint& ckpt) {
  KERTBN_SPAN_VAR(span, "durable.checkpoint");
  const std::string payload = serialize(ckpt);

  const fs::path final_path =
      fs::path(config_.dir) / checkpoint_name(ckpt.journal_seq);
  const fs::path tmp_path = final_path.string() + ".tmp";

  // Write-to-temp + fsync + rename + directory fsync: a crash at any point
  // leaves either the old set of checkpoints or the complete new file —
  // never a half-written file under the final name.
  {
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    KERTBN_ASSERT(fd >= 0 && "cannot open checkpoint temp file");
    std::size_t written = 0;
    while (written < payload.size()) {
      const ssize_t n =
          ::write(fd, payload.data() + written, payload.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        KERTBN_ASSERT(false && "checkpoint write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  KERTBN_ASSERT(!ec && "checkpoint rename failed");
  {
    const int dfd = ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }

  // Retire the oldest files beyond the retention count — but never the
  // newest *valid* checkpoint. Names sort by journal seq, and a recovery
  // that replayed from an old checkpoint can legitimately write a lower
  // seq than a damaged file already on disk; pruning by name alone would
  // then delete the only loadable checkpoint and leave just the torn one
  // (torn-newest + keep-1). The file this call just wrote is valid by
  // construction, so only files sorting after it ever need parsing here.
  std::vector<std::string> all = files();
  std::string newest_valid;
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (*it == final_path.string() || load_checkpoint_file(*it, nullptr)) {
      newest_valid = *it;
      break;
    }
  }
  std::size_t retained = all.size();
  for (const std::string& path : all) {
    if (retained <= config_.keep) break;
    if (path == newest_valid) continue;
    fs::remove(path, ec);
    --retained;
  }

  span.tag("journal_seq", ckpt.journal_seq);
  span.tag("bytes", static_cast<std::uint64_t>(payload.size()));
  if (obs::enabled()) {
    CheckpointMetrics& m = CheckpointMetrics::get();
    m.written.add(1);
    m.bytes.add(payload.size());
  }
}

std::optional<Checkpoint> CheckpointStore::load_newest(
    std::string* error) const {
  KERTBN_SPAN("durable.checkpoint.load");
  std::vector<std::string> all = files();
  std::string first_error;
  // Newest first; a damaged file falls through to its predecessor.
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    std::string file_error;
    if (auto ckpt = load_checkpoint_file(*it, &file_error)) {
      if (error != nullptr) *error = "";
      return ckpt;
    }
    if (first_error.empty()) first_error = *it + ": " + file_error;
    if (obs::enabled()) CheckpointMetrics::get().rejected.add(1);
  }
  if (error != nullptr) {
    *error = first_error.empty() ? "no checkpoint files" : first_error;
  }
  return std::nullopt;
}

Checkpoint capture_checkpoint(const sim::ManagementServer& server,
                              const core::ModelManager& manager,
                              double sim_now, std::uint64_t journal_seq) {
  Checkpoint ckpt;
  ckpt.journal_seq = journal_seq;
  ckpt.sim_now = sim_now;
  ckpt.server = server.export_state();
  ckpt.manager = manager.export_checkpoint();
  return ckpt;
}

}  // namespace kertbn::durable
