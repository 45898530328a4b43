#include "durable/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/contract.hpp"
#include "common/text_codec.hpp"
#include "durable/crc32c.hpp"
#include "fault/fault_injector.hpp"
#include "obs/span.hpp"

namespace kertbn::durable {
namespace {

namespace fs = std::filesystem;

/// Telemetry for the durability layer's write and replay paths.
struct DurableMetrics {
  obs::Counter& appends;
  obs::Counter& fsyncs;
  obs::Counter& rotations;
  obs::Counter& dropped_writes;
  obs::Counter& replayed_records;
  obs::Counter& skipped_crc;
  obs::Counter& torn_tails;
  obs::Counter& bad_segments;

  static DurableMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static DurableMetrics m{reg.counter("kert.durable.appends"),
                            reg.counter("kert.durable.fsyncs"),
                            reg.counter("kert.durable.rotations"),
                            reg.counter("kert.durable.dropped_writes"),
                            reg.counter("kert.durable.replayed_records"),
                            reg.counter("kert.durable.skipped_crc_records"),
                            reg.counter("kert.durable.torn_tails"),
                            reg.counter("kert.durable.bad_segments")};
    return m;
  }
};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::string segment_name(std::uint64_t first_seq) {
  text::Writer out;
  out << "journal-";
  out.hex(first_seq, 16) << ".seg";
  return std::move(out.str());
}

/// CRC input is seq ‖ payload so a record copied to the wrong position
/// (or a stale sector resurfacing) fails verification.
std::uint32_t record_crc(std::uint64_t seq, std::string_view payload) {
  std::string head;
  head.reserve(8);
  put_u64(head, seq);
  return mask_crc(crc32c(payload.data(), payload.size(),
                         crc32c(head.data(), head.size())));
}

/// fsyncs the directory itself so renames/creations are durable too.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Parses one segment file, delivering intact records past after_seq.
/// Damage never throws out of here: a bad header voids the segment, a bad
/// frame voids the tail, a bad CRC voids just that record.
void replay_segment(
    const std::string& path, std::uint64_t after_seq, ReplayStats& stats,
    const std::function<void(std::uint64_t, std::string_view)>& fn) {
  const std::optional<std::string> file = text::read_file(path);
  if (!file.has_value()) {
    ++stats.bad_segments;
    return;
  }
  const std::string& data = *file;
  if (data.size() < kSegmentHeaderBytes ||
      std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    ++stats.bad_segments;
    return;
  }
  ++stats.segments;

  std::size_t pos = kSegmentHeaderBytes;
  while (pos < data.size()) {
    if (data.size() - pos < kRecordHeaderBytes) {
      ++stats.torn_tails;
      return;
    }
    const std::uint32_t len = get_u32(data.data() + pos);
    const std::uint32_t stored_crc = get_u32(data.data() + pos + 4);
    const std::uint64_t seq = get_u64(data.data() + pos + 8);
    if (len > kMaxRecordBytes ||
        data.size() - pos - kRecordHeaderBytes < len) {
      // Either the length prefix itself is corrupt or the payload was cut
      // short by a crash; both look like a tail we cannot walk past.
      ++stats.torn_tails;
      return;
    }
    const std::string_view payload(data.data() + pos + kRecordHeaderBytes,
                                   len);
    pos += kRecordHeaderBytes + len;
    if (record_crc(seq, payload) != stored_crc) {
      ++stats.skipped_crc;
      continue;
    }
    stats.last_seq = std::max(stats.last_seq, seq);
    if (seq <= after_seq) continue;
    ++stats.records;
    if (fn) fn(seq, payload);
  }
}

}  // namespace

std::vector<std::string> journal_segments(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 &&
        name.size() > 12 && name.substr(name.size() - 4) == ".seg") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

JournalWriter::JournalWriter(JournalConfig config)
    : config_(std::move(config)) {
  KERTBN_EXPECTS(!config_.dir.empty());
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  // Continue numbering after the last durable record — even if the tail of
  // the previous process's segment is torn, intact records keep their seqs.
  ReplayStats scan;
  for (const auto& path : journal_segments(config_.dir)) {
    replay_segment(path, ~std::uint64_t{0}, scan, nullptr);
  }
  next_seq_ = scan.last_seq + 1;
}

JournalWriter::~JournalWriter() {
  close_segment(config_.fsync != FsyncPolicy::kNone);
}

std::size_t JournalWriter::write_raw(const char* data, std::size_t size) {
  std::size_t keep = size;
  if (const fault::FaultInjector* inj = fault::active()) {
    if (const auto cutoff = inj->journal_write_cutoff()) {
      if (bytes_appended_ >= *cutoff) {
        keep = 0;
      } else {
        keep = std::min<std::uint64_t>(size, *cutoff - bytes_appended_);
      }
      if (keep < size && obs::enabled()) {
        DurableMetrics::get().dropped_writes.add(1);
      }
    }
  }
  bytes_appended_ += size;
  std::size_t written = 0;
  while (written < keep) {
    const ssize_t n = ::write(fd_, data + written, keep - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      KERTBN_ASSERT(false && "journal write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  return keep;
}

void JournalWriter::open_segment() {
  const std::string path =
      (fs::path(config_.dir) / segment_name(next_seq_)).string();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  KERTBN_ASSERT(fd_ >= 0 && "cannot open journal segment");
  segment_bytes_ = 0;
  ++segments_opened_;
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  put_u64(header, next_seq_);
  segment_bytes_ += write_raw(header.data(), header.size());
  fsync_dir(config_.dir);
}

void JournalWriter::close_segment(bool fsync_segment) {
  if (fd_ < 0) return;
  // A simulated crash (active write cutoff) never reaches fsync: the dying
  // process loses whatever the kernel had not flushed.
  bool crashed = false;
  if (const fault::FaultInjector* inj = fault::active()) {
    const auto cutoff = inj->journal_write_cutoff();
    crashed = cutoff.has_value() && bytes_appended_ >= *cutoff;
  }
  if (fsync_segment && !crashed) {
    ::fsync(fd_);
    if (obs::enabled()) DurableMetrics::get().fsyncs.add(1);
  }
  ::close(fd_);
  fd_ = -1;
}

std::uint64_t JournalWriter::append(std::string_view payload) {
  KERTBN_EXPECTS(payload.size() <= kMaxRecordBytes);
  if (fd_ < 0) open_segment();
  const std::uint64_t seq = next_seq_++;

  frame_.clear();
  frame_.reserve(kRecordHeaderBytes + payload.size());
  put_u32(frame_, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame_, record_crc(seq, payload));
  put_u64(frame_, seq);
  frame_.append(payload);
  segment_bytes_ += write_raw(frame_.data(), frame_.size());

  if (config_.fsync == FsyncPolicy::kPerRecord) sync();
  if (obs::enabled()) DurableMetrics::get().appends.add(1);

  if (segment_bytes_ >= config_.max_segment_bytes) {
    close_segment(config_.fsync != FsyncPolicy::kNone);
    if (obs::enabled()) DurableMetrics::get().rotations.add(1);
    // The next append opens the successor segment named by its first seq.
  }
  return seq;
}

void JournalWriter::sync() {
  if (fd_ < 0) return;
  bool crashed = false;
  if (const fault::FaultInjector* inj = fault::active()) {
    const auto cutoff = inj->journal_write_cutoff();
    crashed = cutoff.has_value() && bytes_appended_ >= *cutoff;
  }
  if (config_.fsync != FsyncPolicy::kNone && !crashed) {
    ::fsync(fd_);
    if (obs::enabled()) DurableMetrics::get().fsyncs.add(1);
  }
}

ReplayStats replay_journal(
    const std::string& dir, std::uint64_t after_seq,
    const std::function<void(std::uint64_t, std::string_view)>& fn) {
  KERTBN_SPAN_VAR(span, "durable.replay");
  ReplayStats stats;
  for (const auto& path : journal_segments(dir)) {
    replay_segment(path, after_seq, stats, fn);
  }
  span.tag("records", stats.records);
  span.tag("skipped_crc", stats.skipped_crc);
  span.tag("torn_tails", stats.torn_tails);
  span.tag("segments", stats.segments);
  if (obs::enabled()) {
    DurableMetrics& m = DurableMetrics::get();
    m.replayed_records.add(stats.records);
    m.skipped_crc.add(stats.skipped_crc);
    m.torn_tails.add(stats.torn_tails);
    m.bad_segments.add(stats.bad_segments);
  }
  return stats;
}

std::size_t prune_journal(const std::string& dir, std::uint64_t upto_seq) {
  const std::vector<std::string> segments = journal_segments(dir);
  if (segments.size() < 2) return 0;
  std::size_t removed = 0;
  // A segment is removable when the next segment starts at or below
  // upto_seq + 1: every record it holds is then <= upto_seq. The newest
  // segment always stays.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    std::ifstream next(segments[i + 1], std::ios::binary);
    char header[kSegmentHeaderBytes] = {};
    if (!next.read(header, sizeof(header)) ||
        std::memcmp(header, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
      break;
    }
    const std::uint64_t next_first = get_u64(header + 8);
    if (next_first > upto_seq + 1) break;
    std::error_code ec;
    if (fs::remove(segments[i], ec) && !ec) ++removed;
  }
  if (removed > 0) fsync_dir(dir);
  return removed;
}

}  // namespace kertbn::durable
