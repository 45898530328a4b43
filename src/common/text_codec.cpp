#include "common/text_codec.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>

namespace kertbn::text {

bool parse_number(std::string_view token, double& out) {
  const char* end = token.data() + token.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  out = v;
  return true;
}

std::string_view Cursor::token() {
  const char* p = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  while (p != end && is_space(*p)) ++p;
  const char* const start = p;
  while (p != end && !is_space(*p)) ++p;
  pos_ = static_cast<std::size_t>(p - text_.data());
  return {start, static_cast<std::size_t>(p - start)};
}

std::string_view Cursor::rest_of_line() {
  const std::size_t start = pos_;
  const std::size_t newline = text_.find('\n', pos_);
  if (newline == std::string_view::npos) {
    pos_ = text_.size();
    return text_.substr(start);
  }
  pos_ = newline + 1;
  return text_.substr(start, newline - start);
}

std::optional<std::string_view> Cursor::bytes(std::size_t n) {
  if (text_.size() - pos_ < n) return std::nullopt;
  const std::string_view out = text_.substr(pos_, n);
  pos_ += n;
  return out;
}

bool Cursor::at_end() const {
  for (std::size_t i = pos_; i < text_.size(); ++i) {
    if (!is_space(text_[i])) return false;
  }
  return true;
}

Writer& Writer::operator<<(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17);
  out_.append(buf, res.ptr);
  return *this;
}

Writer& Writer::hex(std::uint64_t v, std::size_t width) {
  char buf[16];
  char* end = std::to_chars(buf, buf + sizeof(buf), v, 16).ptr;
  const auto digits = static_cast<std::size_t>(end - buf);
  if (digits < width) out_.append(width - digits, '0');
  out_.append(buf, end);
  return *this;
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;  // The file shrank since fstat.
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

}  // namespace kertbn::text
