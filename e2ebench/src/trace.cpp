#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2e {

namespace {

/// Children of each span, in recording order.
std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      kids[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return kids;
}

/// Length of the union of the children's intervals inside the parent.
std::int64_t covered_ns(const std::vector<Span>& spans, const Span& parent,
                        const std::vector<std::size_t>& kids) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(kids.size());
  for (std::size_t k : kids) {
    const std::int64_t a = std::max(spans[k].start_ns, parent.start_ns);
    const std::int64_t b = std::min(spans[k].end_ns, parent.end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration_ns() - covered_ns(spans, spans[i], kids[i]);
  }
  return out;
}

double coverage(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::int64_t busy = 0;
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    busy += spans[i].duration_ns();
    covered += covered_ns(spans, spans[i], kids[i]);
  }
  if (busy <= 0) return 1.0;
  return static_cast<double>(covered) / static_cast<double>(busy);
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 std::uint32_t name, bool self) {
  std::vector<std::int64_t> selfs;
  if (self) selfs = self_times_ns(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    const std::int64_t ns = self ? selfs[i] : spans[i].duration_ns();
    out.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "e2e-spans 1 %zu\n", sizeof(Span)) > 0;
  if (!logs.empty()) {
    const SpanLog& first = *logs.front();
    for (std::uint32_t i = 0; first.has_name(i); ++i) {
      ok = ok && std::fprintf(f, "%s%s", i ? " " : "", first.name(i)) > 0;
    }
  }
  ok = ok && std::fputc('\n', f) != EOF;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    ok = ok && std::fprintf(f, "%s %zu\n", log->thread().c_str(),
                            spans.size()) > 0;
    ok = ok && std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                   spans.size();
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace e2e
