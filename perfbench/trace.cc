#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

double ToSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

double RusageSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ToSeconds(ru.ru_utime) + ToSeconds(ru.ru_stime);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() { return RusageSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return RusageSeconds(RUSAGE_THREAD); }

int64_t SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanLog::Append(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span s : spans) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
  return base;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                 "\"self_ns\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::optional<double> Percentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0 || p <= 0 || p >= 1) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or below.
  // The epsilon keeps p*n that is integral in exact arithmetic (0.99 * 1000)
  // from rounding up a rank.
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

}  // namespace perfbench
