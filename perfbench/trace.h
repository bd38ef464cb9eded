// Span recording and the statistics helpers the serve benchmark reports
// with. Spans are recorded from the benchmark's own files around calls into
// the library layers; they stay in memory and are written out at exit.
#ifndef FESIA_PERFBENCH_TRACE_H_
#define FESIA_PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Process CPU seconds (user + system, all threads).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// One timed interval. `parent` indexes the enclosing span in the same
/// log (-1 for a root); spans of one request share `request_id`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// Thread-safe append-only span store.
class SpanLog {
 public:
  /// Appends a span and returns its index.
  int64_t Add(const Span& span);
  /// Appends all of `spans`, re-basing their parent indices, and returns
  /// the index of the first.
  int64_t Append(const std::vector<Span>& spans);
  std::vector<Span> Snapshot() const;
  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
/// Index-aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Nearest-rank percentile of `values` (0 < p < 1), reported only when at
/// least 10 samples lie strictly beyond the chosen rank; otherwise
/// nullopt, because the tail estimate would rest on fewer than 10 points.
std::optional<double> Percentile(std::vector<double> values, double p);

/// Median (the mean of the two middle values for an even count) without
/// the tail rule; 0 when empty.
inline double Median(std::vector<double> values) {
  return fesia::Quantile(std::move(values), 0.5);
}

}  // namespace perfbench

#endif  // FESIA_PERFBENCH_TRACE_H_
