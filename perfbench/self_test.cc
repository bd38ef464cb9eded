// Self-tests of the serve benchmark's own machinery: the percentile rule,
// span self time, and the answer oracle. Exits non-zero on the first
// failed expectation; run.py runs it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "oracle.h"
#include "serve/protocol.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helper must sort
}

void TestPercentileRule() {
  // 1000 samples: p99 is rank 990 with exactly 10 samples beyond it.
  auto p99 = Percentile(Ramp(1000), 0.99);
  Expect(p99 && *p99 == 990.0, "p99 of 1000 samples is rank 990");
  Expect(!Percentile(Ramp(999), 0.99),
         "p99 of 999 samples is refused (only 9 beyond)");
  auto p50 = Percentile(Ramp(20), 0.5);
  Expect(p50 && *p50 == 10.0, "p50 of 20 samples is rank 10");
  Expect(!Percentile(Ramp(19), 0.5), "p50 of 19 samples is refused");
  Expect(!Percentile({}, 0.5), "empty input is refused");
  Expect(Median(Ramp(5)) == 3.0 && Median(Ramp(4)) == 2.5,
         "median averages the middle pair of an even count");
}

void TestSelfTimes() {
  // parent [0,100]; children [10,30] and [20,50] overlap; [90,120] sticks
  // out and is clipped; grandchild [12,14] sits inside the first child.
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},        {"c", 90, 120, 0, 1},
      {"grandchild", 12, 14, 1, 1}, {"orphan", 5, 9, 42, 1},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 100 - (40 + 10), "parent self time excludes the union");
  Expect(self[1] == 18, "child self time excludes its grandchild");
  Expect(self[2] == 30 && self[3] == 30, "leaf self time is its duration");
  Expect(self[5] == 4, "a span with an unknown parent is a root");
  SpanLog log;
  log.Add({"x", 0, 1, -1, 7});
  const int64_t base = log.Append({{"y", 0, 10, -1, 8}, {"z", 2, 3, 0, 8}});
  Expect(base == 1 && log.Snapshot()[2].parent == 1,
         "appended parents are re-based");
}

void TestOracle() {
  using fesia::serve::WireResult;
  auto idx = fesia::index::InvertedIndex::FromPostings(
      20, {{1, 3, 5, 7, 9}, {3, 4, 5, 9, 12}, {5, 9, 13}});
  const std::vector<std::vector<uint32_t>> queries = {{0, 1}, {0, 1, 2}};
  std::vector<Answer> answers;
  fesia::serve::Request req;
  req.op = fesia::serve::Op::kQuery;
  req.has_id = true;
  req.id = 77;
  req.queries = queries;
  std::vector<std::string> fragments;
  for (const auto& q : queries) {
    std::vector<std::span<const uint32_t>> lists;
    for (uint32_t t : q) lists.push_back(idx.Postings(t));
    WireResult w;
    w.docs = ReferenceAnd(lists);
    w.count = w.docs.size();
    w.shards_answered = w.shards_total = 2;
    w.attempts = 1;
    answers.push_back({w.count, DocsDigest(w.docs)});
    fragments.push_back(fesia::serve::BuildResultJson(w, req.op));
  }
  Expect(answers[0].count == 3 && answers[1].count == 2,
         "reference AND over the postings");
  const std::vector<const Answer*> ptrs = {&answers[0], &answers[1]};
  fesia::index::BatchStats stats;
  std::string good =
      fesia::serve::BuildResponseLine(req, fragments, stats, 0, 2);
  good.pop_back();  // the client strips the newline

  Expectation e;
  e.id = 77;
  e.num_queries = 2;
  e.shards = 2;
  e.materialize = true;
  e.answers = ptrs;
  std::string error;
  Expect(CheckResponse(good, e, &error), "a correct response is accepted");
  Expectation structure = e;
  structure.answers = {};
  Expect(CheckResponse(good, structure, &error),
         "a correct response passes the structure check");

  auto replaced = [&good](const std::string& from, const std::string& to) {
    std::string s = good;
    const size_t at = s.find(from);
    if (at == std::string::npos) std::abort();
    s.replace(at, from.size(), to);
    return s;
  };
  const std::vector<std::pair<std::string, std::string>> corrupt = {
      {replaced("\"docs\":[3,5,9]", "\"docs\":[3,5,8]"), "wrong doc"},
      {replaced("\"docs\":[3,5,9]", "\"docs\":[3,9,5]"), "docs not ascending"},
      {replaced("\"count\":3", "\"count\":4"), "wrong count"},
      {replaced("\"ok\":true", "\"ok\":false"), "not ok"},
      {replaced("\"id\":77", "\"id\":78"), "wrong id"},
      {replaced("\"shards_answered\":2", "\"shards_answered\":1"),
       "partial answer"},
      {replaced("\"outcome\":\"ok\"", "\"outcome\":\"shed\""), "shed"},
      {good.substr(0, good.size() / 2), "truncated"},
      {good + "x", "trailing garbage"},
  };
  for (const auto& [line, what] : corrupt) {
    Expect(!CheckResponse(line, e, &error),
           ("exact check rejects: " + what).c_str());
  }
  Expect(!CheckResponse(corrupt[1].first, structure, &error),
         "structure check rejects unsorted docs");
  Expect(!CheckResponse(corrupt[5].first, structure, &error),
         "structure check rejects a partial answer");
  Expectation fewer = e;
  fewer.num_queries = 3;
  Expect(!CheckResponse(good, fewer, &error), "a missing result is rejected");

  ContentModel model(&idx);
  model.Upsert(4, {0, 2});
  model.Delete(9);
  Expect(model.Postings(0) == std::vector<uint32_t>({1, 3, 4, 5, 7}),
         "model applies upserts and deletes");
  Expect(model.Postings(1) == std::vector<uint32_t>({3, 5, 12}),
         "an upsert replaces the document's terms");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSelfTimes();
  perfbench::TestOracle();
  if (perfbench::g_failures == 0) std::printf("perfbench self-test: ok\n");
  return perfbench::g_failures == 0 ? 0 : 1;
}
