// Answer oracle of the serve benchmark: reference answers computed from the
// InvertedIndex postings with the scalar-merge baseline, an independent
// parser for the server's response lines, and a model of the index content
// after the benchmark's own mutations.
#ifndef FESIA_PERFBENCH_ORACLE_H_
#define FESIA_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "index/inverted_index.h"

namespace perfbench {

/// Expected answer of one AND query. Doc lists are kept as a digest so the
/// oracle for a whole run fits in a few MB even when results are large.
struct Answer {
  uint64_t count = 0;
  uint64_t digest = 0;
};

constexpr uint64_t kDigestSeed = 0x6a09e667f3bcc909ull;
/// Order-sensitive digest step over one doc id.
uint64_t DigestAdd(uint64_t h, uint32_t doc);
uint64_t DocsDigest(std::span<const uint32_t> docs);

/// Reference conjunction of sorted posting lists, smallest list first,
/// through baselines::ScalarMergeInto. An empty `lists` yields no docs.
std::vector<uint32_t> ReferenceAnd(
    std::vector<std::span<const uint32_t>> lists);

/// Fields of one per-query result object the oracle checks.
struct ParsedResult {
  std::string outcome;
  bool has_count = false;
  uint64_t count = 0;
  bool has_docs = false;
  uint64_t docs_len = 0;
  bool docs_ascending = true;
  uint64_t digest = kDigestSeed;
  uint64_t shards_answered = 0;
  uint64_t shards_total = 0;
};

struct ParsedResponse {
  bool ok = false;
  bool has_id = false;
  uint64_t id = 0;
  std::vector<ParsedResult> results;
};

/// Parses one response line (trailing newline optional). Rejects anything
/// that is not a single well-formed JSON object.
bool ParseResponse(std::string_view line, ParsedResponse* out,
                   std::string* error);

/// What one response must satisfy.
struct Expectation {
  uint64_t id = 0;
  size_t num_queries = 0;
  uint32_t shards = 0;
  /// True for the query op: every result carries an ascending doc list
  /// whose length equals its count.
  bool materialize = false;
  /// Exact answers, index-aligned with the request's queries; empty means
  /// a structure-only check (the content is changing under writes).
  std::span<const Answer* const> answers;
};

/// True when `line` is an ok response to the expected request in which
/// every query succeeded on every shard with the expected answer.
bool CheckResponse(std::string_view line, const Expectation& expect,
                   std::string* error);

/// The index content the benchmark expects after its own mutations: base
/// postings with each mutated document's last upsert or delete applied.
class ContentModel {
 public:
  /// `base` must outlive the model.
  explicit ContentModel(const fesia::index::InvertedIndex* base)
      : base_(base) {}

  /// `terms` must be sorted and duplicate-free.
  void Upsert(uint32_t doc, std::vector<uint32_t> terms);
  void Delete(uint32_t doc);
  /// Sorted posting list of `term` under the model.
  std::vector<uint32_t> Postings(uint32_t term) const;

 private:
  const fesia::index::InvertedIndex* base_;
  /// Mutated documents: their current terms, or nullopt once deleted.
  std::map<uint32_t, std::optional<std::vector<uint32_t>>> docs_;
};

}  // namespace perfbench

#endif  // FESIA_PERFBENCH_ORACLE_H_
