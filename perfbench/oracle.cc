#include "oracle.h"

#include <algorithm>
#include <cctype>

#include "baselines/scalar_merge.h"

namespace perfbench {
namespace {

constexpr int kMaxDepth = 64;

/// Minimal JSON reader over one line: enough to walk any value and pull
/// the fields the oracle checks.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r' || s_[i_] == '\n')) {
      ++i_;
    }
  }
  bool Peek(char c) {
    Ws();
    return i_ < s_.size() && s_[i_] == c;
  }
  bool Eat(char c) {
    if (!Peek(c)) return false;
    ++i_;
    return true;
  }
  bool AtEnd() {
    Ws();
    return i_ == s_.size();
  }
  bool Word(std::string_view w) {
    Ws();
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }
  bool Bool(bool* out) {
    if (Word("true")) {
      *out = true;
      return true;
    }
    if (Word("false")) {
      *out = false;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char e = s_[i_++];
      if (e == 'u') {
        if (i_ + 4 > s_.size()) return false;
        for (int k = 0; k < 4; ++k) {
          if (!std::isxdigit(static_cast<unsigned char>(s_[i_ + k]))) {
            return false;
          }
        }
        i_ += 4;
        out->push_back('?');  // the oracle never compares escaped text
      } else if (std::string_view("\"\\/bfnrt").find(e) !=
                 std::string_view::npos) {
        out->push_back(e);
      } else {
        return false;
      }
    }
    return false;
  }
  bool Uint(uint64_t* out) {
    Ws();
    const size_t start = i_;
    uint64_t v = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      const uint64_t d = static_cast<uint64_t>(s_[i_] - '0');
      if (v > (UINT64_MAX - d) / 10) return false;
      v = v * 10 + d;
      ++i_;
    }
    if (i_ == start || (s_[start] == '0' && i_ - start > 1)) return false;
    *out = v;
    return true;
  }
  /// Skips any JSON value.
  bool Skip(int depth) {
    if (depth > kMaxDepth) return false;
    Ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      if (Eat(close)) return true;
      do {
        if (c == '{') {
          std::string key;
          if (!String(&key) || !Eat(':')) return false;
        }
        if (!Skip(depth + 1)) return false;
      } while (Eat(','));
      return Eat(close);
    }
    if (c == 't' || c == 'f') {
      bool ignored;
      return Bool(&ignored);
    }
    if (c == 'n') return Word("null");
    // Number: optional sign, digits, fraction, exponent.
    const size_t start = i_;
    if (s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start && std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }

  bool Docs(ParsedResult* r) {
    if (!Eat('[')) return false;
    r->has_docs = true;
    if (Eat(']')) return true;
    uint64_t prev = 0;
    do {
      uint64_t d = 0;
      if (!Uint(&d) || d > UINT32_MAX) return false;
      if (r->docs_len > 0 && d <= prev) r->docs_ascending = false;
      r->digest = DigestAdd(r->digest, static_cast<uint32_t>(d));
      prev = d;
      ++r->docs_len;
    } while (Eat(','));
    return Eat(']');
  }

  bool Result(ParsedResult* r) {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Eat(':')) return false;
      bool ok = true;
      if (key == "outcome") {
        ok = String(&r->outcome);
      } else if (key == "count") {
        ok = Uint(&r->count);
        r->has_count = true;
      } else if (key == "docs") {
        ok = Docs(r);
      } else if (key == "shards_answered") {
        ok = Uint(&r->shards_answered);
      } else if (key == "shards_total") {
        ok = Uint(&r->shards_total);
      } else {
        ok = Skip(2);
      }
      if (!ok) return false;
    } while (Eat(','));
    return Eat('}');
  }

  bool Response(ParsedResponse* out) {
    if (!Eat('{')) return false;
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key) || !Eat(':')) return false;
      bool ok = true;
      if (key == "ok") {
        ok = Bool(&out->ok);
      } else if (key == "id") {
        ok = Uint(&out->id);
        out->has_id = true;
      } else if (key == "results") {
        ok = Eat('[');
        if (ok && !Eat(']')) {
          do {
            out->results.emplace_back();
            ok = Result(&out->results.back());
          } while (ok && Eat(','));
          ok = ok && Eat(']');
        }
      } else {
        ok = Skip(1);
      }
      if (!ok) return false;
    } while (Eat(','));
    return Eat('}');
  }

  size_t pos() const { return i_; }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

uint64_t DigestAdd(uint64_t h, uint32_t doc) {
  h ^= doc + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

uint64_t DocsDigest(std::span<const uint32_t> docs) {
  uint64_t h = kDigestSeed;
  for (uint32_t d : docs) h = DigestAdd(h, d);
  return h;
}

std::vector<uint32_t> ReferenceAnd(
    std::vector<std::span<const uint32_t>> lists) {
  if (lists.empty()) return {};
  std::sort(lists.begin(), lists.end(),
            [](auto a, auto b) { return a.size() < b.size(); });
  std::vector<uint32_t> acc(lists[0].begin(), lists[0].end());
  std::vector<uint32_t> next;
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    next.resize(acc.size());
    const size_t n = fesia::baselines::ScalarMergeInto(
        acc.data(), acc.size(), lists[i].data(), lists[i].size(),
        next.data());
    next.resize(n);
    acc.swap(next);
  }
  return acc;
}

bool ParseResponse(std::string_view line, ParsedResponse* out,
                   std::string* error) {
  *out = ParsedResponse{};
  Reader reader(line);
  if (!reader.Response(out) || !reader.AtEnd()) {
    return Fail(error, "malformed response near byte " +
                           std::to_string(reader.pos()));
  }
  return true;
}

bool CheckResponse(std::string_view line, const Expectation& expect,
                   std::string* error) {
  ParsedResponse resp;
  if (!ParseResponse(line, &resp, error)) return false;
  if (!resp.ok) return Fail(error, "response not ok");
  if (!resp.has_id || resp.id != expect.id) {
    return Fail(error, "response id mismatch");
  }
  if (resp.results.size() != expect.num_queries) {
    return Fail(error, "expected " + std::to_string(expect.num_queries) +
                           " results, got " +
                           std::to_string(resp.results.size()));
  }
  const bool exact = !expect.answers.empty();
  if (exact && expect.answers.size() != expect.num_queries) {
    return Fail(error, "oracle has no answer for every query");
  }
  for (size_t q = 0; q < resp.results.size(); ++q) {
    const ParsedResult& r = resp.results[q];
    const std::string where = "query " + std::to_string(q) + ": ";
    if (r.outcome != "ok") return Fail(error, where + "outcome " + r.outcome);
    if (r.shards_total != expect.shards ||
        r.shards_answered != r.shards_total) {
      return Fail(error, where + "shards answered " +
                             std::to_string(r.shards_answered) + "/" +
                             std::to_string(r.shards_total));
    }
    if (!r.has_count) return Fail(error, where + "no count");
    if (expect.materialize) {
      if (!r.has_docs) return Fail(error, where + "no docs");
      if (!r.docs_ascending) return Fail(error, where + "docs not ascending");
      if (r.docs_len != r.count) {
        return Fail(error, where + "docs length differs from count");
      }
    }
    if (!exact) continue;
    const Answer& a = *expect.answers[q];
    if (r.count != a.count) {
      return Fail(error, where + "count " + std::to_string(r.count) +
                             ", expected " + std::to_string(a.count));
    }
    if (expect.materialize && r.digest != a.digest) {
      return Fail(error, where + "docs differ from the reference");
    }
  }
  return true;
}

void ContentModel::Upsert(uint32_t doc, std::vector<uint32_t> terms) {
  docs_[doc] = std::move(terms);
}

void ContentModel::Delete(uint32_t doc) { docs_[doc] = std::nullopt; }

std::vector<uint32_t> ContentModel::Postings(uint32_t term) const {
  std::vector<uint32_t> out;
  if (term < base_->num_terms()) {
    for (uint32_t d : base_->Postings(term)) {
      if (docs_.find(d) == docs_.end()) out.push_back(d);
    }
  }
  for (const auto& [doc, terms] : docs_) {
    if (terms && std::binary_search(terms->begin(), terms->end(), term)) {
      out.push_back(doc);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
