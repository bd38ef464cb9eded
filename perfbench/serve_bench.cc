// Serve-path benchmark: one named workload against an in-process
// serve::Server over loopback TCP.
//
// Stack under test: a 2-way hash-sharded ShardedIndex, RouterBackend, a
// 64 MB ResultCache and the epoll front door with 2 workers. Two client
// connections run a closed loop (the protocol keeps one request in flight
// per connection and callers wait for the reply); each request is a batch
// of 8 AND queries of 2-4 Zipf-drawn terms. A write workload adds one writer
// thread that upserts and deletes on a fixed schedule (open loop) and calls
// FlushAll every kFlushEvery writes.
//
// A run is a sequence of rounds. A round sends every client its fixed,
// seed-derived request list against a freshly cleared cache, so hit counts
// and byte counts repeat from round to round; rounds continue until the
// measuring time is spent (and enough samples exist for the reported
// tail percentiles). Every response is checked by the answer oracle
// (oracle.h); any mismatch is a failed request and fails the run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced rounds, records spans around the calls into each layer from this
// file, replays the run's inputs through the protocol, cache and FESIA
// kernels, and prints the per-layer metrics plus the tracing overhead.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datagen/zipf.h"
#include "fesia/intersect.h"
#include "fesia/intersect_kway.h"
#include "index/inverted_index.h"
#include "index/query_engine.h"
#include "oracle.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "shard/shard_map.h"
#include "shard/sharded_index.h"
#include "store/delta_index.h"
#include "trace.h"
#include "util/cpu.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using fesia::Rng;
using fesia::Status;
using fesia::serve::Op;

constexpr uint32_t kShards = 2;
constexpr double kSloMs = 50.0;
// Span request ids of writes and of the post-write verification batch live
// apart from the client request ids, which count up from 1.
constexpr uint64_t kWriteIdBase = 1ull << 61;
constexpr uint64_t kVerifyIdBase = 1ull << 62;

// ---------------------------------------------------------------------------
// Configuration. The load shape and scale are the same for every workload;
// only the four Workload fields differ (described in workloads.json).

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kBatch = 8;  // AND queries per request
constexpr uint32_t kDocs = 65536;
constexpr uint32_t kTerms = 400;
constexpr double kTermsPerDoc = 24;
constexpr uint64_t kCorpusSeed = 20260808;
constexpr size_t kCacheMb = 64;
constexpr size_t kSetups = 7;  // at least, per run
constexpr size_t kSetupsPerRound = 2;
constexpr size_t kMinRounds = 3;
constexpr size_t kMinRequests = 1000;
constexpr size_t kMinWrites = 1000;
constexpr size_t kFlushEvery = 500;
constexpr double kDeleteFrac = 0.1;
constexpr size_t kWarmupRequests = 50;  // per client
constexpr size_t kVerifyRequests = 64;
constexpr size_t kReplayQueries = 500;
constexpr size_t kReplayRequests = 128;

struct Workload {
  const char* name;
  Op op;
  double theta;           // Zipf skew of the query terms
  double write_rate;      // writes per second; 0 = read-only
  size_t round_requests;  // per round, all clients together
};

constexpr Workload kWorkloads[] = {
    {"count_skewed", Op::kCount, 1.25, 0, 2500},
    {"query_materialize", Op::kQuery, 0.99, 0, 1250},
    {"count_skewed_writes", Op::kCount, 1.25, 100, 2500},
};

struct Config {
  Workload w{};
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_dir = ".";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Config* c) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) c->w = w;
      }
    } else if (k == "--seed") {
      c->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      c->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      c->trace = v == "1";
    } else if (k == "--work-dir") {
      c->work_dir = v;
    } else if (k == "--spans-dir") {
      c->spans_dir = v;
    } else if (k == "--commit") {
      c->commit = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return c->w.name != nullptr && c->seconds > 0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9E3779B97F4A7C15ull + b);
  return r.Next64();
}

// ---------------------------------------------------------------------------
// Loopback client: one request line out, one response line back.

class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ok_ = fd_ >= 0 &&
          ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (ok_) {
      int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return ok_; }

  bool Send(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one response line (without its newline) into *line.
  bool Receive(std::string* line) {
    size_t nl;
    size_t scanned = 0;
    while ((nl = buf_.find('\n', scanned)) == std::string::npos) {
      scanned = buf_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Requests and the answer oracle.

using Query = std::vector<uint32_t>;

struct Request {
  std::vector<Query> queries;
  /// Line text after the id: ,"op":...,"queries":[...]}\n
  std::string body;
  /// Exact answers (read-only workloads), index-aligned with queries.
  std::vector<const Answer*> answers;
};

std::string QueryKey(const Query& q) {
  std::string k;
  for (uint32_t t : q) {
    k += std::to_string(t);
    k += ',';
  }
  return k;
}

std::string RequestBody(Op op, const std::vector<Query>& queries) {
  std::string s = ",\"op\":\"";
  s += fesia::serve::OpName(op);
  s += "\",\"queries\":[";
  for (size_t q = 0; q < queries.size(); ++q) {
    if (q > 0) s += ',';
    s += '[';
    for (size_t t = 0; t < queries[q].size(); ++t) {
      if (t > 0) s += ',';
      s += std::to_string(queries[q][t]);
    }
    s += ']';
  }
  s += "]}\n";
  return s;
}

std::string RequestLine(uint64_t id, const Request& r) {
  return "{\"id\":" + std::to_string(id) + r.body;
}

/// The fixed per-client request lists of one round; depends only on the
/// seed and the workload parameters.
std::vector<std::vector<Request>> MakeRequests(const Config& cfg) {
  fesia::datagen::ZipfDistribution zipf(kTerms, cfg.w.theta);
  std::vector<std::vector<Request>> lists(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    Rng rng(Mix(cfg.seed, c + 1));
    const size_t n = cfg.w.round_requests / kClients;
    lists[c].resize(n);
    for (Request& r : lists[c]) {
      r.queries.resize(kBatch);
      for (Query& q : r.queries) {
        const size_t terms = 2 + rng.Below(3);
        for (size_t t = 0; t < terms; ++t) {
          q.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
        }
      }
      r.body = RequestBody(cfg.w.op, r.queries);
    }
  }
  return lists;
}

std::span<const uint32_t> PostingsOf(const fesia::index::InvertedIndex& idx,
                                     uint32_t term) {
  if (term >= idx.num_terms()) return {};
  return idx.Postings(term);
}

Answer ReferenceAnswer(const fesia::index::InvertedIndex& idx,
                       const Query& q) {
  std::vector<std::span<const uint32_t>> lists;
  for (uint32_t t : q) lists.push_back(PostingsOf(idx, t));
  const std::vector<uint32_t> docs = ReferenceAnd(std::move(lists));
  return {docs.size(), DocsDigest(docs)};
}

/// Exact answers for every distinct query of the round, from the base
/// corpus postings.
class AnswerTable {
 public:
  void Fill(const fesia::index::InvertedIndex& idx,
            std::vector<std::vector<Request>>* lists) {
    std::unordered_map<std::string, size_t> slot;
    for (auto& list : *lists) {
      for (Request& r : list) {
        for (const Query& q : r.queries) {
          auto [it, fresh] = slot.emplace(QueryKey(q), answers_.size());
          if (fresh) answers_.push_back(ReferenceAnswer(idx, q));
        }
      }
    }
    for (auto& list : *lists) {
      for (Request& r : list) {
        r.answers.clear();
        for (const Query& q : r.queries) {
          r.answers.push_back(&answers_[slot.at(QueryKey(q))]);
        }
      }
    }
  }

 private:
  std::vector<Answer> answers_;  // not resized after Fill hands out pointers
};

// ---------------------------------------------------------------------------
// Tracing decorator around the production backend.

/// Which request each client has in flight, so a backend Run (which sees
/// only the cache-missed queries) can be attributed to its request.
class InFlight {
 public:
  explicit InFlight(size_t clients) : slots_(clients) {}

  void Begin(size_t client, uint64_t id, const std::vector<Query>* queries) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[client] = {id, queries};
  }
  void End(size_t client) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_[client] = {};
  }
  /// Id of the only in-flight request whose queries contain `run` as a
  /// subsequence; 0 when none or several do.
  uint64_t Match(std::span<const Query> run) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t found = 0;
    for (const Slot& s : slots_) {
      if (s.queries == nullptr) continue;
      size_t k = 0;
      for (const Query& q : *s.queries) {
        if (k < run.size() && q == run[k]) ++k;
      }
      if (k != run.size()) continue;
      if (found != 0) return 0;
      found = s.id;
    }
    return found;
  }

 private:
  struct Slot {
    uint64_t id = 0;
    const std::vector<Query>* queries = nullptr;
  };
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
};

/// One traced backend Run.
struct RunRecord {
  uint64_t request_id = 0;  // 0 = not attributable
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double slowest_shard_s = 0;  // merged BatchStats wall time
  std::vector<double> subquery_s;
  size_t downgrades = 0, shed = 0, deadline_exceeded = 0;
  size_t partial = 0;
};

class TracingBackend : public fesia::serve::ServeBackend {
 public:
  TracingBackend(fesia::serve::ServeBackend* inner, const InFlight* inflight)
      : inner_(inner), inflight_(inflight) {}

  uint64_t ContentEpoch() const override { return inner_->ContentEpoch(); }

  std::vector<fesia::serve::WireResult> Run(
      Op op, std::span<const std::vector<uint32_t>> queries,
      const fesia::serve::BackendOptions& options,
      fesia::index::BatchStats* stats) override {
    if (!enabled_.load(std::memory_order_relaxed)) {
      return inner_->Run(op, queries, options, stats);
    }
    fesia::index::BatchStats local;
    fesia::index::BatchStats* s = stats != nullptr ? stats : &local;
    RunRecord rec;
    rec.request_id = inflight_->Match(queries);
    rec.start_ns = NowNs();
    std::vector<fesia::serve::WireResult> out =
        inner_->Run(op, queries, options, s);
    rec.end_ns = NowNs();
    rec.slowest_shard_s = s->wall_seconds;
    rec.subquery_s = s->latency_seconds;
    rec.downgrades = s->downgrades;
    rec.shed = s->shed;
    rec.deadline_exceeded = s->deadline_exceeded;
    for (const auto& w : out) {
      if (w.shards_answered < w.shards_total) ++rec.partial;
    }
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(rec));
    return out;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::vector<RunRecord> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(records_, {});
  }

 private:
  fesia::serve::ServeBackend* inner_;
  const InFlight* inflight_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<RunRecord> records_;
};

// ---------------------------------------------------------------------------
// The stack under test.

struct Stack {
  std::unique_ptr<fesia::index::InvertedIndex> corpus;
  std::string store_dir;
  std::unique_ptr<fesia::shard::ShardedIndex> index;
  std::unique_ptr<fesia::serve::RouterBackend> router;
  std::unique_ptr<TracingBackend> tracing;
  std::unique_ptr<fesia::serve::ResultCache> cache;
  std::unique_ptr<fesia::serve::Server> server;

  ~Stack() {
    if (server) server->Shutdown();
    server.reset();
    cache.reset();
    tracing.reset();
    router.reset();
    index.reset();
    if (!store_dir.empty()) {
      std::error_code ec;
      fs::remove_all(store_dir, ec);
    }
  }
};

bool Check(const Status& s, const char* what) {
  if (!s.ok()) std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  return s.ok();
}

/// Builds the corpus, the sharded engines (and for writes the store and
/// WALs) and starts the server. Returns nullptr on failure.
std::unique_ptr<Stack> SetUp(const Config& cfg, size_t k,
                             const InFlight* inflight) {
  auto st = std::make_unique<Stack>();
  fesia::index::CorpusParams cp;
  cp.num_docs = kDocs;
  cp.num_terms = kTerms;
  cp.avg_terms_per_doc = kTermsPerDoc;
  cp.seed = kCorpusSeed;
  st->corpus = std::make_unique<fesia::index::InvertedIndex>(
      fesia::index::InvertedIndex::BuildSynthetic(cp));

  fesia::shard::ShardedIndexOptions sopts;
  if (cfg.w.write_rate > 0) {
    st->store_dir = cfg.work_dir + "/store-" + std::to_string(k);
    std::error_code ec;
    fs::remove_all(st->store_dir, ec);
    sopts.store_dir = st->store_dir;
  }
  auto created = fesia::shard::ShardedIndex::Create(
      st->corpus.get(), fesia::shard::ShardMap::Hash(kShards), sopts);
  if (!Check(created.status(), "sharded create")) return nullptr;
  st->index = std::make_unique<fesia::shard::ShardedIndex>(
      std::move(created).value());
  if (!Check(st->index->RebuildAll(), "rebuild")) return nullptr;
  if (cfg.w.write_rate > 0) {
    if (!Check(st->index->SaveAll(), "save")) return nullptr;
    if (!Check(st->index->OpenMutationLogs(), "open wal")) return nullptr;
  }

  st->router = std::make_unique<fesia::serve::RouterBackend>(
      st->index.get(), fesia::serve::RouterBackend::Options{});
  fesia::serve::ServeBackend* backend = st->router.get();
  if (cfg.trace) {
    st->tracing = std::make_unique<TracingBackend>(st->router.get(), inflight);
    backend = st->tracing.get();
  }
  fesia::serve::ResultCache::Options copts;
  copts.max_bytes = static_cast<uint64_t>(kCacheMb) << 20;
  st->cache = std::make_unique<fesia::serve::ResultCache>(copts);
  fesia::serve::ServerOptions options;
  options.num_workers = kWorkers;
  options.cache = st->cache.get();
  st->server = std::make_unique<fesia::serve::Server>(backend, options);
  if (!Check(st->server->Start(), "server start")) return nullptr;
  Client probe(st->server->port());
  if (!probe.ok()) {
    std::fprintf(stderr, "server port does not accept\n");
    return nullptr;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Load generation.

struct Sample {
  double ms = 0;
  bool ok = false;
};

/// One traced request, as the client saw it.
struct ClientRecord {
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t response_bytes = 0;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<ClientRecord> records;
  double cpu_s = 0;
  size_t failed = 0;
  std::string first_error;
};

/// Request ids are unique across rounds so spans of one run never collide.
std::atomic<uint64_t> g_next_id{1};

void RunClient(Client& client, size_t index, std::span<const Request> list,
               const Config& cfg, bool exact, InFlight* inflight,
               bool traced, ClientResult* out) {
  const double cpu0 = ThreadCpuSeconds();
  std::string line;
  bool connected = client.ok();
  for (const Request& r : list) {
    const uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    if (!connected) {
      out->samples.push_back({0, false});
      ++out->failed;
      continue;
    }
    const std::string text = RequestLine(id, r);
    if (traced) inflight->Begin(index, id, &r.queries);
    const int64_t t0 = NowNs();
    connected = client.Send(text) && client.Receive(&line);
    const int64_t t1 = NowNs();
    if (traced) inflight->End(index);
    std::string error = connected ? "" : "connection lost";
    bool ok = connected;
    if (ok) {
      Expectation e;
      e.id = id;
      e.num_queries = r.queries.size();
      e.shards = kShards;
      e.materialize = cfg.w.op == Op::kQuery;
      if (exact) e.answers = r.answers;
      ok = CheckResponse(line, e, &error);
    }
    out->samples.push_back({(t1 - t0) * 1e-6, ok});
    if (traced) out->records.push_back({id, t0, t1, line.size() + 1});
    if (!ok) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = "request " + std::to_string(id) + ": " + error;
      }
    }
  }
  out->cpu_s = ThreadCpuSeconds() - cpu0;
}

/// Open-loop writer: upserts and deletes (9:1) due at the workload's write
/// rate from `start`, FlushAll every kFlushEvery writes.
struct WriterResult {
  /// Writes issued so far; the only field read while the writer runs.
  std::atomic<size_t> issued{0};
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
  std::vector<double> ack_ms;       // ack time measured from the due time
  std::vector<double> late_ms;      // start time minus due time
  std::vector<double> upsert_ms;    // ShardedIndex::Upsert span
  std::vector<double> flush_s;      // FlushAll span
  std::vector<Span> spans;
  uint64_t wal_open_bytes_peak = 0;
  uint64_t pending_docs_peak = 0;
  double cpu_s = 0;
};

void RunWriter(fesia::shard::ShardedIndex* index, const Config& cfg,
               ContentModel* model, const std::atomic<bool>* stop,
               WriterResult* out) {
  const double cpu0 = ThreadCpuSeconds();
  Rng rng(Mix(cfg.seed, 0x5752));
  fesia::datagen::ZipfDistribution zipf(kTerms, 1.0);
  const int64_t period_ns = static_cast<int64_t>(1e9 / cfg.w.write_rate);
  const int64_t start = NowNs();
  for (uint64_t k = 0; !stop->load(std::memory_order_acquire); ++k) {
    const int64_t due = start + static_cast<int64_t>(k) * period_ns;
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    if (stop->load(std::memory_order_acquire)) break;
    const uint32_t doc = static_cast<uint32_t>(rng.Below(kDocs));
    const bool del = rng.NextDouble() < kDeleteFrac;
    std::vector<uint32_t> terms;
    if (!del) {
      for (size_t t = 0; t < static_cast<size_t>(kTermsPerDoc); ++t) {
        terms.push_back(static_cast<uint32_t>(zipf.Sample(rng)));
      }
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    }
    const int64_t t0 = NowNs();
    Status s = del ? index->Delete(doc) : index->Upsert(doc, terms);
    const int64_t t1 = NowNs();
    ++out->attempted;
    out->issued.fetch_add(1, std::memory_order_relaxed);
    out->spans.push_back(
        {del ? "store.delete" : "store.upsert", t0, t1, -1, kWriteIdBase + k});
    out->late_ms.push_back((t0 - due) * 1e-6);
    out->ack_ms.push_back((t1 - due) * 1e-6);
    if (!del) out->upsert_ms.push_back((t1 - t0) * 1e-6);
    if (!s.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = s.ToString();
    } else if (del) {
      model->Delete(doc);
    } else {
      model->Upsert(doc, std::move(terms));
    }
    uint64_t wal = 0, pending = 0;
    for (uint32_t sh = 0; sh < index->num_shards(); ++sh) {
      if (auto* m = index->manager(sh)) {
        const auto ms = m->mutation_stats();
        wal += ms.wal_open_bytes;
        pending += ms.pending_docs;
      }
    }
    out->wal_open_bytes_peak = std::max(out->wal_open_bytes_peak, wal);
    out->pending_docs_peak = std::max(out->pending_docs_peak, pending);
    if ((k + 1) % kFlushEvery == 0) {
      const int64_t f0 = NowNs();
      Status f = index->FlushAll();
      const int64_t f1 = NowNs();
      out->spans.push_back({"store.flush_all", f0, f1, -1, kWriteIdBase + k});
      out->flush_s.push_back((f1 - f0) * 1e-9);
      if (!f.ok()) {
        ++out->failed;
        if (out->first_error.empty()) out->first_error = f.ToString();
      }
    }
  }
  out->cpu_s = ThreadCpuSeconds() - cpu0;
}

uint64_t RejectedMutations(const fesia::shard::ShardedIndex& index) {
  uint64_t rejected = 0;
  for (uint32_t sh = 0; sh < index.num_shards(); ++sh) {
    if (auto* m = index.manager(sh)) rejected += m->mutation_stats().rejected;
  }
  return rejected;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  /// Prints a human-readable line now; `in_json` also keeps the metric for
  /// the final JSON line.
  void Add(const std::string& name, double value, const std::string& unit,
           bool in_json) {
    std::printf("metric %-44s %14.6f %s\n", name.c_str(), value, unit.c_str());
    if (in_json) json_.push_back({name, value, unit});
  }
  void Final(bool correct, size_t attempted, size_t failed) const {
    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"metrics\":{";
    for (size_t i = 0; i < json_.size(); ++i) {
      if (i > 0) out += ',';
      fesia::AppendJsonString(out, json_[i].name);
      out += ":{\"value\":";
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", json_[i].value);
      out += num;
      out += ",\"unit\":";
      fesia::AppendJsonString(out, json_[i].unit);
      out += '}';
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> json_;
};

/// Percentile under the 10-samples-beyond rule; a run that cannot support
/// it is misconfigured, so it aborts the run.
double Tail(const std::vector<double>& v, double p, const char* what) {
  std::optional<double> x = Percentile(v, p);
  if (!x) {
    std::fprintf(stderr, "%s: %zu samples cannot support p%.0f\n", what,
                 v.size(), p * 100);
    std::exit(3);
  }
  return *x;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

// ---------------------------------------------------------------------------
// Layer replays (trace mode, after the load, with the server idle).

struct ProtocolReplay {
  double parse_us = 0;
  double serialize_us = 0;
};

/// Times ParseRequest over every request line of the round, and
/// BuildResultJson + BuildResponseLine over the first `replay_requests`
/// requests with their reference answers.
ProtocolReplay ReplayProtocol(const Config& cfg,
                              const fesia::index::InvertedIndex& corpus,
                              const std::vector<std::vector<Request>>& lists,
                              bool* ok) {
  std::vector<std::string> lines;
  for (const auto& list : lists) {
    for (const Request& r : list) lines.push_back(RequestLine(1, r));
  }
  fesia::serve::ParseLimits limits;
  std::vector<double> parse_s;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    for (const std::string& l : lines) {
      fesia::serve::Request req;
      const std::string_view body(l.data(), l.size() - 1);  // drop '\n'
      if (!fesia::serve::ParseRequest(body, limits, &req).ok()) *ok = false;
    }
    parse_s.push_back((NowNs() - t0) * 1e-9);
  }

  struct Replayed {
    fesia::serve::Request request;
    std::vector<fesia::serve::WireResult> results;
  };
  std::vector<Replayed> replay;
  for (const auto& list : lists) {
    for (const Request& r : list) {
      if (replay.size() >= kReplayRequests) break;
      Replayed x;
      x.request.op = cfg.w.op;
      x.request.has_id = true;
      x.request.id = replay.size() + 1;
      x.request.queries = r.queries;
      for (const Query& q : r.queries) {
        std::vector<std::span<const uint32_t>> ls;
        for (uint32_t t : q) ls.push_back(PostingsOf(corpus, t));
        fesia::serve::WireResult w;
        w.docs = ReferenceAnd(std::move(ls));
        w.count = w.docs.size();
        if (cfg.w.op != Op::kQuery) w.docs.clear();
        w.shards_answered = w.shards_total = kShards;
        w.attempts = 1;
        x.results.push_back(std::move(w));
      }
      replay.push_back(std::move(x));
    }
  }
  fesia::index::BatchStats stats;
  stats.ok = kBatch;
  std::vector<double> ser_s;
  size_t bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    for (const Replayed& x : replay) {
      std::vector<std::string> fragments;
      fragments.reserve(x.results.size());
      for (const auto& w : x.results) {
        fragments.push_back(fesia::serve::BuildResultJson(w, cfg.w.op));
      }
      bytes += fesia::serve::BuildResponseLine(x.request, fragments, stats, 0,
                                               fragments.size())
                   .size();
    }
    ser_s.push_back((NowNs() - t0) * 1e-9);
  }
  if (bytes == 0) *ok = false;
  ProtocolReplay out;
  out.parse_us = Median(parse_s) * 1e6 / std::max<size_t>(1, lines.size());
  out.serialize_us =
      Median(ser_s) * 1e6 / std::max<size_t>(1, replay.size());
  return out;
}

/// Times ResultCache::Lookup over every query key of the round against the
/// cache as the last round left it.
double ReplayCacheLookups(const Config& cfg, fesia::serve::ResultCache& cache,
                          uint64_t epoch,
                          const std::vector<std::vector<Request>>& lists) {
  std::vector<std::string> keys;
  for (const auto& list : lists) {
    for (const Request& r : list) {
      for (const Query& q : r.queries) {
        keys.push_back(fesia::serve::ResultCache::Key(
            static_cast<uint8_t>(cfg.w.op), q));
      }
    }
  }
  std::string value;
  const int64_t t0 = NowNs();
  for (const std::string& k : keys) cache.Lookup(k, epoch, &value);
  return (NowNs() - t0) * 1e-3 / std::max<size_t>(1, keys.size());
}

/// The round's first kReplayQueries distinct queries, each with its
/// reference answer when `exact`.
std::vector<std::pair<const Query*, const Answer*>> DistinctQueries(
    const std::vector<std::vector<Request>>& lists, bool exact) {
  std::vector<std::pair<const Query*, const Answer*>> distinct;
  std::unordered_map<std::string, bool> seen;
  for (const auto& list : lists) {
    for (const Request& r : list) {
      for (size_t i = 0; i < r.queries.size(); ++i) {
        if (distinct.size() >= kReplayQueries) return distinct;
        if (seen.emplace(QueryKey(r.queries[i]), true).second) {
          distinct.emplace_back(&r.queries[i], exact ? r.answers[i] : nullptr);
        }
      }
    }
  }
  return distinct;
}

struct FesiaReplay {
  double count_gbps = 0;
  double into_gbps = 0;
  double sort_share = 0;
  double step1_share = 0;
  double matched_vs_model = 0;
  double kway_us = 0;
  size_t pairs = 0;
  size_t kway_calls = 0;
};

/// Replays the round's distinct queries on each shard's TermSets: the
/// first two terms through the pairwise kernels, 3-4-term queries through
/// the k-way pipeline. Counts are cross-checked against each other and,
/// when `answers` is given, the 2-term sums against the reference.
FesiaReplay ReplayFesia(const fesia::shard::ShardedIndex& index,
                        const std::vector<std::vector<Request>>& lists,
                        bool exact, bool* ok) {
  const auto distinct = DistinctQueries(lists, exact);
  std::vector<std::shared_ptr<const fesia::index::QueryEngine>> engines;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    engines.push_back(index.engine(s));
    if (!engines.back()) *ok = false;
  }
  if (!*ok) return {};

  struct Pair {
    const fesia::FesiaSet* a;
    const fesia::FesiaSet* b;
    double bytes;
  };
  auto set_bytes = [](const fesia::FesiaSet& s) {
    return s.bitmap_word_count() * 8.0 + s.reordered_size() * 4.0;
  };
  std::vector<Pair> pairs;
  std::vector<std::vector<const fesia::FesiaSet*>> kway;
  std::vector<std::pair<size_t, const Answer*>> pair_checks;  // first pair idx
  for (const auto& [q, answer] : distinct) {
    bool in_range = true;
    for (uint32_t t : *q) in_range = in_range && t < engines[0]->num_terms();
    if (!in_range) continue;
    if (q->size() == 2 && answer != nullptr) {
      pair_checks.emplace_back(pairs.size(), answer);
    }
    for (const auto& e : engines) {
      const auto& a = e->TermSet((*q)[0]);
      const auto& b = e->TermSet((*q)[1]);
      pairs.push_back({&a, &b, set_bytes(a) + set_bytes(b)});
      if (q->size() >= 3) {
        std::vector<const fesia::FesiaSet*> sets;
        for (uint32_t t : *q) sets.push_back(&e->TermSet(t));
        kway.push_back(std::move(sets));
      }
    }
  }

  double bytes = 0;
  for (const Pair& p : pairs) bytes += p.bytes;
  std::vector<size_t> counts(pairs.size());
  std::vector<double> count_s, unsorted_s, sorted_s, kway_s;
  std::vector<uint32_t> out;
  uint64_t step1 = 0, step2 = 0, matched = 0;
  double model = 0;
  const double sqrt_w =
      std::sqrt(fesia::SimdWidthBits(fesia::ResolveSimdLevel(fesia::SimdLevel::kAuto)));
  for (int rep = 0; rep < 3; ++rep) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < pairs.size(); ++i) {
      counts[i] = fesia::IntersectCountFused(*pairs[i].a, *pairs[i].b);
    }
    count_s.push_back((NowNs() - t0) * 1e-9);

    t0 = NowNs();
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (fesia::IntersectInto(*pairs[i].a, *pairs[i].b, &out, false) !=
          counts[i]) {
        *ok = false;
      }
    }
    unsorted_s.push_back((NowNs() - t0) * 1e-9);

    t0 = NowNs();
    for (size_t i = 0; i < pairs.size(); ++i) {
      fesia::IntersectInto(*pairs[i].a, *pairs[i].b, &out, true);
      if (out.size() != counts[i] ||
          !std::is_sorted(out.begin(), out.end())) {
        *ok = false;
      }
    }
    sorted_s.push_back((NowNs() - t0) * 1e-9);

    t0 = NowNs();
    size_t sink = 0;
    for (const auto& sets : kway) sink += fesia::IntersectCountKWay(sets);
    kway_s.push_back((NowNs() - t0) * 1e-9);
    if (sink == SIZE_MAX) *ok = false;  // keeps the loop observable
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    fesia::IntersectBreakdown bd;
    if (fesia::IntersectCountInstrumented(*pairs[i].a, *pairs[i].b, &bd) !=
        counts[i]) {
      *ok = false;
    }
    step1 += bd.step1_cycles;
    step2 += bd.step2_cycles;
    matched += bd.matched_segments;
    model += (pairs[i].a->size() + pairs[i].b->size()) / sqrt_w;
  }
  for (const auto& [first, answer] : pair_checks) {
    size_t sum = 0;
    for (size_t s = 0; s < engines.size(); ++s) sum += counts[first + s];
    if (sum != answer->count) *ok = false;
  }

  FesiaReplay r;
  r.pairs = pairs.size();
  r.kway_calls = kway.size();
  const double tc = Median(count_s), tu = Median(unsorted_s),
               ts = Median(sorted_s);
  r.count_gbps = Ratio(bytes, tc) * 1e-9;
  r.into_gbps = Ratio(bytes, tu) * 1e-9;
  r.sort_share = Ratio(ts - tu, ts);
  r.step1_share = Ratio(static_cast<double>(step1),
                        static_cast<double>(step1 + step2));
  r.matched_vs_model = Ratio(static_cast<double>(matched), model);
  r.kway_us = Ratio(Median(kway_s) * 1e6, static_cast<double>(kway.size()));
  return r;
}

// ---------------------------------------------------------------------------
// Checks against the write model: the content must equal base + mutations.

/// Exact answers under the model, memoizing each term's posting list.
class ModelPostings {
 public:
  explicit ModelPostings(const ContentModel* model) : model_(model) {}

  std::vector<uint32_t> And(const Query& q) {
    std::vector<std::span<const uint32_t>> lists;
    for (uint32_t t : q) {
      auto it = postings_.find(t);
      if (it == postings_.end()) {
        it = postings_.emplace(t, model_->Postings(t)).first;
      }
      lists.push_back(it->second);
    }
    return ReferenceAnd(std::move(lists));
  }

 private:
  const ContentModel* model_;
  std::map<uint32_t, std::vector<uint32_t>> postings_;
};

struct OverlayReplay {
  double us_per_query = 0;  // per query and shard with a delta
  size_t delta_docs = 0;    // unflushed documents, all shards
};

/// Times store::OverlayAdjustResults on each shard's current view over the
/// round's distinct queries, as the router's read path runs it after the
/// engine's CountBatch (so neither BatchStats nor the engine spans hold
/// it). The adjusted counts summed over shards must equal the model's.
OverlayReplay ReplayOverlay(const fesia::shard::ShardedIndex& index,
                            const ContentModel& model,
                            const std::vector<std::vector<Request>>& lists,
                            bool* ok) {
  std::vector<Query> queries;
  for (const auto& [q, answer] : DistinctQueries(lists, false)) {
    queries.push_back(*q);
  }
  std::vector<size_t> counts(queries.size(), 0);
  OverlayReplay out;
  double overlay_s = 0;
  size_t adjusted = 0;
  for (uint32_t s = 0; s < index.num_shards(); ++s) {
    const fesia::store::IndexManager::MutationView view = index.View(s);
    if (!view.engine || view.base == nullptr) {
      *ok = false;
      return {};
    }
    const std::vector<fesia::index::QueryResult> base =
        view.engine->CountBatch(queries);
    std::vector<fesia::index::QueryResult> results = base;
    if (view.delta != nullptr) {
      out.delta_docs += view.delta->size();
      std::vector<double> rep_s;
      for (int rep = 0; rep < 3; ++rep) {
        results = base;
        const int64_t t0 = NowNs();
        fesia::store::OverlayAdjustResults(*view.base, *view.delta, queries,
                                           false, results);
        rep_s.push_back((NowNs() - t0) * 1e-9);
      }
      overlay_s += Median(rep_s);
      adjusted += queries.size();
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!results[i].ok()) *ok = false;
      counts[i] += results[i].count;
    }
  }
  ModelPostings postings(&model);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (postings.And(queries[i]).size() != counts[i]) *ok = false;
  }
  out.us_per_query = Ratio(overlay_s * 1e6, static_cast<double>(adjusted));
  return out;
}

size_t VerifyAgainstModel(uint16_t port, const ContentModel& model,
                          const std::vector<Request>& source,
                          std::string* first_error) {
  ModelPostings postings(&model);
  Client client(port);
  size_t failed = 0;
  std::string line;
  const size_t n = std::min(kVerifyRequests, source.size());
  for (size_t i = 0; i < n; ++i) {
    const Request& r = source[i];
    std::vector<Answer> answers;
    for (const Query& q : r.queries) {
      const std::vector<uint32_t> docs = postings.And(q);
      answers.push_back({docs.size(), DocsDigest(docs)});
    }
    std::vector<const Answer*> ptrs;
    for (const Answer& a : answers) ptrs.push_back(&a);
    const uint64_t id = kVerifyIdBase + i;
    std::string error = "connection lost";
    bool ok = client.ok() &&
              client.Send("{\"id\":" + std::to_string(id) +
                          RequestBody(Op::kQuery, r.queries)) &&
              client.Receive(&line);
    if (ok) {
      Expectation e;
      e.id = id;
      e.num_queries = r.queries.size();
      e.shards = kShards;
      e.materialize = true;
      e.answers = ptrs;
      ok = CheckResponse(line, e, &error);
    }
    if (!ok) {
      ++failed;
      if (first_error->empty()) {
        *first_error = "verification request " + std::to_string(i) + ": " +
                       error;
      }
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload count_skewed|"
                 "query_materialize|count_skewed_writes --seed N --seconds S "
                 "[--trace 0|1] [--work-dir D] [--spans-dir D] [--commit C]\n");
    return 2;
  }
  const bool writes = cfg.w.write_rate > 0;
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);

  std::printf(
      "{\"header\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
      "\"commit\":%s,\"cpu\":%s,\"simd\":\"%s\",\"nproc\":%u,"
      "\"docs\":%u,\"terms\":%u,\"terms_per_doc\":%.1f,\"clients\":%zu,"
      "\"workers\":%zu,\"batch\":%zu,\"op\":\"%s\",\"theta\":%.2f,"
      "\"write_rate\":%.1f,\"cache_mb\":%zu,\"round_requests\":%zu}}\n",
      fesia::JsonQuote(cfg.w.name).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0,
      fesia::JsonQuote(cfg.commit).c_str(),
      fesia::JsonQuote(fesia::CpuBrandString()).c_str(),
      fesia::SimdLevelName(fesia::DetectSimdLevel()),
      std::thread::hardware_concurrency(), kDocs, kTerms,
      kTermsPerDoc, kClients, kWorkers, kBatch,
      fesia::serve::OpName(cfg.w.op), cfg.w.theta, cfg.w.write_rate, kCacheMb,
      cfg.w.round_requests);
  std::fflush(stdout);

  // Wall time of the run's phases, for budgeting the benchmark itself.
  int64_t phase_mark = NowNs();
  auto phase = [&phase_mark](const char* name) {
    const int64_t now = NowNs();
    std::printf("phase %-12s %8.3f s\n", name, (now - phase_mark) * 1e-9);
    phase_mark = now;
  };

  // Set-up. The first stack serves the run; more set-ups are timed
  // between the measured rounds (kSetupsPerRound after each), so the
  // reported median samples the host over the whole run rather than over
  // its first seconds.
  InFlight inflight(kClients);
  std::vector<double> setup_s;
  size_t setups_started = 0;
  auto timed_setup = [&]() -> std::unique_ptr<Stack> {
    const int64_t t0 = NowNs();
    std::unique_ptr<Stack> stack = SetUp(cfg, setups_started++, &inflight);
    if (stack) setup_s.push_back((NowNs() - t0) * 1e-9);
    return stack;
  };
  std::unique_ptr<Stack> st = timed_setup();
  if (!st) return 1;

  phase("setup");
  std::vector<std::vector<Request>> lists = MakeRequests(cfg);
  AnswerTable table;
  if (!writes) table.Fill(*st->corpus, &lists);
  phase("oracle");

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(st->server->port()));
  }

  size_t attempted = 0, failed = 0;
  std::string first_error;
  auto note = [&](size_t a, size_t f, const std::string& err) {
    attempted += a;
    failed += f;
    if (first_error.empty() && !err.empty()) first_error = err;
  };

  // Warm-up: pool threads start, pages fault in; not measured.
  {
    std::vector<std::thread> threads;
    std::vector<ClientResult> res(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      const size_t n = std::min(kWarmupRequests, lists[c].size());
      threads.emplace_back([&, c, n] {
        RunClient(*clients[c], c, std::span(lists[c]).first(n), cfg, !writes,
                  &inflight, false, &res[c]);
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& r : res) note(r.samples.size(), r.failed, r.first_error);
  }

  ContentModel model(st->corpus.get());
  WriterResult wres;
  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (writes) {
    writer = std::thread(RunWriter, st->index.get(), std::cref(cfg), &model,
                         &stop_writer, &wres);
  }
  const uint64_t rejected0 = writes ? RejectedMutations(*st->index) : 0;

  // Measured rounds, summed separately for untraced and traced rounds.
  struct Totals {
    double wall_s = 0;
    size_t attempted = 0;
    size_t completed = 0;
    double client_cpu_s = 0;
  };
  Totals plain, traced;
  // End-to-end metrics are medians over untraced rounds, so a transient
  // slow phase of the host in one round does not move them; only the p99
  // pools the rounds' samples, because one round leaves too few samples
  // beyond it for a steady tail.
  struct RoundMetrics {
    double rps, p50_ms, p99_ms, slo_frac, cpu_ms;
  };
  std::vector<double> e2e_latency_ms;
  std::vector<RoundMetrics> e2e_rounds;
  std::vector<ClientRecord> records;
  std::vector<RunRecord> runs;
  fesia::serve::ResultCacheStats cache_delta{};
  std::vector<double> cache_entry_bytes;  // end of each traced round
  size_t traced_rounds = 0;
  phase("warmup");
  const int64_t run_start = NowNs();
  int64_t setup_ns = 0;  // spent on extra set-ups, not counted as run time
  for (size_t round = 0;; ++round) {
    const bool trace_round = cfg.trace && round % 2 == 0;
    if (st->tracing) st->tracing->set_enabled(trace_round);
    st->cache->Clear();
    const fesia::serve::ResultCacheStats c0 = st->cache->stats();
    std::vector<ClientResult> res(kClients);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          RunClient(*clients[c], c, lists[c], cfg, !writes, &inflight,
                    trace_round, &res[c]);
        });
      }
      for (auto& t : threads) t.join();
    }
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();
    Totals rt;
    rt.wall_s = (t1 - t0) * 1e-9;
    std::vector<double> latency_ms;
    size_t slo_ok = 0;
    for (const ClientResult& r : res) {
      rt.client_cpu_s += r.cpu_s;
      note(r.samples.size(), r.failed, r.first_error);
      rt.attempted += r.samples.size();
      for (const Sample& s : r.samples) {
        if (!s.ok) continue;
        ++rt.completed;
        latency_ms.push_back(s.ms);
        if (s.ms <= kSloMs) ++slo_ok;
      }
      if (trace_round) {
        records.insert(records.end(), r.records.begin(), r.records.end());
      }
    }
    if (!trace_round && failed == 0) {
      const double server_cpu_s = (cpu1 - cpu0) - rt.client_cpu_s;
      const RoundMetrics m{Ratio(rt.completed, rt.wall_s), Median(latency_ms),
                           Tail(latency_ms, 0.99, "round latency"),
                           Ratio(slo_ok, rt.attempted),
                           Ratio(server_cpu_s * 1e3, rt.completed)};
      std::printf("round %zu: %.1f requests/s, p50 %.3f ms, p99 %.3f ms, "
                  "cpu %.3f ms/request\n",
                  round, m.rps, m.p50_ms, m.p99_ms, m.cpu_ms);
      e2e_rounds.push_back(m);
      e2e_latency_ms.insert(e2e_latency_ms.end(), latency_ms.begin(),
                            latency_ms.end());
    }
    Totals& sum = trace_round ? traced : plain;
    sum.wall_s += rt.wall_s;
    sum.attempted += rt.attempted;
    sum.completed += rt.completed;
    sum.client_cpu_s += rt.client_cpu_s;
    if (trace_round) {
      ++traced_rounds;
      std::vector<RunRecord> rr = st->tracing->Take();
      std::move(rr.begin(), rr.end(), std::back_inserter(runs));
      const fesia::serve::ResultCacheStats c1 = st->cache->stats();
      cache_delta.hits += c1.hits - c0.hits;
      cache_delta.misses += c1.misses - c0.misses;
      cache_delta.lru_evictions += c1.lru_evictions - c0.lru_evictions;
      cache_delta.stale_evictions += c1.stale_evictions - c0.stale_evictions;
      cache_delta.insert_failures += c1.insert_failures - c0.insert_failures;
      cache_entry_bytes.push_back(Ratio(c1.bytes, c1.entries));
    }
    if (failed > 0) break;
    const int64_t s0 = NowNs();
    bool setup_ok = true;
    for (size_t k = 0; k < kSetupsPerRound && setup_ok; ++k) {
      setup_ok = timed_setup() != nullptr;
    }
    setup_ns += NowNs() - s0;
    if (!setup_ok) {
      note(1, 1, "set-up between rounds failed");
      break;
    }
    const double elapsed = (NowNs() - run_start - setup_ns) * 1e-9;
    const size_t measured = plain.attempted + traced.attempted;
    const bool enough_writes =
        !writes ||
        wres.issued.load(std::memory_order_relaxed) >= kMinWrites;
    const bool rounds_done = cfg.trace ? round % 2 == 1
                                       : e2e_rounds.size() >= kMinRounds;
    if (elapsed >= cfg.seconds && measured >= kMinRequests &&
        enough_writes && rounds_done && setup_s.size() >= kSetups) {
      break;
    }
  }
  if (writes) {
    stop_writer.store(true, std::memory_order_release);
    writer.join();
    note(wres.attempted, wres.failed, wres.first_error);
  }
  phase("measure");
  // Replayed before the verification batch touches the cache: the entries
  // are as the rounds left them (under writes, mostly of an older epoch, as
  // the server's own lookups found them).
  const double cache_lookup_us =
      cfg.trace ? ReplayCacheLookups(cfg, *st->cache,
                                     st->router->ContentEpoch(), lists)
                : 0;

  bool replay_ok = true;
  const OverlayReplay overlay =
      cfg.trace && writes && failed == 0
          ? ReplayOverlay(*st->index, model, lists, &replay_ok)
          : OverlayReplay{};

  // Reads after writes stop must match the model twice: before the final
  // flush, when the unflushed writes reach reads through the delta
  // overlay, and after it, through the merged base.
  double final_flush_s = 0;
  if (writes && failed == 0) {
    const size_t n = std::min(kVerifyRequests, lists[0].size());
    std::string err;
    size_t verify_failed =
        VerifyAgainstModel(st->server->port(), model, lists[0], &err);
    const int64_t f0 = NowNs();
    const bool flushed = Check(st->index->FlushAll(), "final flush");
    final_flush_s = (NowNs() - f0) * 1e-9;
    verify_failed += flushed ? VerifyAgainstModel(st->server->port(), model,
                                                  lists[0], &err)
                             : n + 1;
    note(2 * n + 1, verify_failed, err);
  }

  phase("verify");
  Report report;
  if (!cfg.trace && failed == 0) {
    auto over_rounds = [&e2e_rounds](double RoundMetrics::*field) {
      std::vector<double> v;
      for (const RoundMetrics& r : e2e_rounds) v.push_back(r.*field);
      return Median(v);
    };
    report.Add("setup_s", Median(setup_s), "s", true);
    report.Add("requests_per_s", over_rounds(&RoundMetrics::rps), "1/s",
               true);
    report.Add("latency_p50_ms", over_rounds(&RoundMetrics::p50_ms), "ms",
               true);
    report.Add("latency_p99_ms", Tail(e2e_latency_ms, 0.99, "latency"), "ms",
               true);
    report.Add("slo_frac_50ms", over_rounds(&RoundMetrics::slo_frac),
               "fraction", true);
    report.Add("cpu_ms_per_request", over_rounds(&RoundMetrics::cpu_ms),
               "ms", true);
    report.Add("load.rounds", e2e_rounds.size(), "count", false);
    report.Add("load.setups", setup_s.size(), "count", false);
  }
  report.Add("failed_frac", Ratio(failed, attempted), "fraction", false);
  report.Add("load.requests", plain.attempted + traced.attempted, "count",
             false);
  report.Add("load.client_cpu_ms_per_request",
             Ratio((plain.client_cpu_s + traced.client_cpu_s) * 1e3,
                   plain.completed + traced.completed),
             "ms", false);
  if (writes && failed == 0) {
    report.Add("write_p50_ms", Median(wres.ack_ms), "ms", false);
    report.Add("write_p99_ms", Tail(wres.ack_ms, 0.99, "write ack"), "ms",
               false);
    report.Add("load.writes", wres.attempted, "count", false);
    report.Add("load.writer_late_p50_ms", Median(wres.late_ms), "ms", false);
    report.Add("load.writer_late_max_ms",
               *std::max_element(wres.late_ms.begin(), wres.late_ms.end()),
               "ms", false);
    report.Add("load.writer_cpu_s", wres.cpu_s, "s", false);
    report.Add("verify.final_flush_s", final_flush_s, "s", false);
  }

  if (cfg.trace && failed == 0) {
    // Spans: client request -> backend Run -> slowest shard sub-batch.
    SpanLog log;
    std::unordered_map<uint64_t, int64_t> request_span;
    for (const ClientRecord& r : records) {
      request_span[r.id] =
          log.Add({"client.request", r.start_ns, r.end_ns, -1, r.id});
    }
    std::vector<int64_t> run_span;
    size_t unattributed = 0;
    for (const RunRecord& r : runs) {
      auto it = request_span.find(r.request_id);
      if (it == request_span.end()) ++unattributed;
      const int64_t parent = it == request_span.end() ? -1 : it->second;
      const int64_t idx =
          log.Add({"serve.backend.run", r.start_ns, r.end_ns, parent,
                   r.request_id});
      run_span.push_back(idx);
      log.Add({"shard.slowest_subbatch", r.start_ns,
               r.start_ns + static_cast<int64_t>(r.slowest_shard_s * 1e9),
               idx, r.request_id});
    }
    if (writes) log.Append(wres.spans);
    const std::vector<Span> spans = log.Snapshot();
    const std::vector<int64_t> self = SelfTimesNs(spans);

    std::unordered_map<uint64_t, const ClientRecord*> by_id;
    for (const ClientRecord& r : records) by_id[r.id] = &r;
    std::vector<double> pre_ms, post_ms, router_self_ms, subquery_us;
    size_t downgrades = 0, shed = 0, deadline = 0, partial = 0;
    double response_bytes = 0;
    for (const ClientRecord& r : records) response_bytes += r.response_bytes;
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunRecord& r = runs[i];
      router_self_ms.push_back(self[run_span[i]] * 1e-6);
      for (double s : r.subquery_s) subquery_us.push_back(s * 1e6);
      downgrades += r.downgrades;
      shed += r.shed;
      deadline += r.deadline_exceeded;
      partial += r.partial;
      auto it = by_id.find(r.request_id);
      if (it == by_id.end()) continue;
      pre_ms.push_back((r.start_ns - it->second->start_ns) * 1e-6);
      post_ms.push_back((it->second->end_ns - r.end_ns) * 1e-6);
    }
    const double rps_traced = Ratio(traced.completed, traced.wall_s);
    const double rps_plain = Ratio(plain.completed, plain.wall_s);

    report.Add("serve.server.pre_backend_ms", Median(pre_ms), "ms", true);
    report.Add("serve.server.post_backend_ms", Median(post_ms), "ms", true);
    report.Add("serve.server.response_bytes",
               Ratio(response_bytes, records.size()), "bytes", true);
    report.Add("serve.server.unattributed_runs", unattributed, "count",
               false);
    phase("spans");
    const ProtocolReplay proto =
        ReplayProtocol(cfg, *st->corpus, lists, &replay_ok);
    phase("protocol");
    report.Add("serve.protocol.parse_us", proto.parse_us, "us", true);
    report.Add("serve.protocol.serialize_us", proto.serialize_us, "us", true);
    report.Add("serve.cache.hit_rate",
               Ratio(cache_delta.hits, cache_delta.hits + cache_delta.misses),
               "fraction", true);
    report.Add("serve.cache.lookup_us", cache_lookup_us, "us", true);
    report.Add("serve.cache.entry_bytes", Median(cache_entry_bytes), "bytes",
               true);
    report.Add("serve.cache.lru_evictions",
               Ratio(cache_delta.lru_evictions, traced_rounds), "count",
               false);
    report.Add("serve.cache.insert_failures", cache_delta.insert_failures,
               "count", false);
    report.Add("shard.router.self_ms", Median(router_self_ms), "ms", true);
    report.Add("shard.router.partial_queries", partial, "count", false);
    report.Add("index.engine.subquery_p50_us", Median(subquery_us), "us",
               true);
    report.Add("index.engine.subquery_p99_us",
               Tail(subquery_us, 0.99, "subquery"), "us", true);
    report.Add("index.engine.downgrades", downgrades, "count", false);
    report.Add("index.engine.shed", shed, "count", false);
    report.Add("index.engine.deadline_exceeded", deadline, "count", false);
    const FesiaReplay fr =
        ReplayFesia(*st->index, lists, !writes, &replay_ok);
    phase("fesia");
    report.Add("fesia.count_gbps", fr.count_gbps, "GB/s", true);
    report.Add("fesia.into_gbps", fr.into_gbps, "GB/s", true);
    report.Add("fesia.sort_share", fr.sort_share, "fraction", true);
    report.Add("fesia.step1_share", fr.step1_share, "fraction", true);
    report.Add("fesia.matched_segments_vs_model", fr.matched_vs_model,
               "ratio", true);
    report.Add("fesia.kway_us", fr.kway_us, "us", true);
    report.Add("fesia.replayed_pairs", fr.pairs, "count", false);
    if (writes) {
      report.Add("serve.cache.stale_evictions_per_write",
                 Ratio(cache_delta.stale_evictions, wres.attempted), "ratio",
                 false);
      report.Add("store.upsert_p50_ms", Median(wres.upsert_ms), "ms", false);
      if (auto p = Percentile(wres.upsert_ms, 0.99)) {
        report.Add("store.upsert_p99_ms", *p, "ms", false);
      }
      report.Add("store.flush_s", Median(wres.flush_s), "s", false);
      report.Add("store.overlay_us", overlay.us_per_query, "us", false);
      report.Add("store.overlay_delta_docs",
                 static_cast<double>(overlay.delta_docs), "count", false);
      report.Add("store.wal_open_bytes_peak",
                 static_cast<double>(wres.wal_open_bytes_peak), "bytes",
                 false);
      report.Add("store.pending_docs_peak",
                 static_cast<double>(wres.pending_docs_peak), "count", false);
      report.Add("store.rejected",
                 static_cast<double>(RejectedMutations(*st->index) -
                                     rejected0),
                 "count", false);
    }
    report.Add("trace.requests_per_s_traced", rps_traced, "1/s", false);
    report.Add("trace.requests_per_s_untraced", rps_plain, "1/s", false);
    report.Add("trace.overhead_rps", rps_traced - rps_plain, "1/s", false);
    report.Add("trace.overhead_frac", Ratio(rps_plain - rps_traced, rps_plain),
               "fraction", true);
    const std::string path = cfg.spans_dir + "/" + cfg.w.name + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    fs::create_directories(cfg.spans_dir, ec);
    if (log.WriteJsonLines(path)) {
      std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
    }
    if (!replay_ok) {
      ++failed;
      if (first_error.empty()) first_error = "layer replay disagreed";
    }
  }

  if (!first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", first_error.c_str());
  }
  report.Final(failed == 0, attempted, failed);
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
