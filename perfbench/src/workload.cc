#include "workload.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "checks.h"
#include "gen/lubm.h"
#include "gen/scale_free.h"
#include "gen/workload.h"
#include "util/json.h"
#include "util/random.h"

namespace perfbench {
namespace {

// Generator seed of every workload's query pool. The pools are fixed, like
// the paper's query sets; --seed draws the order they are sent in.
constexpr uint64_t kPoolSeed = 0xA3BE5;

// paper-complex: distinct texts per query size in the timed pool (about
// one 20-second run's worth today) and in the warm-up pool, and the
// per-query budget of the paper's protocol (Section 7.2), scaled to this
// dataset: ~70x the median query. A query over it is answered timed_out,
// the paper's "unanswered".
constexpr int kComplexPerSize = 800;
constexpr int kComplexWarmupPerSize = 20;
constexpr uint64_t kComplexDeadlineMs = 250;

// serve-mix: the request variants every base query is sent as, and the
// share of draws each gets.
constexpr Kind kMixKinds[] = {Kind::kRows, Kind::kRespelled, Kind::kPage,
                              Kind::kPage, Kind::kPage, Kind::kGroups,
                              Kind::kCount};
constexpr double kMixShares[] = {0.35, 0.20, 0.09, 0.08, 0.08, 0.05, 0.15};
constexpr size_t kMixVariants = std::size(kMixKinds);
constexpr uint64_t kPageRows = 10;
constexpr double kZipfExponent = 1.0;
constexpr size_t kMixRound = 2000;

// fanout-stream: the row cap of every stream, and how many queries reach it.
constexpr uint64_t kStreamLimit = 12000;
constexpr size_t kStreamQueries = 24;

// Seeded shuffles of a workload's round that make up its request order
// (the order repeats after them).
constexpr uint64_t kOrderRounds = 8;

int ClientThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

// A seeded permutation of [0, n).
std::vector<uint32_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  amber::Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  return order;
}

// Complex queries of k = 10, 20, ..., 50 interleaved, so every prefix of
// the list holds the sizes in equal shares.
void AddComplex(const amber::WorkloadGenerator& gen, int per_size, uint64_t salt,
                Workload* w) {
  std::vector<std::vector<std::string>> by_size;
  for (int k = 10; k <= 50; k += 10) {
    amber::WorkloadOptions o;
    o.seed = Mix(kPoolSeed, salt + k);
    o.query_size = k;
    o.count = per_size;
    by_size.push_back(gen.Generate(amber::QueryShape::kComplex, o));
  }
  for (int i = 0; i < per_size; ++i) {
    for (std::vector<std::string>& texts : by_size) {
      if (static_cast<size_t>(i) >= texts.size()) continue;
      Request r;
      r.query = static_cast<uint32_t>(w->requests.size());
      r.kind = Kind::kCount;
      r.text = std::move(texts[i]);
      r.thread_budget = 2;
      r.deadline_ms = kComplexDeadlineMs;
      w->requests.push_back(std::move(r));
    }
  }
}

Workload PaperComplex(const std::vector<amber::Triple>& triples,
                      Reference* reference) {
  Workload w;
  w.clients = 1;
  w.verify_before = false;
  amber::WorkloadGenerator gen(triples);
  AddComplex(gen, kComplexWarmupPerSize, 200, &w);
  w.warmup = w.warmup_texts = w.requests.size();
  AddComplex(gen, kComplexPerSize, 100, &w);
  for (size_t i = w.warmup; i < w.requests.size(); ++i) {
    w.round.push_back(static_cast<uint32_t>(i));
  }
  // Four queries of each size are also counted independently.
  for (uint32_t i = 0; i < 20; ++i) {
    w.reference_sample.push_back(static_cast<uint32_t>(w.warmup + i));
    w.reference_counts.push_back(reference->Count(w.requests[w.warmup + i].text));
  }
  return w;
}

Workload ServeMix(const std::vector<amber::Triple>& triples, Reference* reference) {
  Workload w;
  std::vector<std::string> queries;             // base texts
  std::vector<std::optional<uint64_t>> counts;  // per base query
  w.clients = ClientThreads();
  // qps from a closed loop on every connection; latencies from an open
  // loop at a fixed rate, about half the closed-loop qps measured when
  // the benchmark was defined (see README.md).
  w.closed_share = 0.4;
  w.open_rate = 3500;
  w.warmup = 2000;
  amber::WorkloadGenerator gen(triples);
  amber::Rng rng(Mix(kPoolSeed, 2));
  for (int k = 3; k <= 8; ++k) {
    for (amber::QueryShape shape :
         {amber::QueryShape::kStar, amber::QueryShape::kComplex}) {
      amber::WorkloadOptions o;
      o.seed = Mix(kPoolSeed, 10 * k + static_cast<int>(shape));
      o.query_size = k;
      o.count = 25;
      for (std::string& text : gen.Generate(shape, o)) {
        // Every text carries a LIMIT: the service materializes a /query
        // result in full before it pages it (see README.md).
        static constexpr uint64_t kLimits[] = {20, 50, 100, 200};
        text += "\nLIMIT " + std::to_string(kLimits[rng.Uniform(4)]);
        // Queries no independent engine answers in its budget cannot be
        // checked; they are left out (README.md counts them).
        std::optional<uint64_t> count = reference->Count(text);
        if (!count) continue;
        queries.push_back(std::move(text));
        counts.push_back(count);
      }
    }
  }
  // The requests: every base query in every variant, base queries ranked
  // by a fixed shuffle.
  for (uint32_t q : Shuffled(queries.size(), Mix(kPoolSeed, 3))) {
    uint64_t page = 0;
    for (Kind kind : kMixKinds) {
      Request r;
      r.query = q;
      r.kind = kind;
      r.text = kind == Kind::kRespelled ? Respell(queries[q], Mix(kPoolSeed, q))
                                        : queries[q];
      if (kind == Kind::kPage) {
        r.offset = ++page * kPageRows;
        r.limit = kPageRows;
      }
      w.requests.push_back(std::move(r));
    }
    w.reference_sample.push_back(static_cast<uint32_t>(w.requests.size() -
                                                       kMixVariants));
    w.reference_counts.push_back(counts[q]);
  }
  // One round of kMixRound requests: rank r drawn in proportion to
  // 1/r^kZipfExponent (every rank at least once), each draw paired with a
  // variant by share. The round is fixed; runs send it in seeded orders,
  // so every run sends the same mix.
  const size_t n = queries.size();
  std::vector<double> weight(n);
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  }
  std::vector<uint32_t> ranks;
  for (size_t r = 0; r < n; ++r) {
    const size_t copies = std::max<size_t>(
        1, static_cast<size_t>(std::lround(weight[r] / sum * kMixRound)));
    ranks.insert(ranks.end(), copies, static_cast<uint32_t>(r));
  }
  std::vector<uint32_t> variants;
  for (size_t v = 0; v < kMixVariants; ++v) {
    const size_t copies =
        static_cast<size_t>(std::lround(kMixShares[v] * static_cast<double>(ranks.size())));
    variants.insert(variants.end(), copies, static_cast<uint32_t>(v));
  }
  variants.resize(ranks.size(), 0);  // rounding slack goes to plain rows
  const std::vector<uint32_t> pick = Shuffled(variants.size(), Mix(kPoolSeed, 5));
  for (size_t i = 0; i < ranks.size(); ++i) {
    w.round.push_back(static_cast<uint32_t>(ranks[i] * kMixVariants + variants[pick[i]]));
  }
  return w;
}

Workload FanoutStream(const std::vector<amber::Triple>& triples,
                      Reference* reference) {
  Workload w;
  w.clients = 2;
  w.warmup = 2 * kStreamQueries;
  amber::WorkloadGenerator gen(triples);
  // Star queries of 3-12 patterns whose anchor gains 2-3 satellites over
  // its highest-fanout predicate. Only queries with at least a stream's
  // worth of rows are kept, as counted by the independent engines.
  constexpr int kSizes[] = {3, 5, 8, 12};
  for (int round = 0; w.requests.size() < kStreamQueries && round < 20; ++round) {
    for (int k : kSizes) {
      for (int fanout = 2; fanout <= 3; ++fanout) {
        amber::WorkloadOptions o;
        o.seed = Mix(kPoolSeed, 1000 * round + 10 * k + fanout);
        o.query_size = k;
        o.count = 8;
        o.satellite_fanout = fanout;
        for (std::string& text : gen.Generate(amber::QueryShape::kStar, o)) {
          if (w.requests.size() >= kStreamQueries) break;
          const std::optional<uint64_t> count = reference->Count(text, kStreamLimit);
          if (count != kStreamLimit) continue;
          Request r;
          r.query = static_cast<uint32_t>(w.requests.size());
          r.kind = Kind::kStream;
          r.text = std::move(text);
          r.limit = kStreamLimit;
          w.reference_sample.push_back(r.query);
          w.reference_counts.push_back(count);
          w.requests.push_back(std::move(r));
        }
      }
    }
  }
  for (uint32_t i = 0; i < w.requests.size(); ++i) w.round.push_back(i);
  return w;
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

amber::ServiceOptions ServiceOptionsFor(const std::string& workload) {
  amber::ServiceOptions o;
  o.pool_threads = 6;
  o.max_in_flight = 8;
  o.max_queued = 16;
  o.cache_entries = 64;
  // artifact_server's 1 s default deadline; paper-complex requests carry
  // their own budget and fanout-stream ones run to their row cap.
  if (workload == "serve-mix") o.default_deadline = std::chrono::milliseconds(1000);
  return o;
}

bool KnownWorkload(const std::string& name) {
  return name == "paper-complex" || name == "serve-mix" ||
         name == "fanout-stream";
}

std::vector<amber::Triple> GenerateData(const std::string& workload) {
  if (workload == "serve-mix") {
    amber::LubmOptions o;
    o.universities = 2;
    return amber::GenerateLubm(o);
  }
  return amber::GenerateScaleFree(amber::DbpediaProfile(1.0));
}

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::vector<amber::Triple>& triples,
                      Reference* reference) {
  Workload w = name == "paper-complex" ? PaperComplex(triples, reference)
               : name == "serve-mix"   ? ServeMix(triples, reference)
                                       : FanoutStream(triples, reference);
  w.name = name;
  w.seed = seed;
  for (uint64_t k = 0; k < kOrderRounds; ++k) {
    for (uint32_t i : Shuffled(w.round.size(), Mix(seed, k))) {
      w.order.push_back(w.round[i]);
    }
  }
  return w;
}

uint32_t NextRequest(const Workload& w, uint64_t i) {
  if (i < w.warmup_texts) return static_cast<uint32_t>(i);
  return w.order[(i - w.warmup_texts) % w.order.size()];
}

std::string Request::Body(bool bypass_cache) const {
  amber::json::Writer w;
  w.BeginObject();
  w.KV("query", text);
  if (deadline_ms != 0) w.KV("deadline_ms", deadline_ms);
  if (thread_budget != 0) w.KV("thread_budget", static_cast<uint64_t>(thread_budget));
  if (offset != 0) w.KV("offset", offset);
  if (limit != 0) w.KV("limit", limit);
  if (kind == Kind::kCount) w.KV("count_only", true);
  if (kind == Kind::kGroups) w.KV("result_form", "groups");
  if (bypass_cache) w.KV("bypass_cache", true);
  w.EndObject();
  return w.Take();
}

amber::RequestOptions Request::Options(bool bypass_cache) const {
  amber::RequestOptions o;
  o.deadline = std::chrono::milliseconds(deadline_ms);
  o.thread_budget = thread_budget;
  o.offset = offset;
  o.limit = limit;
  o.count_only = kind == Kind::kCount;
  o.want_groups = kind == Kind::kGroups;
  o.bypass_cache = bypass_cache;
  return o;
}

}  // namespace perfbench
