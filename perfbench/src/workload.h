// The benchmark's three workloads: which dataset each serves, with which
// server options, and the request sequence its clients send. Everything
// here is a pure function of the workload name and the --seed argument.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "server/query_service.h"

namespace perfbench {

/// What one request asks of the server.
enum class Kind : uint8_t {
  kCount,      // POST /query, count_only
  kRows,       // POST /query, rows form
  kRespelled,  // kRows with renamed variables and changed whitespace
  kPage,       // kRows with offset/limit
  kGroups,     // POST /query, "result_form":"groups"
  kStream,     // POST /query/stream, rows form
};

/// One distinct request of a workload.
struct Request {
  uint32_t query = 0;  // the base query; a serve-mix query has 7 variants
  Kind kind = Kind::kRows;
  std::string text;    // the SPARQL text sent
  uint64_t offset = 0;
  uint64_t limit = 0;
  int thread_budget = 0;
  uint64_t deadline_ms = 0;

  const char* path() const {
    return kind == Kind::kStream ? "/query/stream" : "/query";
  }
  /// The wire request body (server/wire.h schema).
  std::string Body(bool bypass_cache = false) const;
  /// The same request as in-process QueryService options.
  amber::RequestOptions Options(bool bypass_cache = false) const;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  int clients = 1;
  /// Share of the measured seconds run as a closed loop (qps); the rest
  /// is an open loop at `open_rate` requests per second (latencies).
  double closed_share = 1.0;
  double open_rate = 0;
  /// Every distinct request.
  std::vector<Request> requests;
  /// The first `warmup_texts` requests are sent once each, in order
  /// (paper-complex's warm-up texts). After them the clients cycle through
  /// `order`: seeded shuffles of the workload's fixed `round` of request
  /// indices, so every run sends the same mix in its own order.
  size_t warmup_texts = 0;
  std::vector<uint32_t> round;
  std::vector<uint32_t> order;
  /// Positions of the sequence sent before timing starts.
  uint64_t warmup = 0;
  /// Requests verified in full before timing starts (serve-mix and
  /// fanout-stream: every distinct request). paper-complex sends each of
  /// its thousands of texts once, so it is checked as it runs instead.
  bool verify_before = true;
  /// Requests whose count is checked against an independent engine, and
  /// that engine's count (nullopt: no engine answered within its budget).
  std::vector<uint32_t> reference_sample;
  std::vector<std::optional<uint64_t>> reference_counts;
};

/// The server options of a workload (examples/artifact_server.cpp's).
amber::ServiceOptions ServiceOptionsFor(const std::string& workload);

/// The dataset of a workload: LUBM(2) for serve-mix, the DBPEDIA profile
/// at scale 1.0 otherwise, each with its generator's own fixed seed. The
/// --seed argument draws the queries and the request order, not the data:
/// a run-to-run change of dataset would move every metric by itself.
std::vector<amber::Triple> GenerateData(const std::string& workload);

/// Builds the workload's queries and requests, counts its reference
/// sample with `reference`, and orders the requests by `seed`. `triples`
/// is the dataset GenerateData returned.
class Reference;
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::vector<amber::Triple>& triples,
                      Reference* reference);

/// Index into Workload::requests of the i-th request sent.
uint32_t NextRequest(const Workload& w, uint64_t i);

/// True for the workload names the benchmark knows.
bool KnownWorkload(const std::string& name);

/// SplitMix64 finalizer: derives independent sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
