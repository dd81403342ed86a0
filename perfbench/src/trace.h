// The traced run's instruments: an in-memory span log written out when
// the run ends, and the replay that times one request's calls into each
// layer's public functions from outside the server.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "client.h"
#include "core/amber_engine.h"
#include "server/query_service.h"
#include "workload.h"

namespace perfbench {

/// One timed interval: spans of one request share `request`; `parent` is
/// the id of the span that caused it (0 = none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe in-memory span log.
class SpanLog {
 public:
  uint64_t NewId();
  void Add(const Span& span);
  /// Writes one JSON object per line, times in microseconds from `origin`.
  bool Write(const std::string& path, Clock::time_point origin) const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Layer timings and counters of one replayed request.
struct LayerSample {
  double normalize_ms = 0;
  double query_graph_ms = 0;
  double plan_ms = 0;
  double seed_ms = 0;
  uint64_t seed_candidates = 0;  // S-index sets over component seeds
  double exec_ms = 0;
  amber::ExecStats stats;
  double translate_ms = 0;
  double serialize_ms = 0;
  double service_ms = 0;       // in-process QueryService call
  double service_self_ms = 0;  // service_ms minus the phases above it covers
  double http_ms = 0;          // the same request over HTTP
  uint64_t stream_pages = 0;
  uint64_t peak_buffered_bytes = 0;
  bool ok = true;
};

/// Replays `request` phase by phase: NormalizeQuery, QueryGraph::Build,
/// PlanQuery, the S- and A-index lookups of each component's seed vertex,
/// the engine call the service makes, TranslateRow over the response's
/// rows, the wire serializer, the in-process QueryService call and the
/// HTTP round trip, each under a span of `request_id`. The service and
/// HTTP calls bypass the cache so both execute.
LayerSample Replay(const Request& request, amber::AmberEngine* engine,
                   amber::QueryService* service, MeteredClient* client,
                   SpanLog* log, uint64_t request_id);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
