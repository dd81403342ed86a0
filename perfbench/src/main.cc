// The repository's end-to-end benchmark (perfbench/README.md).
//
//   amber_perfbench --workload <paper-complex|serve-mix|fanout-stream>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// One process generates the workload's dataset, runs the offline stage,
// saves and re-opens the AMF artifact, and serves it over loopback HTTP;
// client threads of the same process then drive the server, every answer
// is checked against computations made apart from AMbER, and the last
// line of stdout is one JSON object with the run's metrics. --trace 1
// repeats the workload with spans around every client call, replays a
// sample of its requests layer by layer, writes the spans to
// perfbench-out/ and prints the per-layer metrics instead.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "client.h"
#include "core/amber_engine.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "trace.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = value == "1";
    else return false;
  }
  return KnownWorkload(args->workload) && args->seconds > 0;
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Samples the resident set every few milliseconds while alive.
class RssSampler {
 public:
  RssSampler() : thread_([this] {
      while (!stop_.load()) {
        const double mb = ResidentMb();
        double seen = peak_.load();
        while (mb > seen && !peak_.compare_exchange_weak(seen, mb)) {}
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_.load();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> peak_{0};
  std::thread thread_;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t FieldAfter(std::string_view body, std::string_view key) {
  const size_t at = body.rfind(key);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(body.data() + at + key.size(), nullptr, 10);
}

/// One timed exchange, reduced to what the checks and metrics need.
struct Record {
  uint64_t index = 0;  // position in the request sequence
  uint32_t request = 0;
  int status = 0;      // 0 = transport error
  bool complete = false;
  bool timed_out = false;
  uint64_t total = 0;  // total_rows, or a stream's rows_streamed
  uint64_t body_bytes = 0;
  uint64_t wire_bytes = 0;
  double ttfb_ms = 0;
  double total_ms = 0;
  double late_ms = 0;  // open loop: send time minus due time
  double done_s = 0;   // closed loop: completion, from the loop's start
};

/// Closed-loop throughput: the median over whole one-second windows of
/// the completion rate inside each, so a few seconds of interference from
/// outside the process do not set the figure.
double WindowedQps(const std::vector<Record>& records, double elapsed_s) {
  std::vector<std::vector<double>> windows(static_cast<size_t>(elapsed_s));
  for (const Record& rec : records) {
    const size_t k = static_cast<size_t>(rec.done_s);
    if (k < windows.size()) windows[k].push_back(rec.done_s);
  }
  std::vector<double> rates;
  for (std::vector<double>& done : windows) {
    if (done.size() < 2) continue;
    std::sort(done.begin(), done.end());
    rates.push_back(static_cast<double>(done.size() - 1) / (done.back() - done.front()));
  }
  if (rates.empty()) return static_cast<double>(records.size()) / elapsed_s;
  return Quantile(rates, 0.5);
}

Record Send(MeteredClient* client, const Workload& w, uint64_t index,
            Clock::time_point origin) {
  Record rec;
  rec.index = index;
  rec.request = NextRequest(w, index);
  const Request& r = w.requests[rec.request];
  rec.late_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin).count();
  auto ex = client->Post(r.path(), r.Body(), origin, /*keep_body=*/false);
  if (!ex.ok()) return rec;
  rec.status = ex->status;
  rec.body_bytes = ex->body_bytes;
  rec.wire_bytes = ex->wire_bytes;
  rec.ttfb_ms = ex->ttfb_ms;
  rec.total_ms = ex->total_ms;
  if (r.kind == Kind::kStream) {
    rec.total = FieldAfter(ex->body, "\"rows_streamed\":");
    rec.complete = ex->complete && ex->body.find("\"complete\":true") != std::string::npos;
  } else {
    rec.total = FieldAfter(ex->body, "\"total_rows\":");
    rec.complete = rec.status == 200;
    rec.timed_out = ex->body.find("\"timed_out\":true") != std::string::npos;
  }
  return rec;
}

/// Client threads, each with its own keep-alive connection; their byte
/// and response tallies survive the loops for the transport checks.
class Clients {
 public:
  Clients(uint16_t port, int n) {
    for (int i = 0; i < n; ++i) clients_.push_back(std::make_unique<MeteredClient>(port));
  }
  MeteredClient* at(size_t i) { return clients_[i].get(); }
  size_t size() const { return clients_.size(); }
  uint64_t bytes_read() const {
    uint64_t n = 0;
    for (const auto& c : clients_) n += c->bytes_read();
    return n;
  }
  uint64_t responses() const {
    uint64_t n = 0;
    for (const auto& c : clients_) n += c->responses();
    return n;
  }

 private:
  std::vector<std::unique_ptr<MeteredClient>> clients_;
};

/// Closed loop: every client sends its next request when the previous one
/// completes, over sequence positions [first, first + count) and until
/// `stop`. Records come back in sequence order.
std::vector<Record> ClosedLoop(const Workload& w, Clients* clients,
                               uint64_t first, uint64_t count,
                               Clock::time_point stop, SpanLog* spans) {
  const Clock::time_point loop_start = Clock::now();
  std::atomic<uint64_t> next{first};
  std::vector<std::vector<Record>> per(clients->size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < stop) {
        const uint64_t i = next.fetch_add(1);
        if (i - first >= count) break;
        const Clock::time_point start = Clock::now();
        per[c].push_back(Send(clients->at(c), w, i, start));
        per[c].back().done_s = Seconds(Clock::now() - loop_start);
        if (spans != nullptr) {
          spans->Add({"client", spans->NewId(), 0, i, start, Clock::now()});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Record> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return out;
}

/// Open loop: request j is due at start + j / rate whatever the earlier
/// ones did; each is timed from its due time.
std::vector<Record> OpenLoop(const Workload& w, Clients* clients, uint64_t first,
                             double seconds, SpanLog* spans) {
  const Clock::time_point start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Record>> per(clients->size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients->size(); ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        const uint64_t j = next.fetch_add(1);
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(j) / w.open_rate));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        per[c].push_back(Send(clients->at(c), w, first + j, due));
        if (spans != nullptr) {
          spans->Add({"client", spans->NewId(), 0, first + j, due, Clock::now()});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Record> out;
  for (auto& v : per) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return out;
}

/// What a verified request must answer in the timed phase.
struct Expected {
  bool known = false;
  uint64_t total = 0;
  uint64_t body_bytes = 0;
  /// A groups request answers in rows form when the cache holds the
  /// query's flat result (QueryResponse::groups_form): either size is right.
  uint64_t alt_body_bytes = 0;
};

/// Accumulates check failures; the first few are printed.
struct Verdict {
  uint64_t failures = 0;
  void Fail(const std::string& what) {
    if (++failures <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void Check(const std::string& err, const std::string& where) {
    if (!err.empty()) Fail(where + ": " + err);
  }
};

/// Decodes a /query/stream body into its rows and summary.
struct StreamBody {
  std::vector<std::string> var_names;
  Rows rows;
  uint64_t rows_streamed = 0;
  bool complete = false;
};

StreamBody ParseStream(const std::string& body) {
  StreamBody out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t nl = body.find('\n', pos);
    if (nl == std::string::npos) nl = body.size();
    auto doc = amber::json::Parse(std::string_view(body).substr(pos, nl - pos));
    pos = nl + 1;
    if (!doc.ok()) continue;
    if (const amber::json::Value* rows = doc->Find("rows")) {
      for (const amber::json::Value& row : rows->array) {
        std::vector<std::string> cells;
        for (const amber::json::Value& cell : row.array) cells.push_back(cell.str_v);
        out.rows.push_back(std::move(cells));
      }
    } else if (const amber::json::Value* summary = doc->Find("summary")) {
      if (const amber::json::Value* names = summary->Find("var_names")) {
        for (const amber::json::Value& n : names->array) out.var_names.push_back(n.str_v);
      }
      if (const amber::json::Value* n = summary->Find("rows_streamed")) out.rows_streamed = n->uint_v;
      if (const amber::json::Value* c = summary->Find("complete")) out.complete = c->bool_v;
    }
  }
  return out;
}

/// The serving stack under test, built from the workload's dataset.
struct Stack {
  std::unique_ptr<amber::AmberEngine> engine;
  std::unique_ptr<amber::QueryService> service;
  std::unique_ptr<amber::HttpServer> server;
  std::map<std::string, double> timings;  // per-layer set-up metrics
  double setup_s = 0;
};

bool BuildStack(const std::vector<amber::Triple>& triples,
                const amber::ServiceOptions& service_options,
                const std::string& artifact, double gen_s, Stack* stack) {
  {
    amber::AmberEngine::BuildOptions build;
    build.num_threads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    auto built = amber::AmberEngine::Build(triples, build);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return false;
    }
    stack->timings["rdf.encode_s"] = built->timings().encode_seconds;
    stack->timings["graph.build_s"] = built->timings().graph_seconds;
    stack->timings["index.build_s"] = built->timings().index_seconds;
    const Clock::time_point t = Clock::now();
    if (amber::Status s = built->SaveFile(artifact); !s.ok()) {
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
      return false;
    }
    stack->timings["util.amf_save_s"] = Seconds(Clock::now() - t);
  }
  const Clock::time_point t = Clock::now();
  auto opened = amber::AmberEngine::OpenFile(artifact);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return false;
  }
  stack->timings["util.amf_open_s"] = Seconds(Clock::now() - t);
  stack->timings["util.artifact_mb"] =
      static_cast<double>(std::filesystem::file_size(artifact)) / (1024.0 * 1024.0);
  stack->timings["gen.generate_s"] = gen_s;
  stack->engine = std::make_unique<amber::AmberEngine>(std::move(opened).value());
  stack->service = std::make_unique<amber::QueryService>(stack->engine.get(), service_options);
  stack->server = std::make_unique<amber::HttpServer>(stack->service.get());
  if (amber::Status s = stack->server->Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return false;
  }
  stack->setup_s = Seconds(Clock::now() - kProcessStart);
  return true;
}

/// Verifies every distinct request of serve-mix / fanout-stream before
/// timing starts; fills `expected` and runs the checkers' self-test on
/// real answers.
void VerifyBefore(const Workload& w, MeteredClient* client,
                  const std::vector<std::optional<uint64_t>>& reference,
                  const TripleSet& triples, std::vector<Expected>* expected,
                  Verdict* verdict, uint64_t* http_answers) {
  expected->assign(w.requests.size(), Expected{});
  auto post = [&](const Request& r) -> amber::Result<Exchange> {
    auto ex = client->Post(r.path(), r.Body());
    if (ex.ok() && ex->status == 200) ++*http_answers;
    return ex;
  };
  bool self_tested = false;
  for (size_t q = 0, ri = 0; ri < w.requests.size(); ++q) {
    // The requests of one base query are consecutive.
    const size_t begin = ri;
    while (ri < w.requests.size() && w.requests[ri].query == w.requests[begin].query) ++ri;
    const std::string where = w.name + " query " + std::to_string(w.requests[begin].query);
    const std::optional<uint64_t> ref = reference[q];
    if (w.requests[begin].kind == Kind::kStream) {
      const Request& r = w.requests[begin];
      auto ex = post(r);
      if (!ex.ok() || ex->status != 200) {
        verdict->Fail(where + ": stream request failed");
        continue;
      }
      const StreamBody whole = ParseStream(ex->body);
      verdict->Check(CheckRowsSound(r.text, whole.var_names, whole.rows, triples), where);
      verdict->Check(CheckCount(whole.rows_streamed,
                                ref ? std::optional<uint64_t>(std::min(*ref, r.limit))
                                    : std::nullopt),
                     where + " rows_streamed");
      if (whole.rows.size() != whole.rows_streamed || !whole.complete) {
        verdict->Fail(where + ": stream rows disagree with its summary");
      }
      // The last two pages of 1000 rows, fetched by offset/limit,
      // concatenate to the tail of the whole stream.
      constexpr uint64_t kPage = 1000;
      std::vector<Rows> pages;
      for (uint64_t p = 2; p >= 1; --p) {
        Request page = r;
        page.offset = r.limit - p * kPage;
        page.limit = kPage;
        auto px = post(page);
        pages.push_back(px.ok() ? ParseStream(px->body).rows : Rows{});
      }
      const Rows tail(whole.rows.end() - std::min<size_t>(whole.rows.size(), 2 * kPage),
                      whole.rows.end());
      verdict->Check(CheckPages(pages, tail), where);
      (*expected)[begin] = {true, whole.rows_streamed, ex->body.size()};
      if (!self_tested) {
        amber::QueryResponse resp;
        resp.var_names = whole.var_names;
        resp.rows = whole.rows;
        for (const std::string& f : SelfTest(r.text, resp, nullptr, whole.rows_streamed, triples)) {
          verdict->Fail("self-test: " + f);
        }
        self_tested = true;
      }
      continue;
    }
    // serve-mix: rows, respelled, three deeper pages, groups, count.
    std::map<Kind, std::vector<amber::QueryResponse>> got;
    for (size_t i = begin; i < ri; ++i) {
      // Groups are fetched uncached, so the server builds them.
      const Request& r = w.requests[i];
      auto ex = r.kind == Kind::kGroups ? client->Post(r.path(), r.Body(true)) : post(r);
      if (r.kind == Kind::kGroups && ex.ok() && ex->status == 200) ++*http_answers;
      auto resp = ex.ok() && ex->status == 200 ? amber::wire::ParseResponse(ex->body)
                                               : amber::Result<amber::QueryResponse>(
                                                     amber::Status::IOError("request failed"));
      if (!resp.ok()) {
        verdict->Fail(where + ": " + resp.status().ToString());
        return;
      }
      (*expected)[i] = {true, resp->total_rows, ex->body.size(), 0};
      got[w.requests[i].kind].push_back(std::move(resp).value());
    }
    auto index_of = [&](Kind kind) {
      size_t i = begin;
      while (w.requests[i].kind != kind) ++i;
      return i;
    };
    (*expected)[index_of(Kind::kGroups)].alt_body_bytes =
        (*expected)[index_of(Kind::kRows)].body_bytes;
    const amber::QueryResponse& rows = got[Kind::kRows][0];
    const std::string& text = w.requests[index_of(Kind::kRows)].text;
    verdict->Check(CheckCount(rows.total_rows, ref), where + " rows");
    verdict->Check(CheckCount(got[Kind::kCount][0].total_rows, ref), where + " count");
    verdict->Check(CheckRowsSound(text, rows.var_names, rows.rows, triples), where);
    const amber::QueryResponse& respelled = got[Kind::kRespelled][0];
    verdict->Check(CheckSameRows(respelled.rows, rows.rows), where + " re-spelled");
    verdict->Check(CheckRowsSound(w.requests[index_of(Kind::kRespelled)].text, respelled.var_names,
                                  respelled.rows, triples),
                   where + " re-spelled");
    verdict->Check(CheckGroups(got[Kind::kGroups][0], rows.rows), where);
    // Page 0 (sent here only) and the three deeper pages concatenate to
    // the first rows of the unpaged result.
    Request first_page = w.requests[index_of(Kind::kPage)];
    first_page.offset = 0;
    auto px = post(first_page);
    auto p0 = px.ok() ? amber::wire::ParseResponse(px->body)
                      : amber::Result<amber::QueryResponse>(amber::Status::IOError("page 0"));
    std::vector<Rows> pages = {p0.ok() ? p0->rows : Rows{}};
    for (const amber::QueryResponse& p : got[Kind::kPage]) pages.push_back(p.rows);
    size_t paged = 0;
    for (const Rows& p : pages) paged += p.size();
    verdict->Check(CheckPages(pages, Rows(rows.rows.begin(), rows.rows.begin() + std::min(paged, rows.rows.size()))),
                   where);
    if (paged != std::min<size_t>(rows.rows.size(), 4 * first_page.limit)) {
      verdict->Fail(where + ": pages hold " + std::to_string(paged) + " rows");
    }
    if (!self_tested && rows.rows.size() >= 2 && rows.rows.front() != rows.rows.back()) {
      for (const std::string& f : SelfTest(text, rows, &got[Kind::kGroups][0],
                                           rows.total_rows, triples)) {
        verdict->Fail("self-test: " + f);
      }
      self_tested = true;
    }
  }
  if (!self_tested) verdict->Fail("self-test found no answer to mutate");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::tuple<std::string, double, std::string>>& metrics) {
  amber::json::Writer w;
  w.BeginObject();
  w.KV("correct", correct);
  w.KV("attempted", attempted);
  w.KV("failed", failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value, unit] : metrics) {
    w.Key(name);
    w.BeginObject();
    w.KV("value", value);
    w.KV("unit", unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.Take().c_str());
}

int Run(const Args& args) {
  // ---- Set-up (setup_s): data, offline build, AMF save + open, server.
  const Clock::time_point gen_start = Clock::now();
  std::vector<amber::Triple> triples = GenerateData(args.workload);
  const double gen_s = Seconds(Clock::now() - gen_start);
  const std::string out_dir = "perfbench-out";
  std::filesystem::create_directories(out_dir);
  const std::string tag = args.workload + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  const std::string artifact = out_dir + "/" + tag + ".amf";
  Stack stack;
  if (!BuildStack(triples, ServiceOptionsFor(args.workload), artifact, gen_s, &stack)) {
    return 1;
  }
  std::filesystem::remove(artifact);  // the mapping stays valid
  std::fprintf(stderr, "[%s seed %" PRIu64 "] set-up %.3f s, %zu triples\n",
               args.workload.c_str(), args.seed, stack.setup_s, triples.size());

  // ---- Inputs and independent references (untimed).
  const Clock::time_point ref_start = Clock::now();
  Verdict verdict;
  auto reference = std::make_unique<Reference>(triples);
  const Workload w = MakeWorkload(args.workload, args.seed, triples, reference.get());
  if (w.requests.empty()) {
    std::fprintf(stderr, "no requests generated\n");
    return 1;
  }
  const std::vector<std::optional<uint64_t>>& ref_counts = w.reference_counts;
  const TripleSet triple_set(triples);
  const uint64_t by_store = reference->by_triple_store;
  const uint64_t by_backtrack = reference->by_graph_backtrack;
  const uint64_t unchecked = reference->unanswered;
  reference.reset();
  triples.clear();
  triples.shrink_to_fit();
  std::fprintf(stderr, "inputs and references: %.2f s; %zu requests checked against "
               "independent counts; counted by TripleStore %" PRIu64
               ", by GraphBacktrack %" PRIu64 ", by neither %" PRIu64 "\n",
               Seconds(Clock::now() - ref_start), ref_counts.size(), by_store,
               by_backtrack, unchecked);

  const uint16_t port = stack.server->port();
  uint64_t http_answers = 0;  // 200 answers, for the ServiceStats check
  uint64_t inprocess_answers = 0;
  MeteredClient checker(port);
  std::vector<Expected> expected;
  if (w.verify_before) {
    const Clock::time_point t = Clock::now();
    VerifyBefore(w, &checker, ref_counts, triple_set, &expected, &verdict, &http_answers);
    std::fprintf(stderr, "verified %zu distinct requests in %.2f s\n", w.requests.size(),
                 Seconds(Clock::now() - t));
  }

  // ---- Warm-up, then the timed phase.
  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;
  const int clients_n = w.clients;
  Clients clients(port, clients_n);
  std::vector<Record> warm =
      ClosedLoop(w, &clients, 0, w.warmup, Clock::time_point::max(), nullptr);
  malloc_trim(0);

  const amber::ServiceStats svc_before = stack.service->Stats();
  const amber::HttpServerStats http_before = stack.server->stats();
  RssSampler rss;
  const Clock::time_point timed_start = Clock::now();
  const double closed_s = args.seconds * w.closed_share;
  std::vector<Record> closed =
      ClosedLoop(w, &clients, w.warmup, UINT64_MAX,
                 timed_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(closed_s)),
                 span_log);
  const double closed_elapsed = Seconds(Clock::now() - timed_start);
  std::vector<Record> open;
  if (w.closed_share < 1.0) {
    const uint64_t first = w.warmup + closed.size();
    open = OpenLoop(w, &clients, first, args.seconds - closed_s, span_log);
  }
  const double peak_rss = rss.Stop();
  const amber::ServiceStats svc_after = stack.service->Stats();
  const amber::HttpServerStats http_after = stack.server->stats();

  // ---- Checks on every timed answer.
  std::vector<Record> timed = closed;
  timed.insert(timed.end(), open.begin(), open.end());
  uint64_t failed = 0, timed_out = 0;
  uint64_t groups_answers = 0, groups_as_rows = 0;
  auto sample_of = [&](uint32_t ri) -> std::optional<size_t> {
    auto it = std::find(w.reference_sample.begin(), w.reference_sample.end(), ri);
    if (it == w.reference_sample.end()) return std::nullopt;
    return static_cast<size_t>(it - w.reference_sample.begin());
  };
  for (const std::vector<Record>* set : {&warm, &timed}) {
    for (const Record& rec : *set) {
      if (rec.status == 200) ++http_answers;
    }
  }
  for (const Record& rec : timed) {
    const std::string where = w.name + " request " + std::to_string(rec.index);
    if (rec.status != 200 || !rec.complete) {
      ++failed;
      verdict.Fail(where + ": status " + std::to_string(rec.status));
      continue;
    }
    if (rec.timed_out) {
      // The paper's "unanswered": a partial count, never above the truth.
      ++timed_out;
      const std::optional<size_t> s = sample_of(rec.request);
      if (s && ref_counts[*s] && rec.total > *ref_counts[*s]) {
        verdict.Fail(where + ": timed-out count exceeds the independent one");
      }
      continue;
    }
    if (w.verify_before) {
      const Expected& e = expected[rec.request];
      if (w.requests[rec.request].kind == Kind::kGroups) {
        ++groups_answers;
        if (rec.body_bytes == e.alt_body_bytes) ++groups_as_rows;
      }
      if (!e.known || e.total != rec.total ||
          (e.body_bytes != rec.body_bytes && e.alt_body_bytes != rec.body_bytes)) {
        verdict.Fail(where + ": answer differs from the verified one (kind " +
                     std::to_string(static_cast<int>(w.requests[rec.request].kind)) +
                     ", total " + std::to_string(rec.total) + " vs " + std::to_string(e.total) +
                     ", bytes " + std::to_string(rec.body_bytes) + " vs " +
                     std::to_string(e.body_bytes) + ")");
      }
    } else {
      const std::optional<size_t> s = sample_of(rec.request);
      verdict.Check(CheckCount(rec.total, s ? ref_counts[*s] : std::nullopt), where);
    }
  }
  if (!w.verify_before) {
    // paper-complex: the independently counted queries are asked again
    // after timing (the timed phase may not have reached them), and their
    // first rows, streamed, must be sound.
    bool self_tested = false;
    for (size_t s = 0; s < w.reference_sample.size(); ++s) {
      Request r = w.requests[w.reference_sample[s]];
      const std::string where = w.name + " sampled query " + std::to_string(s);
      auto cx = checker.Post(r.path(), r.Body());
      auto count = cx.ok() && cx->status == 200
                       ? amber::wire::ParseResponse(cx->body)
                       : amber::Result<amber::QueryResponse>(amber::Status::IOError("failed"));
      if (!count.ok()) {
        verdict.Fail(where + ": count request failed");
        continue;
      }
      ++http_answers;
      if (!count->timed_out) verdict.Check(CheckCount(count->total_rows, ref_counts[s]), where);
      r.kind = Kind::kStream;
      r.limit = 16;
      auto ex = checker.Post(r.path(), r.Body());
      if (!ex.ok() || ex->status != 200) {
        verdict.Fail(w.name + ": witness stream failed");
        continue;
      }
      ++http_answers;
      const StreamBody body = ParseStream(ex->body);
      verdict.Check(CheckRowsSound(r.text, body.var_names, body.rows, triple_set),
                    w.name + " witness rows");
      if (!self_tested && body.rows.size() >= 2 && body.rows.front() != body.rows.back() &&
          ref_counts[s]) {
        amber::QueryResponse resp;
        resp.var_names = body.var_names;
        resp.rows = body.rows;
        for (const std::string& f : SelfTest(r.text, resp, nullptr, *ref_counts[s], triple_set)) {
          verdict.Fail("self-test: " + f);
        }
        self_tested = true;
      }
    }
    if (!self_tested) verdict.Fail("self-test found no answer to mutate");
  }

  // ---- Traced run: replay a sample of the timed requests layer by layer.
  std::vector<LayerSample> layers;
  if (args.trace) {
    const size_t want = w.name == "fanout-stream" ? w.requests.size()
                        : w.name == "paper-complex" ? 100
                                                    : 200;
    const size_t stride = std::max<size_t>(1, timed.size() / want);
    for (size_t i = 0; i < timed.size() && layers.size() < want; i += stride) {
      layers.push_back(Replay(w.requests[timed[i].request], stack.engine.get(),
                              stack.service.get(), &checker, &spans, timed[i].index));
      ++inprocess_answers;
      ++http_answers;
      if (!layers.back().ok) verdict.Fail(w.name + ": replay failed");
    }
    const std::string path = out_dir + "/spans-" + w.name + "-" + std::to_string(args.seed) + ".jsonl";
    if (!spans.Write(path, timed_start)) verdict.Fail("cannot write " + path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }

  // ---- Transport and service totals must match what the clients saw.
  const uint64_t client_bytes = clients.bytes_read() + checker.bytes_read();
  const uint64_t client_responses = clients.responses() + checker.responses();
  amber::HttpServerStats http_end;
  for (int i = 0; i < 200; ++i) {  // the server counts a response after its write returns
    http_end = stack.server->stats();
    if (http_end.bytes_written == client_bytes && http_end.requests == client_responses) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (http_end.bytes_written != client_bytes) {
    verdict.Fail("server wrote " + std::to_string(http_end.bytes_written) +
                 " bytes, clients read " + std::to_string(client_bytes));
  }
  if (http_end.requests != client_responses) {
    verdict.Fail("server answered " + std::to_string(http_end.requests) +
                 " requests, clients received " + std::to_string(client_responses));
  }
  const uint64_t service_queries = stack.service->Stats().queries;
  if (service_queries != http_answers + inprocess_answers) {
    verdict.Fail("service answered " + std::to_string(service_queries) +
                 " queries, clients counted " + std::to_string(http_answers + inprocess_answers));
  }
  stack.server->Stop();

  // ---- Metrics.
  std::vector<double> latency, ttfb;
  for (const Record& rec : w.closed_share < 1.0 ? open : closed) {
    latency.push_back(rec.total_ms);
    ttfb.push_back(rec.ttfb_ms);
  }
  std::vector<double> late;
  for (const Record& rec : open) late.push_back(rec.late_ms);
  uint64_t wire = 0;
  for (const Record& rec : timed) wire += rec.wire_bytes;
  const double qps = WindowedQps(closed, closed_elapsed);
  const bool pool_wrapped = !w.verify_before && timed.size() > w.round.size();
  std::fprintf(stderr,
               "timed: %zu closed-loop requests in %.2f s, %zu open-loop at %.0f/s "
               "(late p50 %.3f ms, p99 %.3f ms); latency samples %zu; "
               "timed out %" PRIu64 "; groups requests answered as rows %" PRIu64
               " of %" PRIu64 "%s\n",
               closed.size(), closed_elapsed, open.size(), w.open_rate,
               Quantile(late, 0.5), Quantile(late, 0.99), latency.size(), timed_out,
               groups_as_rows, groups_answers, pool_wrapped ? "; the pool of distinct texts wrapped" : "");
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", stack.setup_s, "s"},
        {"qps", qps, "req/s"},
        {"latency_p50_ms", Quantile(latency, 0.50), "ms"},
        {"latency_p99_ms", Quantile(latency, 0.99), "ms"},
        {"ttfb_p50_ms", Quantile(ttfb, 0.50), "ms"},
        {"wire_bytes_per_request", static_cast<double>(wire) / static_cast<double>(timed.size()), "bytes"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
  } else {
    std::fprintf(stderr,
                 "traced run end-to-end: qps %.2f, latency p50 %.4f ms, p99 %.4f ms, "
                 "ttfb p50 %.4f ms\n",
                 qps, Quantile(latency, 0.50), Quantile(latency, 0.99), Quantile(ttfb, 0.5));
    for (const auto& [name, value] : stack.timings) {
      metrics.emplace_back(name, value, name == "util.artifact_mb" ? "MB" : "s");
    }
    auto median = [&](auto field) {
      std::vector<double> v;
      for (const LayerSample& s : layers) v.push_back(field(s));
      return Quantile(v, 0.5);
    };
    auto mean = [&](auto field) {
      double sum = 0;
      for (const LayerSample& s : layers) sum += static_cast<double>(field(s));
      return layers.empty() ? 0.0 : sum / static_cast<double>(layers.size());
    };
    auto ratio = [&](auto num, auto den) {
      double n = 0, d = 0;
      for (const LayerSample& s : layers) {
        n += static_cast<double>(num(s));
        d += static_cast<double>(den(s));
      }
      return d > 0 ? n / d : 0.0;
    };
    using L = const LayerSample&;
    auto add = [&](const char* name, double v, const char* unit) { metrics.emplace_back(name, v, unit); };
    add("core.timed_out_requests", static_cast<double>(timed_out), "count");
    add("server.normalize_ms", median([](L s) { return s.normalize_ms; }), "ms");
    add("sparql.query_graph_ms", median([](L s) { return s.query_graph_ms; }), "ms");
    add("core.plan_ms", median([](L s) { return s.plan_ms; }), "ms");
    add("index.seed_ms", median([](L s) { return s.seed_ms; }), "ms");
    add("index.seed_candidates", mean([](L s) { return s.seed_candidates; }), "count");
    add("core.initial_candidates", mean([](L s) { return s.stats.initial_candidates; }), "count");
    add("index.seed_keep_ratio",
        ratio([](L s) { return s.stats.initial_candidates; }, [](L s) { return s.seed_candidates; }),
        "ratio");
    add("core.exec_ms", median([](L s) { return s.exec_ms; }), "ms");
    add("core.recursion_calls", mean([](L s) { return s.stats.recursion_calls; }), "count");
    add("core.embeddings_found", mean([](L s) { return s.stats.embeddings_found; }), "count");
    add("core.embeddings_per_call",
        ratio([](L s) { return s.stats.embeddings_found; }, [](L s) { return s.stats.recursion_calls; }),
        "ratio");
    add("index.lists_materialized", mean([](L s) { return s.stats.lists_materialized; }), "count");
    add("index.scanned_elements", mean([](L s) { return s.stats.scanned_elements; }), "count");
    add("index.galloped_elements", mean([](L s) { return s.stats.galloped_elements; }), "count");
    add("index.probe_checks", mean([](L s) { return s.stats.probe_checks; }), "count");
    add("index.probe_hit_ratio",
        ratio([](L s) { return s.stats.probe_hits; }, [](L s) { return s.stats.probe_checks; }),
        "ratio");
    add("core.threads_used", mean([](L s) { return s.stats.threads_used; }), "count");
    add("core.tasks_dispatched", mean([](L s) { return s.stats.tasks_dispatched; }), "count");
    add("core.peak_arena_bytes", mean([](L s) { return s.stats.peak_arena_bytes; }), "bytes");
    add("core.groups_emitted", mean([](L s) { return s.stats.groups_emitted; }), "count");
    add("core.rows_expanded", mean([](L s) { return s.stats.rows_expanded; }), "count");
    add("core.compression_ratio",
        ratio([](L s) { return s.stats.factorized_rows_represented; },
              [](L s) { return std::max<uint64_t>(s.stats.rows_expanded, 1); }),
        "ratio");
    add("rdf.translate_ms", median([](L s) { return s.translate_ms; }), "ms");
    add("server.serialize_ms", median([](L s) { return s.serialize_ms; }), "ms");
    add("server.service_self_ms", median([](L s) { return s.service_self_ms; }), "ms");
    add("server.http_tax_ms", median([](L s) { return s.http_ms - s.service_ms; }), "ms");
    const uint64_t hits = svc_after.cache_hits - svc_before.cache_hits;
    const uint64_t misses = svc_after.cache_misses - svc_before.cache_misses;
    add("server.cache_hit_ratio", hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0, "ratio");
    add("server.cache_evictions", static_cast<double>(svc_after.cache_evictions - svc_before.cache_evictions), "count");
    add("server.single_flight_hits", static_cast<double>(svc_after.single_flight_hits - svc_before.single_flight_hits), "count");
    add("server.factorized_hits", static_cast<double>(svc_after.factorized_hits - svc_before.factorized_hits), "count");
    add("server.stream_pages", mean([](L s) { return s.stream_pages; }), "count");
    add("server.peak_buffered_bytes", mean([](L s) { return s.peak_buffered_bytes; }), "bytes");
    add("server.http.bytes_written", static_cast<double>(http_after.bytes_written - http_before.bytes_written), "bytes");
    add("server.http.requests", static_cast<double>(http_after.requests - http_before.requests), "count");
  }
  PrintResult(verdict.failures == 0, timed.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: amber_perfbench --workload <paper-complex|serve-mix|fanout-stream> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return perfbench::Run(args);
}
