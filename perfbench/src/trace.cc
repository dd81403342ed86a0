#include "trace.h"

#include <cstdio>
#include <optional>

#include "core/query_plan.h"
#include "server/wire.h"
#include "sparql/query_graph.h"

namespace perfbench {
namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Collects a stream's pages in process (the HTTP server's sink writes
// them to a socket instead).
class CollectPages : public amber::PageSink {
 public:
  bool OnPage(amber::StreamPage&& page) override {
    pages.push_back(std::move(page));
    return true;
  }
  std::vector<amber::StreamPage> pages;
};

// Drains engine rows (the engine call of a stream, without the pager).
class DrainRows : public amber::RowSink {
 public:
  bool OnRow(std::span<const std::string>) override { return true; }
};

}  // namespace

uint64_t SpanLog::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

bool SpanLog::Write(const std::string& path, Clock::time_point origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), us(s.start),
                 us(s.end));
  }
  return std::fclose(f) == 0;
}

LayerSample Replay(const Request& request, amber::AmberEngine* engine,
                   amber::QueryService* service, MeteredClient* client,
                   SpanLog* log, uint64_t request_id) {
  LayerSample s;
  Span root{"replay", log->NewId(), 0, request_id, Clock::now(), {}};
  // Runs `fn` under a child span of `root`; returns its milliseconds.
  auto timed = [&](const char* name, auto&& fn) {
    Span span{name, log->NewId(), root.id, request_id, Clock::now(), {}};
    fn();
    span.end = Clock::now();
    log->Add(span);
    return Ms(span.end - span.start);
  };

  std::optional<amber::Result<amber::NormalizedQuery>> nq;
  s.normalize_ms = timed("server.normalize",
                         [&] { nq.emplace(amber::NormalizeQuery(request.text)); });
  if (!nq->ok()) {
    s.ok = false;
    return s;
  }
  const amber::SelectQuery& query = (*nq)->query;
  std::optional<amber::Result<amber::QueryGraph>> qg;
  s.query_graph_ms = timed("sparql.query_graph", [&] {
    qg.emplace(amber::QueryGraph::Build(query, engine->dictionaries()));
  });
  if (!qg->ok()) {
    s.ok = false;
    return s;
  }
  if (!(*qg)->unsatisfiable()) {
    amber::QueryPlan plan;
    s.plan_ms = timed("core.plan", [&] {
      plan = amber::PlanQuery(**qg, {}, &engine->indexes().value,
                              engine->graph().NumVertices());
    });
    s.seed_ms = timed("index.seed", [&] {
      for (const amber::ComponentPlan& c : plan.components) {
        const uint32_t u = c.core_order[0];
        s.seed_candidates +=
            engine->indexes().signature.Candidates((*qg)->VertexSynopsis(u)).size();
        const std::vector<amber::AttributeId>& attrs = (*qg)->vertices()[u].attrs;
        if (!attrs.empty()) engine->indexes().attribute.Candidates(attrs);
      }
    });
  }

  // The engine call QueryService makes for this request.
  amber::ExecOptions exec;
  exec.num_threads = request.thread_budget > 0
                         ? request.thread_budget
                         : service->options().default_thread_budget;
  exec.pool = service->pool();
  const uint64_t page_cap =
      request.limit != 0 ? request.offset + request.limit : 0;
  std::optional<amber::Result<amber::FactorizedRows>> groups;
  s.exec_ms = timed("core.exec", [&] {
    switch (request.kind) {
      case Kind::kCount: {
        auto r = engine->Count(query, exec);
        if (r.ok()) s.stats = r->stats;
        s.ok = r.ok();
        break;
      }
      case Kind::kGroups: {
        amber::ExecOptions fexec = exec;
        fexec.result_form = amber::ResultForm::kAuto;
        groups.emplace(engine->Factorize(query, fexec));
        if (groups->ok()) s.stats = (*groups)->stats;
        s.ok = groups->ok();
        break;
      }
      case Kind::kStream: {
        amber::ExecOptions sexec = exec;
        sexec.max_rows = page_cap;
        DrainRows drain;
        auto r = engine->Stream(query, sexec, &drain);
        if (r.ok()) s.stats = r->stats;
        s.ok = r.ok();
        break;
      }
      default: {
        amber::ExecOptions mexec = exec;
        mexec.max_rows = service->options().max_result_rows;
        auto r = engine->Materialize(query, mexec);
        if (r.ok()) s.stats = r->stats;
        s.ok = r.ok();
      }
    }
  });

  // id -> string translation of the rows the response carries. A count
  // carries none; its witness page (the first 16 rows) stands in.
  if (request.kind == Kind::kGroups) {
    if (groups->ok()) {
      const amber::FactorizedResult& fact = (*groups)->result;
      s.translate_ms = timed("rdf.translate", [&] {
        std::vector<amber::VertexId> core;
        for (const amber::FactorizedResult::Group& g : fact.groups) {
          // Satellite slots of `fixed` are unspecified; like
          // QueryService::TranslateGroup, translate the core-bound ones.
          core.clear();
          for (size_t i = 0; i < g.fixed.size(); ++i) {
            if (fact.slot_list[i] == amber::kNoGroupList) core.push_back(g.fixed[i]);
          }
          engine->TranslateRow(core);
          for (const std::vector<amber::VertexId>& list : g.lists) {
            engine->TranslateRow(list);
          }
        }
      });
    }
  } else {
    amber::ExecOptions flat;
    flat.result_form = amber::ResultForm::kFlat;
    flat.max_rows = request.kind == Kind::kCount ? 16 : page_cap;
    auto fr = engine->Factorize(query, flat);
    if (fr.ok()) {
      s.translate_ms = timed("rdf.translate", [&] {
        amber::FactorizedResult::Cursor cur = fr->result.Expand();
        cur.Skip(request.offset);
        const uint64_t n = request.limit != 0 ? request.limit
                           : flat.max_rows != 0 ? flat.max_rows
                                                : UINT64_MAX;
        for (uint64_t i = 0; i < n && cur.Next(); ++i) {
          engine->TranslateRow(cur.Row());
        }
      });
    }
  }

  // The in-process service call, then the wire serializer over its answer.
  const amber::RequestOptions options = request.Options(/*bypass_cache=*/true);
  if (request.kind == Kind::kStream) {
    CollectPages sink;
    std::optional<amber::Result<amber::StreamResponse>> resp;
    s.service_ms = timed("server.service", [&] {
      resp.emplace(service->QueryStream(request.text, options, &sink));
    });
    if (resp->ok()) {
      s.stream_pages = (*resp)->pages;
      s.peak_buffered_bytes = (*resp)->peak_buffered_bytes;
      s.serialize_ms = timed("server.serialize", [&] {
        for (const amber::StreamPage& page : sink.pages) {
          amber::wire::SerializeStreamPage(page);
        }
        amber::wire::SerializeStreamSummary(**resp);
      });
    }
    s.ok = s.ok && resp->ok();
  } else {
    std::optional<amber::Result<amber::QueryResponse>> resp;
    s.service_ms = timed("server.service", [&] {
      resp.emplace(service->Query(request.text, options));
    });
    if (resp->ok()) {
      s.serialize_ms = timed("server.serialize",
                             [&] { amber::wire::SerializeResponse(**resp); });
    }
    s.ok = s.ok && resp->ok();
  }
  // Flat engine calls translate their rows themselves; only the groups
  // path translates after the engine returns (QueryService::TranslateGroup).
  s.service_self_ms = s.service_ms - s.normalize_ms - s.exec_ms -
                      (request.kind == Kind::kGroups ? s.translate_ms : 0.0);

  s.http_ms = timed("server.http", [&] {
    auto ex = client->Post(request.path(), request.Body(/*bypass_cache=*/true),
                           Clock::now(), /*keep_body=*/false);
    s.ok = s.ok && ex.ok() && ex->status == 200;
  });
  root.end = Clock::now();
  log->Add(root);
  return s;
}

}  // namespace perfbench
