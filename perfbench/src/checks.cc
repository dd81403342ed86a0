#include "checks.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "server/wire.h"
#include "sparql/parser.h"

namespace perfbench {
namespace {

// Per-engine budget of one independent count. TripleStore answers almost
// every generated query in milliseconds; the few it cannot fall to
// GraphBacktrack, and a query neither answers in time stays unchecked.
constexpr std::chrono::milliseconds kReferenceBudget{300};

uint64_t TripleKey(std::string_view s, std::string_view p,
                   std::string_view o) {
  std::string key;
  key.reserve(s.size() + p.size() + o.size() + 2);
  key.append(s).push_back('\x1f');
  key.append(p).push_back('\x1f');
  key.append(o);
  return std::hash<std::string>{}(key);
}

std::string RowText(const std::vector<std::string>& row) {
  std::string out;
  for (const std::string& cell : row) out += cell + " ";
  return out;
}

}  // namespace

Reference::Reference(const std::vector<amber::Triple>& triples)
    : triples_(triples) {
  auto store = amber::TripleStoreEngine::Build(triples);
  if (store.ok()) store_.emplace(std::move(store).value());
}

std::optional<uint64_t> Reference::Count(const std::string& text,
                                         uint64_t cap) {
  amber::ExecOptions options;
  options.timeout = kReferenceBudget;
  options.max_rows = cap;
  if (store_) {
    auto r = store_->CountSparql(text, options);
    if (r.ok() && !r->stats.timed_out) {
      ++by_triple_store;
      return r->count;
    }
  }
  if (!backtrack_) {
    auto bt = amber::GraphBacktrackEngine::Build(triples_);
    if (bt.ok()) backtrack_.emplace(std::move(bt).value());
  }
  if (backtrack_) {
    auto r = backtrack_->CountSparql(text, options);
    if (r.ok() && !r->stats.timed_out) {
      ++by_graph_backtrack;
      return r->count;
    }
  }
  ++unanswered;
  return std::nullopt;
}

TripleSet::TripleSet(const std::vector<amber::Triple>& triples) {
  keys_.reserve(triples.size());
  for (const amber::Triple& t : triples) {
    keys_.push_back(TripleKey(t.subject.ToNTriples(), t.predicate.ToNTriples(),
                              t.object.ToNTriples()));
  }
  std::sort(keys_.begin(), keys_.end());
}

bool TripleSet::Contains(const std::string& s, const std::string& p,
                         const std::string& o) const {
  return std::binary_search(keys_.begin(), keys_.end(), TripleKey(s, p, o));
}

std::string CheckRowsSound(const std::string& query_text,
                           const std::vector<std::string>& var_names,
                           const Rows& rows, const TripleSet& triples) {
  auto query = amber::SparqlParser::Parse(query_text);
  if (!query.ok()) return "query does not parse: " + query.status().ToString();
  std::unordered_map<std::string, size_t> column;
  for (size_t i = 0; i < var_names.size(); ++i) column[var_names[i]] = i;
  // Per pattern slot: a column index, or the constant's token.
  struct Slot {
    int column = -1;
    std::string token;
  };
  std::vector<std::array<Slot, 3>> patterns;
  for (const amber::TriplePattern& tp : query->patterns) {
    std::array<Slot, 3> slots;
    const amber::PatternTerm* terms[3] = {&tp.subject, &tp.predicate,
                                          &tp.object};
    bool bound = true;
    for (int k = 0; k < 3; ++k) {
      if (terms[k]->is_variable()) {
        auto it = column.find(terms[k]->value);
        if (it == column.end()) bound = false;  // unprojected: existential
        else slots[k].column = static_cast<int>(it->second);
      } else {
        slots[k].token = terms[k]->ToTerm().ToNTriples();
      }
    }
    if (bound) patterns.push_back(std::move(slots));
  }
  if (patterns.empty() && !rows.empty()) return "no pattern is fully projected";
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    if (row.size() != var_names.size()) {
      return "row " + std::to_string(r) + " has " + std::to_string(row.size()) +
             " cells for " + std::to_string(var_names.size()) + " variables";
    }
    for (const auto& p : patterns) {
      auto cell = [&](int k) -> const std::string& {
        return p[k].column >= 0 ? row[p[k].column] : p[k].token;
      };
      if (!triples.Contains(cell(0), cell(1), cell(2))) {
        return "row " + std::to_string(r) + " is unsound: (" + cell(0) + " " +
               cell(1) + " " + cell(2) + ") is not a generated triple";
      }
    }
  }
  return "";
}

std::string CheckSameRows(const Rows& got, const Rows& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " rows where " +
           std::to_string(want.size()) + " were expected";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "row " + std::to_string(i) + " differs: " + RowText(got[i]) +
             "vs " + RowText(want[i]);
    }
  }
  return "";
}

std::string CheckPages(const std::vector<Rows>& pages, const Rows& whole) {
  Rows joined;
  for (const Rows& page : pages) joined.insert(joined.end(), page.begin(), page.end());
  const std::string err = CheckSameRows(joined, whole);
  return err.empty() ? "" : "pages concatenated: " + err;
}

std::string CheckGroups(const amber::QueryResponse& groups, const Rows& rows) {
  if (!groups.groups_form) return "";  // the server fell back to rows
  const Rows expanded = amber::wire::ExpandGroups(
      groups.slot_list, groups.groups, groups.total_rows);
  const std::string err = CheckSameRows(expanded, rows);
  return err.empty() ? "" : "expanded groups: " + err;
}

std::string CheckCount(uint64_t got, std::optional<uint64_t> want) {
  if (got < 1) return "count 0 for a query with a witness";
  if (want && got != *want) {
    return "count " + std::to_string(got) + " where the independent engine says " +
           std::to_string(*want);
  }
  return "";
}

std::string Respell(const std::string& text, uint64_t salt) {
  std::unordered_map<std::string, std::string> renamed;
  std::string out = "# re-spelled\n";
  char quote = 0;  // inside an IRI ('>') or a literal ('"')
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quote != 0) {
      out.push_back(c);
      if (c == quote && text[i - 1] != '\\') quote = 0;
      continue;
    }
    if (c == '<') quote = '>';
    if (c == '"') quote = '"';
    if (c == '?' && i + 1 < text.size() &&
        (std::isalnum(static_cast<unsigned char>(text[i + 1])) || text[i + 1] == '_')) {
      size_t end = i + 1;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) || text[end] == '_')) {
        ++end;
      }
      const std::string name = text.substr(i + 1, end - i - 1);
      auto [it, fresh] = renamed.emplace(name, "");
      if (fresh) {
        it->second = "r" + std::to_string(salt % 1000) + "_" +
                     std::to_string(renamed.size());
      }
      out += "?" + it->second;
      i = end - 1;
      continue;
    }
    if (c == '\n') {
      out += " \n\t";
      continue;
    }
    if (c == ' ') {
      out += "  ";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::vector<std::string> SelfTest(const std::string& query_text,
                                  const amber::QueryResponse& resp,
                                  const amber::QueryResponse* groups,
                                  uint64_t count, const TripleSet& triples) {
  std::vector<std::string> failures;
  auto expect = [&](bool pass, const std::string& err, const char* what) {
    if (pass != err.empty()) {
      failures.push_back(std::string(what) +
                         (pass ? " was rejected: " + err : " was accepted"));
    }
  };
  const Rows& rows = resp.rows;
  expect(true, CheckCount(count, count), "the true count");
  expect(false, CheckCount(count + 1, count), "a count off by one");
  expect(false, CheckCount(0, std::nullopt), "a zero count");
  expect(true, CheckRowsSound(query_text, resp.var_names, rows, triples),
         "the returned rows");
  if (!rows.empty()) {
    Rows altered = rows;
    altered.back().back() = "<http://perfbench.invalid/altered>";
    expect(false, CheckRowsSound(query_text, resp.var_names, altered, triples),
           "an altered row");
    Rows dropped(rows.begin(), rows.end() - 1);
    expect(false, CheckSameRows(dropped, rows), "a dropped row");
  }
  // Two pages: the true order passes, the swapped order must not.
  size_t split = 1;
  while (split < rows.size() && rows[split] == rows[0]) ++split;
  if (split < rows.size()) {
    const Rows head(rows.begin(), rows.begin() + split);
    const Rows tail(rows.begin() + split, rows.end());
    expect(true, CheckPages({head, tail}, rows), "pages in order");
    expect(false, CheckPages({tail, head}, rows), "a reordered page");
  }
  if (groups != nullptr && groups->groups_form && !groups->groups.empty()) {
    expect(true, CheckGroups(*groups, rows), "the groups response");
    amber::QueryResponse mutant = *groups;
    mutant.groups.back().multiplicity += 1;
    mutant.total_rows += 1;
    expect(false, CheckGroups(mutant, rows), "a group with a wrong multiplicity");
  }
  return failures;
}

}  // namespace perfbench
