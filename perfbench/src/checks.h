// Independent answer checks. Nothing here runs AMbER's matching code:
// counts come from the join-based TripleStore baseline (GraphBacktrack
// when TripleStore runs out of time), rows are checked by substituting
// their bindings into the query's patterns and looking each triple up in
// a hash set of the generated data, and the paging / re-spelling /
// groups identities compare responses with each other.
//
// Every checker returns an empty string when the answer passes and a
// one-line reason otherwise; SelfTest() feeds each one mutated answers to
// prove that it can fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "baseline/graph_backtrack.h"
#include "baseline/triple_store.h"
#include "rdf/term.h"
#include "server/query_service.h"

namespace perfbench {

using Rows = std::vector<std::vector<std::string>>;

/// Counts from engines that share no matching code with AMbER.
class Reference {
 public:
  explicit Reference(const std::vector<amber::Triple>& triples);

  /// Rows of `text` (capped at `cap`, 0 = none; the query's own LIMIT
  /// applies too), or nullopt when both engines ran out of their budget.
  std::optional<uint64_t> Count(const std::string& text, uint64_t cap = 0);

  /// Queries answered by TripleStore, by GraphBacktrack, and by neither.
  uint64_t by_triple_store = 0;
  uint64_t by_graph_backtrack = 0;
  uint64_t unanswered = 0;

 private:
  const std::vector<amber::Triple>& triples_;
  std::optional<amber::TripleStoreEngine> store_;
  std::optional<amber::GraphBacktrackEngine> backtrack_;  // built on demand
};

/// Set of the generated triples: sorted 64-bit hashes of their N-Triples
/// tokens (a few MB, kept through the timed phase).
class TripleSet {
 public:
  explicit TripleSet(const std::vector<amber::Triple>& triples);
  bool Contains(const std::string& s, const std::string& p,
                const std::string& o) const;

 private:
  std::vector<uint64_t> keys_;
};

/// Every row is sound: with its bindings substituted, each pattern of the
/// query is a generated triple. `var_names` names the row's columns.
std::string CheckRowsSound(const std::string& query_text,
                           const std::vector<std::string>& var_names,
                           const Rows& rows, const TripleSet& triples);

/// `got` equals `want` row for row.
std::string CheckSameRows(const Rows& got, const Rows& want);

/// `pages` concatenated equal `whole`.
std::string CheckPages(const std::vector<Rows>& pages, const Rows& whole);

/// A "groups" response expands (wire::ExpandGroups) to `rows`.
std::string CheckGroups(const amber::QueryResponse& groups, const Rows& rows);

/// A count equals the independent one (when known) and is at least 1.
std::string CheckCount(uint64_t got, std::optional<uint64_t> want);

/// Renames every variable of `text` and changes its whitespace: the
/// server must answer the result like the original.
std::string Respell(const std::string& text, uint64_t salt);

/// Feeds each checker a correct answer and mutated ones (a count off by
/// one, a dropped row, an altered row, a reordered page, a dropped
/// group). Returns the failures: an accepted mutant or a rejected
/// original.
std::vector<std::string> SelfTest(const std::string& query_text,
                                  const amber::QueryResponse& rows,
                                  const amber::QueryResponse* groups,
                                  uint64_t count, const TripleSet& triples);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
