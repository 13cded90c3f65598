// Relational operators used to execute the paper's three SQL statements.
//
// Deliberate behavioural fidelity to the paper's observations (Sec. 2.2):
//  * Every operator computes its FULL result — there is no way to tell the
//    engine to stop at the first mismatch, which is exactly the paper's
//    complaint about SQL.
//  * Nothing is cached across calls — each IND test re-scans and re-sorts
//    base data, because "relational databases by design do not store sorted
//    sets".

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/counters.h"
#include "src/common/result.h"
#include "src/storage/column.h"

namespace spider::engine {

/// \brief Hash join match counter (the paper's Figure 2 statement).
///
/// Builds a hash table over the referenced column, probes with every
/// non-NULL dependent row, and returns the number of dependent rows with at
/// least one join partner. Referenced attributes are unique in candidate
/// generation, so this equals the join cardinality of the paper's query.
Result<int64_t> HashJoinMatchCount(const Column& dependent,
                                   const Column& referenced,
                                   RunCounters* counters);

/// \brief Full sort producing the distinct values of a column in canonical
/// order. Models the RDBMS sort node: runs per query, result discarded
/// afterwards.
Result<std::vector<std::string>> SortDistinct(const Column& column,
                                              RunCounters* counters);

/// \brief MINUS operator (the paper's Figure 3 statement).
///
/// Sorts both inputs, then computes the complete set difference
/// |distinct(dependent) \ distinct(referenced)|. The paper found that the
/// "rownum < 2" early-stop hint is not pushed into the MINUS, so the full
/// difference is always computed; we reproduce that.
Result<int64_t> MinusCount(const Column& dependent, const Column& referenced,
                           RunCounters* counters);

/// \brief NOT IN operator (the paper's Figure 4 statement).
///
/// Executes as a nested-loop anti join: for every non-NULL dependent row the
/// inner referenced column is scanned until a match is found (no match ⇒
/// full inner scan). This is the plan classic optimizers choose for NOT IN
/// over columns that are not provably non-NULL, and it is why the paper
/// measures NOT IN as the slowest statement. Returns the number of
/// dependent rows without a partner. Referenced NULLs are skipped
/// (modelling the "refColumn is not null" rewrite; strict SQL three-valued
/// NOT IN semantics would otherwise void the test).
Result<int64_t> NotInCount(const Column& dependent, const Column& referenced,
                           RunCounters* counters);

}  // namespace spider::engine
