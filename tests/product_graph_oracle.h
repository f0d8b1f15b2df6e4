#ifndef GKEYS_TESTS_PRODUCT_GRAPH_ORACLE_H_
#define GKEYS_TESTS_PRODUCT_GRAPH_ORACLE_H_

// Reference checks for the product graph Gp (paper §5.1): an independent
// per-candidate pairing-relation oracle, and a full structural comparison
// of two product graphs.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/em_common.h"
#include "core/product_graph.h"
#include "isomorph/pairing.h"

namespace gkeys {
namespace testing {

/// The pairing relation of candidate `c`, unioned over its keys, as
/// packed deduplicated pairs, computed by re-running the pairing fixpoint
/// on the candidate's own (possibly pairing-reduced) neighbor sets.
/// Includes (e1, e2) itself whenever some key pairs, so "empty" doubles
/// as "unpairable by every key".
inline PairRelation CollectCandidatePairs(const EmContext& ctx,
                                          const Candidate& c,
                                          PairingScratch* scratch) {
  PairRelation pairs;
  for (int ki : *c.keys) {
    PairingResult pr =
        ComputeMaxPairing(ctx.graph(), ctx.compiled_keys()[ki].cp, c.e1,
                          c.e2, *c.nbr1, *c.nbr2, /*collect_pairs=*/true,
                          scratch);
    if (!pr.paired) continue;
    pairs.insert(pairs.end(), pr.pairs.begin(), pr.pairs.end());
    pairs.push_back(PackPair(c.e1, c.e2));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

/// Every candidate's relation in `pg` equals the oracle's. Returns the
/// number of candidates checked.
inline size_t ExpectRelationsMatchOracle(const EmContext& ctx,
                                         const ProductGraph& pg) {
  PairingScratch scratch;
  size_t mismatches = 0;
  for (uint32_t i = 0; i < ctx.candidates().size(); ++i) {
    const Candidate& c = ctx.candidates()[i];
    if (pg.CandidateRelation(i) != CollectCandidatePairs(ctx, c, &scratch)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "relation of candidate " << i << " (" << c.e1
                      << ", " << c.e2 << ") differs from the oracle";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return ctx.candidates().size();
}

/// The predicates on the out- and in-edges of product node `v`.
inline std::set<Symbol> IncidentPreds(const ProductGraph& pg, uint32_t v) {
  std::set<Symbol> preds;
  for (const auto& e : pg.Out(v)) preds.insert(e.pred);
  for (const auto& e : pg.In(v)) preds.insert(e.pred);
  return preds;
}

/// `a` and `b` are the same product graph, ids included: node pairs,
/// out/in lists in order, the prioritization counts, candidate nodes and
/// per-candidate relations.
inline void ExpectSameProductGraph(const ProductGraph& a,
                                   const ProductGraph& b,
                                   size_t num_candidates) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  size_t diffs = 0;
  for (uint32_t v = 0; v < a.NumNodes() && diffs < 5; ++v) {
    bool same = a.pair(v) == b.pair(v) &&
                a.Out(v).size() == b.Out(v).size() &&
                a.In(v).size() == b.In(v).size();
    for (size_t k = 0; same && k < a.Out(v).size(); ++k) {
      same = a.Out(v)[k].pred == b.Out(v)[k].pred &&
             a.Out(v)[k].dst == b.Out(v)[k].dst;
    }
    for (size_t k = 0; same && k < a.In(v).size(); ++k) {
      same = a.In(v)[k].pred == b.In(v)[k].pred &&
             a.In(v)[k].dst == b.In(v)[k].dst;
    }
    // Counts are derived from the edge lists, so they can be nonzero only
    // for the predicates incident to v.
    std::set<Symbol> preds = IncidentPreds(a, v);
    for (Symbol p : IncidentPreds(b, v)) preds.insert(p);
    for (Symbol p : preds) {
      same = same && a.OutCount(v, p) == b.OutCount(v, p) &&
             a.InCount(v, p) == b.InCount(v, p);
    }
    if (!same) {
      ++diffs;
      ADD_FAILURE() << "product node " << v << " differs";
    }
  }
  for (uint32_t i = 0; i < num_candidates; ++i) {
    EXPECT_EQ(a.CandidateNode(i), b.CandidateNode(i)) << "candidate " << i;
    EXPECT_EQ(a.CandidateRelation(i), b.CandidateRelation(i))
        << "candidate " << i;
  }
}

}  // namespace testing
}  // namespace gkeys

#endif  // GKEYS_TESTS_PRODUCT_GRAPH_ORACLE_H_
