#ifndef GKEYS_CORE_PRODUCT_GRAPH_H_
#define GKEYS_CORE_PRODUCT_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/em_common.h"

namespace gkeys {

/// Sentinel for "no product node".
inline constexpr uint32_t kNoPNode = UINT32_MAX;

/// The product graph Gp = (Vp, Ep) of paper §5.1. Nodes are pairs
/// (o1, o2) of graph nodes that appear in the maximum pairing relation of
/// some key at some candidate pair (Prop. 9) — including diagonal pairs
/// (o, o) and value pairs (v, v). There is an edge
/// ((s1, s2), p, (o1, o2)) iff (s1, p, o1) and (s2, p, o2) are both
/// triples of G. EMVC messages travel on these edges.
///
/// The paper's `dep` edges are kept at candidate granularity in
/// EmContext::dependents(); its `tc` edges are subsumed by the shared
/// union-find Eq (a merge makes the whole class equal at once, which is
/// exactly what tc-propagation computes). Both substitutions are recorded
/// in DESIGN.md.
class ProductGraph {
 public:
  struct PEdge {
    Symbol pred;
    uint32_t dst;
  };

  /// The graph-node pair represented by product node `v`.
  std::pair<NodeId, NodeId> pair(uint32_t v) const { return nodes_[v]; }

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges() const { return num_edges_; }

  const std::vector<PEdge>& Out(uint32_t v) const { return out_[v]; }
  const std::vector<PEdge>& In(uint32_t v) const { return in_[v]; }

  /// Product node for (a, b), or kNoPNode.
  uint32_t Find(NodeId a, NodeId b) const;

  /// Product node of candidate i, or kNoPNode when the candidate is not
  /// pairable by any key (then it is not identifiable either).
  uint32_t CandidateNode(uint32_t candidate) const {
    return candidate_nodes_[candidate];
  }

  /// Prioritized-propagation statistic (§5.2): how many out-(resp. in-)
  /// edges with predicate `pred` leave product node `v`. Collected at
  /// construction time, as the paper prescribes.
  uint32_t OutCount(uint32_t v, Symbol pred) const;
  uint32_t InCount(uint32_t v, Symbol pred) const;

  /// The union-over-keys pairing relation of candidate i (the packed
  /// pairs it contributes to Vp); empty when no key pairs it.
  const PairRelation& CandidateRelation(uint32_t candidate) const {
    return *candidate_pairs_[candidate];
  }

  /// Approximate heap footprint in bytes (bytes-per-plan accounting).
  size_t MemoryBytes() const;

 private:
  friend ProductGraph BuildProductGraph(const EmContext& ctx);
  friend ProductGraph PatchProductGraph(
      const ProductGraph& prev, const EmContext& ctx,
      const std::vector<int64_t>& candidate_reuse,
      std::span<const NodeId> graph_dirty);
  // Snapshot (de)serialization: restores nodes_ and the relation pool,
  // then replays Finish() to rebuild the derived adjacency.
  friend class storage::PlanCodec;

  /// Interns the product node for a packed pair and bumps its
  /// supporting-relation count (shared by the full and patched builds).
  static void AddNodeRef(ProductGraph& pg, uint64_t packed);

  /// Resolves candidate_nodes_ from the per-candidate relations (a
  /// nonempty relation always contains the candidate pair itself).
  static void ResolveCandidateNodes(const EmContext& ctx, ProductGraph& pg);

  /// Appends to `out` the Ep edges leaving product node `v` in `g`:
  /// ((a, b), p, (o1, o2)) for every (a, p, o1), (b, p, o2) ∈ G whose
  /// target pair is a product node. Read-only, so the edge passes call it
  /// for many nodes concurrently.
  void ComputeOut(const Graph& g, uint32_t v, std::vector<PEdge>* out) const;

  /// Derives in_, the prioritization counts and num_edges_ from out_ on
  /// `workers` threads. In-lists list their sources in node order, as a
  /// serial pass over out_ would, for any worker count.
  static void DeriveInSide(ProductGraph& pg, int workers);

  /// Resolves candidate_nodes_ and runs the full edge pass (tail of the
  /// from-scratch build and of a snapshot load; the patched build has its
  /// own incremental edge pass): out-lists in parallel over nodes, on up
  /// to the context's processors, then DeriveInSide on as many.
  static void Finish(const EmContext& ctx, ProductGraph& pg);

  std::vector<std::pair<NodeId, NodeId>> nodes_;
  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<std::vector<PEdge>> out_;
  std::vector<std::vector<PEdge>> in_;
  std::vector<uint32_t> candidate_nodes_;
  std::vector<std::unordered_map<Symbol, uint32_t>> out_count_;
  std::vector<std::unordered_map<Symbol, uint32_t>> in_count_;
  // Per candidate, its union-over-keys pairing relation as packed pairs,
  // shared with the EmContext whose pairing pass computed it and across
  // plan generations. PatchProductGraph re-shares carried-over
  // candidates' relations.
  std::vector<std::shared_ptr<const PairRelation>> candidate_pairs_;
  // Per product node: how many candidate relations contain it. Lets a
  // patch retire the contributions of dropped/re-paired candidates and
  // keep only supported nodes, without rediscovering Vp from scratch.
  std::vector<uint32_t> node_refs_;
  size_t num_edges_ = 0;
};

/// Builds Gp from the relations the context's pairing pass already
/// computed (`ctx` must feed a product graph, see EmContext): no pairing
/// fixpoint runs here. Nodes are interned serially in candidate order, so
/// node ids and adjacency order are deterministic for any processor
/// count; the edge pass runs in parallel over nodes.
ProductGraph BuildProductGraph(const EmContext& ctx);

/// Incremental rebuild for a patched context: candidates carried over
/// from the source plan (candidate_reuse[i] >= 0) re-share their cached
/// pairing relations from `prev`; the dirty candidates take the
/// relations the patched context's pairing pass computed, and retired
/// contributions are reference-counted away. The edge pass recomputes
/// only product nodes that are new or touch a graph node in
/// `graph_dirty` (the delta's touched set); every other node's adjacency
/// is copied from `prev` and extended with edges into the new nodes.
/// Product-node ids may differ from a from-scratch build; Gp semantics
/// do not depend on them.
ProductGraph PatchProductGraph(const ProductGraph& prev,
                               const EmContext& ctx,
                               const std::vector<int64_t>& candidate_reuse,
                               std::span<const NodeId> graph_dirty);

}  // namespace gkeys

#endif  // GKEYS_CORE_PRODUCT_GRAPH_H_
