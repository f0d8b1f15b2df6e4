#include "core/product_graph.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "gen/synthetic.h"
#include "product_graph_oracle.h"
#include "test_util.h"

namespace gkeys {
namespace {

using testing::ExpectRelationsMatchOracle;
using testing::ExpectSameProductGraph;
using testing::MakeG1;
using testing::MakeSigma1;

/// DBpedia-sim large enough that every parallel compile phase spawns
/// threads: more than 256 candidates and more than 256 product nodes.
SyntheticDataset MakeDBpedia() {
  DBpediaSimConfig cfg;
  cfg.seed = 5;
  cfg.scale = 4.0;
  return GenerateDBpediaSim(cfg);
}

/// The hostile skewed-selectivity graph: one giant blocking bucket, so
/// |L| and Gp are large relative to the graph.
SyntheticDataset MakeSkewed() {
  SkewedSelectivityConfig cfg;
  cfg.seed = 9;
  return GenerateSkewedSelectivity(cfg);
}

MatchPlan CompileOrDie(const Graph& g, const KeySet& keys,
                       const PlanOptions& opts) {
  auto plan = Matcher::Compile(g, keys, opts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? *std::move(plan) : MatchPlan();
}

ProductGraph BuildForG1(const Graph& g, const KeySet& keys,
                        std::unique_ptr<EmContext>& ctx_out) {
  EmOptions opts = EmOptions::For(Algorithm::kEmVc, 1);
  ctx_out = std::make_unique<EmContext>(g, keys, opts,
                                        /*feeds_product_graph=*/true);
  return BuildProductGraph(*ctx_out);
}

TEST(ProductGraph, ContainsCandidateAndValueNodes) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  std::unique_ptr<EmContext> ctx;
  ProductGraph pg = BuildForG1(m.g, sigma1, ctx);
  // The identifiable candidate (alb1, alb2) is a node...
  EXPECT_NE(pg.Find(m.alb1, m.alb2), kNoPNode);
  // ...and its shared name value appears as a diagonal value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  ASSERT_NE(anthology, kNoNode);
  EXPECT_NE(pg.Find(anthology, anthology), kNoPNode);
}

TEST(ProductGraph, EdgesMirrorSharedTriples) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  std::unique_ptr<EmContext> ctx;
  ProductGraph pg = BuildForG1(m.g, sigma1, ctx);
  uint32_t v = pg.Find(m.alb1, m.alb2);
  ASSERT_NE(v, kNoPNode);
  // (alb1, name_of, "Anthology 2") and (alb2, name_of, "Anthology 2")
  // => an out edge labeled name_of to the value pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  uint32_t val_node = pg.Find(anthology, anthology);
  ASSERT_NE(val_node, kNoPNode);
  Symbol name_of = m.g.interner().Lookup("name_of");
  bool found = false;
  for (const auto& e : pg.Out(v)) {
    if (e.pred == name_of && e.dst == val_node) found = true;
  }
  EXPECT_TRUE(found);
  // Edge counts feed prioritized propagation.
  EXPECT_GE(pg.OutCount(v, name_of), 1u);
  // The reverse direction is indexed as an in-edge.
  found = false;
  for (const auto& e : pg.In(val_node)) {
    if (e.pred == name_of && e.dst == v) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ProductGraph, CandidateNodeLookup) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  std::unique_ptr<EmContext> ctx;
  ProductGraph pg = BuildForG1(m.g, sigma1, ctx);
  for (uint32_t i = 0; i < ctx->candidates().size(); ++i) {
    const Candidate& c = ctx->candidates()[i];
    uint32_t v = pg.CandidateNode(i);
    if (v != kNoPNode) {
      EXPECT_EQ(pg.pair(v).first, c.e1);
      EXPECT_EQ(pg.pair(v).second, c.e2);
    }
  }
}

TEST(ProductGraph, FindMissingPair) {
  auto m = MakeG1();
  KeySet sigma1 = MakeSigma1();
  std::unique_ptr<EmContext> ctx;
  ProductGraph pg = BuildForG1(m.g, sigma1, ctx);
  // art1 and a value never pair.
  NodeId anthology = m.g.FindValue("Anthology 2");
  EXPECT_EQ(pg.Find(m.art1, anthology), kNoPNode);
}

TEST(ProductGraph, SizeScalesLinearlyWithGraph) {
  // The paper reports |Gp| ≈ 2.7·|G| on average — i.e., linear, not
  // quadratic. Verify the ratio stays bounded as the graph grows.
  double prev_ratio = 0;
  for (double scale : {1.0, 2.0, 4.0}) {
    SyntheticConfig cfg;
    cfg.num_groups = 2;
    cfg.chain_length = 2;
    cfg.entities_per_type = 20;
    cfg.scale = scale;
    SyntheticDataset ds = GenerateSynthetic(cfg);
    EmOptions opts = EmOptions::For(Algorithm::kEmVc, 1);
    EmContext ctx(ds.graph, ds.keys, opts, /*feeds_product_graph=*/true);
    ProductGraph pg = BuildProductGraph(ctx);
    double ratio = static_cast<double>(pg.NumNodes() + pg.NumEdges()) /
                   static_cast<double>(ds.graph.NumTriples());
    EXPECT_LT(ratio, 10.0) << "scale " << scale;
    if (prev_ratio > 0) {
      EXPECT_LT(ratio, prev_ratio * 2.0)
          << "|Gp|/|G| must not blow up with graph size";
    }
    prev_ratio = ratio;
  }
}

// The product graph is the same for every processor count: nodes are
// interned serially in candidate order and only the per-node edge lists
// are computed in parallel.
void ExpectSameAcrossProcessors(const SyntheticDataset& ds) {
  MatchPlan serial =
      CompileOrDie(ds.graph, ds.keys, PlanOptions::For(Algorithm::kEmOptVc, 1));
  MatchPlan parallel =
      CompileOrDie(ds.graph, ds.keys, PlanOptions::For(Algorithm::kEmOptVc, 4));
  ASSERT_TRUE(serial.has_product_graph());
  ASSERT_TRUE(parallel.has_product_graph());
  ASSERT_EQ(serial.num_candidates(), parallel.num_candidates());
  for (uint32_t i = 0; i < serial.num_candidates(); ++i) {
    const Candidate& a = serial.context().candidates()[i];
    const Candidate& b = parallel.context().candidates()[i];
    ASSERT_EQ(a.e1, b.e1);
    ASSERT_EQ(a.e2, b.e2);
  }
  ExpectSameProductGraph(serial.product_graph(), parallel.product_graph(),
                         serial.num_candidates());
}

TEST(ProductGraph, IdenticalAtOneAndFourProcessorsOnDBpedia) {
  SyntheticDataset ds = MakeDBpedia();
  MatchPlan probe = CompileOrDie(ds.graph, ds.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 1));
  // Big enough that the pairing pass and the edge pass really fan out.
  ASSERT_GT(probe.num_candidates(), 256u);
  ASSERT_GT(probe.product_graph().NumNodes(), 256u);
  ExpectSameAcrossProcessors(ds);
}

TEST(ProductGraph, IdenticalAtOneAndFourProcessorsOnSkewedSelectivity) {
  SyntheticDataset ds = MakeSkewed();
  MatchPlan probe = CompileOrDie(ds.graph, ds.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 1));
  ASSERT_GT(probe.product_graph().NumNodes(), 256u);
  ExpectSameAcrossProcessors(ds);
}

TEST(ProductGraph, RelationsMatchOracleAfterCompile) {
  SyntheticDataset ds = MakeDBpedia();
  MatchPlan plan = CompileOrDie(ds.graph, ds.keys,
                                PlanOptions::For(Algorithm::kEmOptVc, 4));
  ASSERT_TRUE(plan.has_product_graph());
  EXPECT_GT(ExpectRelationsMatchOracle(plan.context(), plan.product_graph()),
            256u);
}

TEST(ProductGraph, RelationsMatchOracleWithoutPairingFilter) {
  // build_product_graph without use_pairing: the pairing pass runs for
  // the relations alone, and L stays unfiltered.
  SyntheticDataset ds = MakeDBpedia();
  PlanOptions opts = PlanOptions::For(Algorithm::kEmOptVc, 4);
  opts.use_pairing = false;
  MatchPlan unfiltered = CompileOrDie(ds.graph, ds.keys, opts);
  MatchPlan filtered = CompileOrDie(ds.graph, ds.keys,
                                    PlanOptions::For(Algorithm::kEmOptVc, 4));
  ASSERT_TRUE(unfiltered.has_product_graph());
  EXPECT_EQ(unfiltered.num_candidates(),
            unfiltered.context().candidates_initial());
  EXPECT_GT(unfiltered.num_candidates(), filtered.num_candidates());
  ExpectRelationsMatchOracle(unfiltered.context(),
                             unfiltered.product_graph());
  // The pairing filter drops exactly the candidates with empty relations,
  // so both plans intern the same product nodes.
  EXPECT_EQ(unfiltered.product_graph().NumNodes(),
            filtered.product_graph().NumNodes());
  EXPECT_EQ(unfiltered.product_graph().NumEdges(),
            filtered.product_graph().NumEdges());
}

TEST(ProductGraph, RelationsMatchOracleAcrossPatches) {
  size_t dirty = 0;
  for (const char* kind : {"uniform", "churn"}) {
    SCOPED_TRACE(kind);
    SyntheticDataset ds = MakeDBpedia();
    MatchPlan plan = CompileOrDie(ds.graph, ds.keys,
                                  PlanOptions::For(Algorithm::kEmOptVc, 4));
    DeltaGenConfig cfg;
    cfg.seed = 3;
    cfg.ops_per_batch = 24;
    auto gen = MakeDeltaGenerator(kind, cfg);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      GraphDelta delta = (*gen)->Next(ds.graph);
      auto applied = ds.graph.Apply(delta);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
      auto patched = plan.Patch(delta);
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      plan = *std::move(patched);
      ASSERT_TRUE(plan.has_product_graph());
      dirty += plan.dirty_candidates().size();
      ExpectRelationsMatchOracle(plan.context(), plan.product_graph());
    }
  }
  // The patches really re-paired candidates (not only carried them).
  EXPECT_GT(dirty, 0u);
}

}  // namespace
}  // namespace gkeys
