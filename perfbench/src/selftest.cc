// Self-tests of the benchmark's own helpers: percentile selection, outcome
// accounting on injected wrong outputs, the ingest check on a truncated
// stream, and span recording. Run with `python3 perfbench/run.py
// --self-test`; exits non-zero on the first failed expectation.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "ingest.h"

namespace gkeys {
namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRefusesThinTails() {
  // p95 of n samples is rank ceil(0.95 n); it needs 10 samples above it.
  EXPECT(!Percentile(Ramp(199), 0.95).has_value());
  EXPECT(Percentile(Ramp(200), 0.95) == 190.0);
  EXPECT(!Percentile(Ramp(19), 0.5).has_value());
  EXPECT(Percentile(Ramp(20), 0.5) == 10.0);
  EXPECT(!Percentile({}, 0.5, 0).has_value());
  EXPECT(Median(Ramp(4)) == 2.5);
  EXPECT(Median(Ramp(5)) == 3.0);
  EXPECT(!Median({}).has_value());
}

void TestWrongPairsCountAsFailed() {
  DBpediaSimConfig cfg;
  SyntheticDataset ds = GenerateDBpediaSim(cfg);
  auto plan = Matcher::Compile(ds.graph, ds.keys);
  EXPECT(plan.ok());
  if (!plan.ok()) return;
  auto result = Matcher().Run(*plan);
  EXPECT(result.ok() && !result->pairs.empty());
  if (!result.ok() || result->pairs.empty()) return;
  const uint64_t work = ds.graph.NumTriples();
  Tally tally;
  tally.Add({work, result->pairs == ds.planted});
  EXPECT(tally.failed == 0 && tally.ok_work == work);

  std::vector<std::pair<NodeId, NodeId>> wrong = result->pairs;
  wrong.back().second = wrong.back().first;  // injected wrong pair
  tally.Add({work, wrong == ds.planted});
  wrong = result->pairs;
  wrong.pop_back();  // injected missing pair
  tally.Add({work, wrong == ds.planted});
  EXPECT(tally.attempted == 3 && tally.failed == 2);
  EXPECT(tally.ok_work == work);
  EXPECT(tally.failed_frac() > 0.66 && tally.failed_frac() < 0.67);
}

void TestFailedWorkCannotRaiseThroughput() {
  Tally tally;
  for (int i = 0; i < 10; ++i) tally.Add({100, true});
  const double before = tally.ok_work_per_s(2.0);
  // Failed batches bring their time and their triples; only the time
  // counts.
  for (int i = 0; i < 10; ++i) tally.Add({1000000, false});
  EXPECT(tally.ok_work_per_s(2.5) < before);
  EXPECT(tally.ok_work_per_s(2.0) == before);
  EXPECT(tally.failed == 10 && tally.attempted == 20);
}

void TestTruncatedStreamCountsAsFailed() {
  PowerLawConfig cfg;
  SyntheticDataset ds = GeneratePowerLaw(cfg);
  const std::string text = SerializeGraph(ds.graph);
  const Matcher matcher = Matcher().processors(1);
  auto probe = Load(text, ds.keys, matcher);
  EXPECT(probe != nullptr);
  if (probe == nullptr) return;
  // Three batches against the loaded graph: a new leaf, then an update of
  // its attribute.
  std::string hub;
  for (const auto& [token, id] : probe->lg.entities) {
    if (token.rfind("ent:hub:", 0) == 0) hub = token;
  }
  Segment seg;
  seg.batches = {"+ ent:leaf:t1 la val:\"t1\"\n"
                 "+ ent:leaf:t1 link " + hub + "\n",
                 "- ent:leaf:t1 la val:\"t1\"\n",
                 "+ ent:leaf:t1 la val:\"t2\"\n"};
  EXPECT(RunReference(text, ds.keys, matcher, &seg));
  EXPECT(seg.ops.size() == 3);

  auto full = Load(text, ds.keys, matcher);
  SegmentRun whole = RunSegment(*full, matcher, seg, 1);
  EXPECT(whole.ok && whole.lag_ms.size() == 3);

  Segment truncated = seg;  // same reference, last batch never offered
  truncated.batches.pop_back();
  auto cut = Load(text, ds.keys, matcher);
  SegmentRun part = RunSegment(*cut, matcher, truncated, 2);
  EXPECT(!part.ok && part.lag_ms.empty());

  Tally tally;
  for (uint64_t ops : seg.ops) tally.Add({ops, part.ok});
  EXPECT(tally.failed == 3 && tally.ok_work == 0);
}

void TestSpansNestAndShareOps() {
  Tracer& t = Tracer::Get();
  t.set_enabled(true);
  {
    ScopedSpan outer("selftest.outer", 7);
    ScopedSpan inner("selftest.inner");
  }
  t.set_enabled(false);
  { ScopedSpan ignored("selftest.off"); }
  std::vector<Span> spans = t.spans();
  const Span* outer = nullptr;
  const Span* inner = nullptr;
  for (const Span& s : spans) {
    if (std::string(s.name) == "selftest.outer") outer = &s;
    if (std::string(s.name) == "selftest.inner") inner = &s;
    EXPECT(std::string(s.name) != "selftest.off");
  }
  EXPECT(outer != nullptr && inner != nullptr);
  if (outer == nullptr || inner == nullptr) return;
  EXPECT(outer->parent == 0 && inner->parent == outer->id);
  EXPECT(inner->op == 7 && outer->op == 7);
  EXPECT(inner->start >= outer->start && inner->end <= outer->end);
}

}  // namespace
}  // namespace perfbench
}  // namespace gkeys

int main() {
  using namespace gkeys::perfbench;
  TestPercentileRefusesThinTails();
  TestWrongPairsCountAsFailed();
  TestFailedWorkCannotRaiseThroughput();
  TestTruncatedStreamCountsAsFailed();
  TestSpansNestAndShareOps();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all passed\n");
  return 0;
}
