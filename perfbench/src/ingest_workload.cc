// ingest_powerlaw: the text ingest pipeline (Matcher::IngestStream) with
// default IngestOptions on the hostile power-law graph.
//
// Why: it is the only user of io tokenize/bind, the pipeline queue and
// group commit. It drives the commit path differently from
// session_dbpedia: batches are coalesced, and removals are retracted and
// re-derived on a graph shaped so that Patch dirties wide hub regions.
//
// Loop: pull. The source hands over delta-text batches rendered before
// timing, as fast as the pipeline accepts them; the pipeline's bounded
// queue is the only limit. The stream is cut into segments; each segment
// is one IngestStream run from a freshly loaded session (loading is not
// timed), and the run repeats whole sweeps over the segments until its
// time is up. Each segment mixes three kinds of batch:
//   - attribute updates on Zipf-drawn leaves (`- s la old` / `+ s la new`)
//   - record churn: one leaf's out-triples are removed, then re-added
//     verbatim a few batches later
//   - new leaves linking to hubs
// The graph is the generator's default-seed graph for every --seed; the
// seed picks the stream. (Which hubs are hot decides how wide Patch's
// dirty regions get, so a per-seed graph would spread the figures across
// seeds far more than any change under test moves them.)
//
// Check: a serial reference, computed outside the timed phase, applies
// each segment's batches one by one to the initial graph and matches the
// result from scratch (Compile + Run), which fixes the segment's final
// graph text and pairs. A segment run that stops early or ends anywhere
// else has diverged: all its batches count as failed, and only the delta
// triples of correctly committed segments count toward throughput.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "ingest.h"
#include "common/rng.h"
#include "core/matcher.h"
#include "gen/hostile.h"
#include "io/fast_triples.h"

namespace gkeys {
namespace perfbench {
namespace {

constexpr double kScale = 16;  // 10,089 triples
constexpr int kSetups = 5;
constexpr size_t kSegments = 128;
constexpr size_t kSegmentBatches = 16;
constexpr int kLeavesPerUpdate = 2;
constexpr int kLeavesPerInsert = 4;
constexpr double kZipfAlpha = 1.2;

/// Zipf(alpha) ranks over [0, n): rank k has weight 1/(k+1)^alpha.
class Zipf {
 public:
  Zipf(size_t n, double alpha) : cum_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
      cum_[k] = total;
    }
    for (double& c : cum_) c /= total;
  }
  size_t Draw(Rng& rng) const {
    auto it = std::lower_bound(cum_.begin(), cum_.end(), rng.NextDouble());
    return it == cum_.end() ? cum_.size() - 1
                            : static_cast<size_t>(it - cum_.begin());
  }

 private:
  std::vector<double> cum_;
};

/// The leaves and hubs of the loaded graph, with each leaf's out-triples
/// rendered as delta lines, for the stream renderer.
struct StreamModel {
  struct Leaf {
    std::string token;
    std::string la;                  // current `la` literal
    std::vector<std::string> lines;  // every other out-triple, "s p o"
    bool out = false;                // churned out, re-add pending
  };
  std::vector<Leaf> leaves;
  std::vector<std::string> hubs;
};

StreamModel BuildModel(const LoadedGraph& lg) {
  const Graph& g = lg.graph;
  std::unordered_map<NodeId, std::string> token_of;
  for (const auto& [token, id] : lg.entities) token_of.emplace(id, token);
  auto ref = [&](NodeId n) {
    return g.IsEntity(n) ? token_of.at(n) : ValueToken(g.value_str(n));
  };
  StreamModel m;
  for (NodeId h : g.EntitiesOfType(g.interner().Lookup("hub"))) {
    m.hubs.push_back(token_of.at(h));
  }
  for (NodeId l : g.EntitiesOfType(g.interner().Lookup("leaf"))) {
    StreamModel::Leaf leaf;
    leaf.token = token_of.at(l);
    for (const Edge& e : g.Out(l)) {
      const std::string& p = g.interner().Resolve(e.pred);
      if (p == "la") {
        leaf.la = g.value_str(e.dst);
      } else {
        leaf.lines.push_back(leaf.token + " " + p + " " + ref(e.dst));
      }
    }
    m.leaves.push_back(std::move(leaf));
  }
  return m;
}

/// All of a leaf's out-triples as delta lines, `op` being '+' or '-'.
std::string Record(const StreamModel::Leaf& l, char op) {
  const std::string prefix(1, op);
  std::string text = prefix + " " + l.token + " la " + ValueToken(l.la) + "\n";
  for (const std::string& line : l.lines) text += prefix + " " + line + "\n";
  return text;
}

/// Renders one segment against the initial graph. The kinds of batch sit
/// at fixed positions, so every segment offers the same mix: exactly one
/// record is churned, and where (batch 2..5) and how far apart its
/// removal and re-add are (2..4 batches) cycle with the segment index;
/// the seed picks the leaves, hubs and values. Every removal names a
/// triple the serial loop still holds at that point.
std::vector<std::string> RenderSegment(StreamModel m, size_t index,
                                       uint64_t seed) {
  Rng rng(seed * 1000003 + index);
  // Popularity follows the leaves' order in the graph, as the generator's
  // own hub popularity does.
  Zipf leaf_zipf(m.leaves.size(), kZipfAlpha);
  auto hot_leaf = [&] { return leaf_zipf.Draw(rng); };
  const size_t churn_at = 2 + index % 4;
  const size_t readd_at = churn_at + 2 + (index / 4) % 3;
  size_t churned = 0;
  uint64_t fresh = 0;
  auto literal = [&](const char* kind) {
    return std::string(kind) + std::to_string(seed) + "_" +
           std::to_string(index) + "_" + std::to_string(fresh++);
  };
  std::vector<std::string> batches;
  for (size_t b = 0; b < kSegmentBatches; ++b) {
    std::string text;
    if (b == churn_at) {
      churned = hot_leaf();
      text = Record(m.leaves[churned], '-');
      m.leaves[churned].out = true;
    } else if (b == readd_at) {
      text = Record(m.leaves[churned], '+');
      m.leaves[churned].out = false;
    } else if (b % 3 != 2) {
      // Attribute updates on Zipf-hot leaves (two batches in three).
      std::vector<size_t> picked;
      for (int k = 0; k < kLeavesPerUpdate; ++k) {
        const size_t i = hot_leaf();
        StreamModel::Leaf& l = m.leaves[i];
        if (l.out ||
            std::find(picked.begin(), picked.end(), i) != picked.end()) {
          continue;
        }
        picked.push_back(i);
        const std::string next = literal("u");
        text += "- " + l.token + " la " + ValueToken(l.la) + "\n";
        text += "+ " + l.token + " la " + ValueToken(next) + "\n";
        l.la = next;
      }
    } else {
      // New leaves linking to hubs (one batch in three).
      for (int k = 0; k < kLeavesPerInsert; ++k) {
        const std::string s = "ent:leaf:" + literal("n");
        text += "+ " + s + " la " + ValueToken(literal("v")) + "\n";
        text += "+ " + s + " link " + m.hubs[rng.Below(m.hubs.size())] + "\n";
      }
    }
    batches.push_back(std::move(text));
  }
  return batches;
}

}  // namespace

std::unique_ptr<Session> Load(const std::string& text, const KeySet& keys,
                              const Matcher& matcher) {
  auto s = std::make_unique<Session>();
  StatusOr<LoadedGraph> lg = FastDeserializeGraphWithNames(text);
  if (!lg.ok()) return nullptr;
  s->lg = *std::move(lg);
  StatusOr<MatchPlan> plan = [&] {
    ScopedSpan span("load.core.compile_vc");
    return Matcher::Compile(s->lg.graph, keys,
                            PlanOptions::For(Algorithm::kEmOptVc, 1));
  }();
  if (!plan.ok()) return nullptr;
  s->plan = *std::move(plan);
  StatusOr<MatchResult> result = [&] {
    ScopedSpan span("load.core.run_vc");
    return matcher.Run(s->plan);
  }();
  if (!result.ok()) return nullptr;
  s->result = *std::move(result);
  return s;
}

bool RunReference(const std::string& graph_text, const KeySet& keys,
                  const Matcher& matcher, Segment* seg) {
  StatusOr<LoadedGraph> lg = FastDeserializeGraphWithNames(graph_text);
  if (!lg.ok()) return false;
  for (const std::string& text : seg->batches) {
    std::unordered_map<std::string, NodeId> bound;
    StatusOr<GraphDelta> delta =
        FastParseDelta(text, lg->graph, lg->entities, &bound);
    if (!delta.ok() || !lg->graph.Apply(*delta).ok()) return false;
    for (auto& [token, id] : bound) lg->entities.emplace(token, id);
    seg->ops.push_back(delta->num_added_triples() +
                       delta->num_removed_triples());
  }
  StatusOr<MatchPlan> plan = Matcher::Compile(
      lg->graph, keys, PlanOptions::For(Algorithm::kEmOptVc, 1));
  if (!plan.ok()) return false;
  StatusOr<MatchResult> result = matcher.Run(*plan);
  if (!result.ok()) return false;
  seg->final_text = SerializeGraph(lg->graph);
  seg->final_pairs = result->pairs;
  return true;
}

SegmentRun RunSegment(Session& s, const Matcher& matcher, const Segment& seg,
                      uint64_t op) {
  const size_t n = seg.batches.size();
  std::vector<Clock::time_point> handed(n), observed(n);
  std::vector<char> committed(n, 0);
  size_t next = 0, seen = 0;
  IngestSource source = [&]() -> std::optional<std::string> {
    if (next == n) return std::nullopt;
    handed[next] = Clock::now();
    return seg.batches[next++];
  };
  IngestObserver observer = [&](const IngestBatch& b) -> Status {
    observed[b.index] = Clock::now();
    committed[b.index] = 1;
    ++seen;
    return Status::OK();
  };
  SegmentRun out;
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("core.ingest_stream", op);
    out.stats =
        matcher.IngestStream(s.view(), source, IngestOptions{}, observer);
    // One span per committed batch, from hand-over to its observer call:
    // they cross from the tokenize thread to the engine thread, so they
    // are recorded here rather than scoped.
    Tracer& tracer = Tracer::Get();
    for (size_t i = 0; i < n && tracer.enabled(); ++i) {
      if (!committed[i]) continue;
      Span batch;
      batch.name = "ingest.batch";
      batch.start = handed[i];
      batch.end = observed[i];
      batch.id = tracer.NextId();
      batch.parent = span.id();
      batch.op = op * kSegmentBatches + i;
      tracer.Record(batch);
    }
  }
  out.seconds = SecondsBetween(t0, Clock::now());
  out.ok = out.stats.status.ok() && seen == n &&
           s.result.pairs == seg.final_pairs &&
           SerializeGraph(s.lg.graph) == seg.final_text;
  if (out.ok) {
    for (size_t i = 0; i < n; ++i) {
      out.lag_ms.push_back(SecondsBetween(handed[i], observed[i]) * 1e3);
    }
  }
  return out;
}

WorkloadResult RunIngestPowerlaw(const RunConfig& cfg) {
  WorkloadResult out;
  // Both pipeline threads share the CPU this process starts on. The
  // tokenize thread needs well under 1% of it; given a CPU of its own,
  // how fast the host scheduled that CPU decided how full the queue was,
  // and with it the group sizes, the throughput and the failure rate.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(std::max(0, sched_getcpu()), &one_cpu);
  if (sched_setaffinity(0, sizeof one_cpu, &one_cpu) != 0) {
    std::fprintf(stderr, "ingest_powerlaw: cannot pin to one CPU\n");
    return out;
  }
  Tracer& tracer = Tracer::Get();
  const Matcher matcher = Matcher(Algorithm::kEmOptVc).processors(1);

  // Set-up: generate, render the graph as text, load it (parse, compile,
  // run) and render the segments; repeated so setup_s is a median.
  std::vector<double> setup_s;
  SyntheticDataset ds;
  std::string graph_text;
  std::vector<Segment> segments;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point t0 = Clock::now();
    PowerLawConfig gen;
    gen.scale = kScale;
    ds = GeneratePowerLaw(gen);
    graph_text = SerializeGraph(ds.graph);
    std::unique_ptr<Session> base = Load(graph_text, ds.keys, matcher);
    if (base == nullptr) {
      std::fprintf(stderr, "ingest_powerlaw: set-up failed\n");
      return out;
    }
    const StreamModel model = BuildModel(base->lg);
    segments.assign(kSegments, Segment());
    for (size_t j = 0; j < kSegments; ++j) {
      segments[j].batches = RenderSegment(model, j, cfg.seed);
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  // The serial reference, outside the timed phase.
  Clock::time_point ref_start = Clock::now();
  for (Segment& seg : segments) {
    if (!RunReference(graph_text, ds.keys, matcher, &seg)) {
      std::fprintf(stderr, "ingest_powerlaw: serial reference failed\n");
      return out;
    }
  }

  std::printf("info serial reference %.3f s\n",
              SecondsBetween(ref_start, Clock::now()));

  // Timed phase: segment runs in order, cycling, until the time is up and
  // every segment has run at least once. In a traced run every other
  // segment run records spans, for the tracing overhead.
  std::vector<double> lag_ms, traced_lag, untraced_lag;
  std::vector<size_t> runs(kSegments, 0), failed_runs(kSegments, 0);
  double timed_s = 0;
  IngestStageSeconds stage;
  size_t commits = 0, committed_batches = 0;
  for (uint64_t op = 1; timed_s < cfg.seconds || op <= kSegments; ++op) {
    const size_t j = (op - 1) % kSegments;
    const Segment& seg = segments[j];
    std::unique_ptr<Session> s = Load(graph_text, ds.keys, matcher);
    if (s == nullptr) return out;
    const bool traced = cfg.trace && op % 2 == 1;
    tracer.set_enabled(traced);
    SegmentRun r = RunSegment(*s, matcher, seg, op);
    tracer.set_enabled(cfg.trace);
    timed_s += r.seconds;
    ++runs[j];
    if (!r.ok) ++failed_runs[j];
    for (uint64_t ops : seg.ops) out.tally.Add({ops, r.ok});
    lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    auto& side = traced ? traced_lag : untraced_lag;
    side.insert(side.end(), r.lag_ms.begin(), r.lag_ms.end());
    stage.parse += r.stats.seconds.parse;
    stage.bind += r.stats.seconds.bind;
    stage.apply += r.stats.seconds.apply;
    stage.patch += r.stats.seconds.patch;
    stage.rematch += r.stats.seconds.rematch;
    commits += r.stats.commits;
    committed_batches += r.stats.batches - r.stats.empty_batches;
  }
  out.correct = out.tally.failed == 0;

  // Per-segment outcomes, so a defect that fails some segments stays
  // visible run by run: '.' never failed, 'F' failed every time it ran,
  // 'f' failed some of the times.
  std::string per_segment;
  size_t failing = 0, segment_runs = 0;
  for (size_t j = 0; j < kSegments; ++j) {
    per_segment += failed_runs[j] == 0           ? '.'
                   : failed_runs[j] == runs[j] ? 'F'
                                                 : 'f';
    failing += failed_runs[j] != 0 ? 1 : 0;
    segment_runs += runs[j];
  }
  std::printf("info ingest %zu segment runs over %zu segments of %zu "
              "batches; segments failing: %zu [%s]\n",
              segment_runs, kSegments, kSegmentBatches, failing,
              per_segment.c_str());
  const double p50 = Median(lag_ms).value_or(0.0);
  const auto p95 = Percentile(lag_ms, 0.95);
  const double triples_per_s = out.tally.ok_work_per_s(timed_s);
  std::printf("info ingest_triples_per_s %.2f, ingest_lag_p50_ms %.4f, "
              "ingest_lag_p95_ms %.4f, failed_frac %.6f, batches_per_commit "
              "%.3f\n",
              triples_per_s, p50, p95.value_or(0.0), out.tally.failed_frac(),
              commits > 0 ? static_cast<double>(committed_batches) /
                                static_cast<double>(commits)
                          : 0.0);

  std::map<std::string, double>& m = out.metrics;
  if (!cfg.trace) {
    m["setup_s"] = *Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["op_p50_ms"] = p50;
    m["work_per_s"] = triples_per_s;
    return out;
  }

  // The io layer on its own: tokenize every batch once more outside the
  // pipeline, without queueing.
  double tokenize_s = 0;
  for (const Segment& seg : segments) {
    for (const std::string& text : seg.batches) {
      ScopedSpan span("io.tokenize");
      Clock::time_point t0 = Clock::now();
      TokenizedText tokens = TokenizeDeltaText(text);
      tokenize_s += SecondsBetween(t0, Clock::now());
      if (!tokens.error.ok()) out.correct = false;
    }
  }
  auto span_median = [&](const char* name) {
    return Median(tracer.Durations(name)).value_or(0.0);
  };
  const double per_run = 1.0 / static_cast<double>(segment_runs);
  m["core.compile_vc_s"] = span_median("load.core.compile_vc");
  m["core.run_vc_s"] = span_median("load.core.run_vc");
  m["io.tokenize_s"] = tokenize_s / static_cast<double>(kSegments);
  m["io.tokenize_busy_frac"] = stage.parse / timed_s;
  m["io.bind_s"] = stage.bind * per_run;
  m["graph.apply_s"] = stage.apply * per_run;
  m["core.patch_s"] = stage.patch * per_run;
  m["core.rematch_s"] = stage.rematch * per_run;
  m["core.engine_busy_frac"] =
      (stage.bind + stage.apply + stage.patch + stage.rematch) / timed_s;
  m["core.batches_per_commit"] =
      commits > 0 ? static_cast<double>(committed_batches) /
                        static_cast<double>(commits)
                  : 0.0;
  m["ingest.triples_per_s"] = triples_per_s;
  m["ingest.lag_p50_ms"] = p50;
  if (p95) m["ingest.lag_p95_ms"] = *p95;
  m["run.failed_frac"] = out.tally.failed_frac();
  const auto traced = Median(traced_lag), untraced = Median(untraced_lag);
  if (traced && untraced) m["trace.overhead_ms"] = *traced - *untraced;
  return out;
}

}  // namespace perfbench
}  // namespace gkeys
