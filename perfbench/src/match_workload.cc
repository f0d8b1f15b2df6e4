// match_dbpedia: batch entity resolution on a DBpedia-style graph.
//
// Why: Compile is most of a batch resolution, and the two paper engines
// differ several-fold on Run, so compile and engine changes move this
// workload. It applies no deltas and touches no storage, so session,
// ingest and storage changes must leave it unchanged.
//
// Operation: one "resolve" = Compile + Run under EMOptVC (the Matcher
// default), then Compile + Run under EMOptMR, each with its own
// PlanOptions::For preset at p = 4. Repeated until the run's time is up.
#include <string>
#include <vector>

#include "bench.h"
#include "core/matcher.h"
#include "gen/datasets.h"

namespace gkeys {
namespace perfbench {
namespace {

constexpr double kScale = 256;  // 340,992 triples
constexpr int kProcessors = 4;
constexpr int kSetups = 5;

struct EngineRun {
  double compile_s = 0;
  double run_s = 0;
  size_t plan_bytes = 0;
  bool ok = false;
  EmStats stats;
  size_t pairs = 0;
};

/// One Compile + Run under `a`'s preset, checked against the planted
/// pairs (the generator plants exactly chase(G, Σ)).
EngineRun CompileAndRun(const SyntheticDataset& ds, Algorithm a,
                        const char* compile_span, const char* run_span,
                        uint64_t op) {
  EngineRun r;
  Clock::time_point t0 = Clock::now();
  StatusOr<MatchPlan> plan = [&] {
    ScopedSpan span(compile_span, op);
    return Matcher::Compile(ds.graph, ds.keys,
                            PlanOptions::For(a, kProcessors));
  }();
  Clock::time_point t1 = Clock::now();
  r.compile_s = SecondsBetween(t0, t1);
  if (!plan.ok()) return r;
  StatusOr<MatchResult> result = [&] {
    ScopedSpan span(run_span, op);
    return Matcher(a).processors(kProcessors).Run(*plan);
  }();
  r.run_s = SecondsBetween(t1, Clock::now());
  if (!result.ok()) return r;
  r.plan_bytes = plan->memory_bytes();
  r.stats = result->stats;
  r.pairs = result->pairs.size();
  r.ok = result->pairs == ds.planted;
  return r;
}

SyntheticDataset Generate(uint64_t seed) {
  DBpediaSimConfig cfg;
  cfg.seed = seed;
  cfg.scale = kScale;
  return GenerateDBpediaSim(cfg);
}

}  // namespace

WorkloadResult RunMatchDbpedia(const RunConfig& cfg) {
  WorkloadResult out;
  Tracer& tracer = Tracer::Get();

  // Set-up: generation plus the initial (cold) Compile + Run, repeated so
  // setup_s is a median. The last dataset is kept for the timed phase.
  std::vector<double> setup_s;
  SyntheticDataset ds;
  bool setup_ok = true;
  for (int i = 0; i < kSetups; ++i) {
    ds = SyntheticDataset();
    Clock::time_point t0 = Clock::now();
    ds = Generate(cfg.seed);
    EngineRun warm = CompileAndRun(ds, Algorithm::kEmOptVc,
                                   "setup.core.compile_vc",
                                   "setup.core.run_vc", 0);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    setup_ok = setup_ok && warm.ok;
  }
  // One untimed MR pass too, so both engines are warm before timing.
  setup_ok = setup_ok && CompileAndRun(ds, Algorithm::kEmOptMr,
                                       "setup.core.compile_mr",
                                       "setup.core.run_mr", 0)
                             .ok;

  // Timed phase. In a traced run every other resolve records spans, so
  // the traced-minus-untraced difference is the tracing overhead.
  std::vector<double> resolve_s, vc_s, mr_s, traced_s, untraced_s;
  std::vector<EngineRun> vc_runs, mr_runs;
  const uint64_t triples = ds.graph.NumTriples();
  Clock::time_point start = Clock::now();
  double elapsed = 0;
  for (uint64_t op = 1; elapsed < cfg.seconds || resolve_s.size() < 3;
       ++op) {
    const bool traced = cfg.trace && op % 2 == 1;
    tracer.set_enabled(traced);
    EngineRun vc = CompileAndRun(ds, Algorithm::kEmOptVc, "core.compile_vc",
                                 "core.run_vc", op);
    EngineRun mr = CompileAndRun(ds, Algorithm::kEmOptMr, "core.compile_mr",
                                 "core.run_mr", op);
    tracer.set_enabled(cfg.trace);
    out.tally.Add({triples, vc.ok});
    out.tally.Add({triples, mr.ok});
    const double pair = vc.compile_s + vc.run_s + mr.compile_s + mr.run_s;
    resolve_s.push_back(pair);
    vc_s.push_back(vc.compile_s + vc.run_s);
    mr_s.push_back(mr.compile_s + mr.run_s);
    (traced ? traced_s : untraced_s).push_back(pair);
    vc_runs.push_back(vc);
    mr_runs.push_back(mr);
    elapsed = SecondsBetween(start, Clock::now());
  }

  out.correct = setup_ok && out.tally.failed == 0;
  std::map<std::string, double>& m = out.metrics;
  const double vc_med = *Median(vc_s), mr_med = *Median(mr_s);
  std::printf("info match_vc_s %.6f s, match_mr_s %.6f s (median of %zu)\n",
              vc_med, mr_med, vc_s.size());
  if (!cfg.trace) {
    m["setup_s"] = *Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["op_p50_ms"] = *Median(resolve_s) * 1e3;
    m["work_per_s"] = out.tally.ok_work_per_s(elapsed);
    return out;
  }

  auto median_stat = [](const std::vector<EngineRun>& runs, auto field) {
    std::vector<double> v;
    for (const EngineRun& r : runs) v.push_back(static_cast<double>(field(r)));
    return *Median(v);
  };
  auto span_median = [&](const char* name) {
    return Median(tracer.Durations(name)).value_or(0.0);
  };
  const EngineRun& vc = vc_runs.back();
  m["core.compile_vc_s"] = span_median("core.compile_vc");
  m["core.compile_mr_s"] = span_median("core.compile_mr");
  m["core.run_vc_s"] = span_median("core.run_vc");
  m["core.run_mr_s"] = span_median("core.run_mr");
  m["core.plan_vc_bytes"] = static_cast<double>(vc.plan_bytes);
  m["core.plan_mr_bytes"] = static_cast<double>(mr_runs.back().plan_bytes);
  m["core.candidates"] = static_cast<double>(vc.stats.candidates);
  m["core.candidates_blocked"] =
      static_cast<double>(vc.stats.candidates_blocked);
  const double iso_vc = median_stat(
      vc_runs, [](const EngineRun& r) { return r.stats.iso_checks; });
  m["core.iso_checks_vc"] = iso_vc;
  m["core.iso_checks_mr"] = median_stat(
      mr_runs, [](const EngineRun& r) { return r.stats.iso_checks; });
  m["core.messages_vc"] = median_stat(
      vc_runs, [](const EngineRun& r) { return r.stats.messages; });
  m["core.pairs_per_iso_check_vc"] =
      iso_vc > 0 ? static_cast<double>(vc.pairs) / iso_vc : 0.0;
  m["match.vc_s"] = vc_med;
  m["match.mr_s"] = mr_med;
  m["run.failed_frac"] = out.tally.failed_frac();
  const auto traced = Median(traced_s), untraced = Median(untraced_s);
  if (traced && untraced) m["trace.overhead_ms"] = (*traced - *untraced) * 1e3;
  return out;
}

}  // namespace perfbench
}  // namespace gkeys
