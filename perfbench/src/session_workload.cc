// session_dbpedia: a durable incremental matching session, closed loop,
// one caller.
//
// Why: it is the only workload that exercises the per-commit incremental
// path (Graph::Apply -> MatchPlan::Patch -> Matcher::Rematch), the
// write-ahead log's per-append fsync, periodic checkpoints and crash
// recovery. Compile runs only in set-up.
//
// Operation: one durable commit = Apply -> Patch -> Rematch ->
// DurableDir::AppendDelta (fsync'd before it returns). Deltas come from
// the `uniform` DeltaGenerator, 32 ops per batch, 40% removals. Every
// kCheckpointEvery commits a SaveSnapshot checkpoint starts a new
// generation; the session stops kCheckpointEvery / 2 commits into a
// generation, so Matcher::Recover always replays the same WAL tail length.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/matcher.h"
#include "gen/datasets.h"
#include "gen/hostile.h"
#include "io/fast_triples.h"
#include "storage/durable_dir.h"
#include "storage/mmap_store.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace gkeys {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kScale = 64;  // 85,248 triples
constexpr int kSetups = 5;
constexpr int kRecoveries = 3;
constexpr size_t kMinCommits = 200;  // p95 with >= 10 samples beyond it
constexpr size_t kCheckpointEvery = 50;
constexpr size_t kOpsPerBatch = 32;
constexpr double kRemoveFraction = 0.4;

/// Everything one session holds. The graph lives in `ds` and must stay put
/// while `plan` references it, so a Session is only ever heap-allocated.
struct Session {
  SyntheticDataset ds;
  MatchPlan plan;
  MatchResult result;
  std::unique_ptr<storage::DurableDir> dir;
};

/// Set-up: generate, compile, run, open a fresh durable directory and
/// install the first snapshot. nullptr on any error.
std::unique_ptr<Session> SetUp(uint64_t seed, const std::string& path,
                               const Matcher& matcher) {
  auto s = std::make_unique<Session>();
  DBpediaSimConfig gen;
  gen.seed = seed;
  gen.scale = kScale;
  s->ds = GenerateDBpediaSim(gen);
  StatusOr<MatchPlan> plan = [&] {
    ScopedSpan span("setup.core.compile_vc");
    return Matcher::Compile(s->ds.graph, s->ds.keys,
                            PlanOptions::For(Algorithm::kEmOptVc, 1));
  }();
  if (!plan.ok()) return nullptr;
  s->plan = *std::move(plan);
  StatusOr<MatchResult> result = [&] {
    ScopedSpan span("setup.core.run_vc");
    return matcher.Run(s->plan);
  }();
  if (!result.ok() || result->pairs != s->ds.planted) return nullptr;
  s->result = *std::move(result);
  std::error_code ec;
  fs::remove_all(path, ec);
  StatusOr<storage::DurableDir> dir = storage::DurableDir::Open(path);
  if (!dir.ok()) return nullptr;
  s->dir = std::make_unique<storage::DurableDir>(std::move(dir).value());
  ScopedSpan span("setup.storage.save_snapshot");
  if (!s->dir->SaveSnapshot(s->ds.graph, s->ds.keys, s->plan, s->result,
                            matcher.algorithm())
           .ok()) {
    return nullptr;
  }
  return s;
}

struct CommitSample {
  double total_s = 0;
  double dirty_fraction = 0, reused_frac = 0;
  size_t affected = 0, retracted = 0;
  bool seeded = false;
};

/// One durable commit of `delta`; false on any error.
bool Commit(Session& s, const Matcher& matcher, const GraphDelta& delta,
            uint64_t op, CommitSample* out) {
  ScopedSpan commit_span("session.commit", op);
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("graph.apply");
    if (!s.ds.graph.Apply(delta).ok()) return false;
  }
  StatusOr<MatchPlan> patched = [&] {
    ScopedSpan span("core.patch");
    return s.plan.Patch(delta);
  }();
  if (!patched.ok()) return false;
  StatusOr<MatchResult> rematched = [&] {
    ScopedSpan span("core.rematch");
    return matcher.Rematch(*patched, s.result, delta);
  }();
  if (!rematched.ok()) return false;
  s.plan = *std::move(patched);
  s.result = *std::move(rematched);
  {
    ScopedSpan span("storage.wal_append");
    if (!s.dir->AppendDelta(delta).ok()) return false;
  }
  out->total_s = SecondsBetween(t0, Clock::now());
  out->dirty_fraction = s.plan.dirty_fraction();
  out->affected = s.plan.num_affected_entities();
  const ContextPatchInfo* info = s.plan.patch_info();
  const size_t n = s.plan.num_candidates();
  out->reused_frac = info != nullptr && n > 0
                         ? static_cast<double>(info->candidates_reused) /
                               static_cast<double>(n)
                         : 0.0;
  out->retracted = s.result.stats.derivations_retracted;
  out->seeded = s.result.stats.rematch_seeded != 0;
  return true;
}

/// Delta text names for the session's entities, so a traced run can hand
/// each commit's delta to the io layer as text: every entity is
/// `ent:<type>:<node id>`.
struct EntityNames {
  std::vector<std::string> token_of;  // by NodeId; empty for values
  std::unordered_map<std::string, NodeId> ids;

  void Add(NodeId n, const std::string& type) {
    if (token_of.size() <= n) token_of.resize(n + 1);
    token_of[n] = "ent:" + type + ":" + std::to_string(n);
    ids.emplace(token_of[n], n);
  }
  /// Names every entity `delta` introduced; call after it was applied.
  void AddNew(const GraphDelta& delta) {
    for (size_t k = 0; k < delta.new_nodes().size(); ++k) {
      const GraphDelta::NewNode& nn = delta.new_nodes()[k];
      if (nn.kind == NodeKind::kEntity) {
        Add(static_cast<NodeId>(delta.base_nodes() + k), nn.label);
      }
    }
  }
  /// `delta` (not yet applied to `g`) as delta text.
  std::string Render(const Graph& g, const GraphDelta& delta) const {
    auto ref = [&](NodeId n) {
      if (n < delta.base_nodes()) {
        return g.IsEntity(n) ? token_of[n] : ValueToken(g.value_str(n));
      }
      const GraphDelta::NewNode& nn = delta.new_nodes()[n - delta.base_nodes()];
      return nn.kind == NodeKind::kEntity
                 ? "ent:" + nn.label + ":" + std::to_string(n)
                 : ValueToken(nn.label);
    };
    std::string text;
    for (const GraphDelta::DeltaTriple& t : delta.removed()) {
      text += "- " + ref(t.subject) + " " + t.pred + " " + ref(t.object) + "\n";
    }
    for (const GraphDelta::DeltaTriple& t : delta.added()) {
      text += "+ " + ref(t.subject) + " " + t.pred + " " + ref(t.object) + "\n";
    }
    return text;
  }
};

/// The io layer on one commit's delta, outside the commit itself: the
/// delta's text is tokenized and bound against the pre-commit graph. True
/// when that reproduces the delta's operations.
bool TokenizeAndBind(const Graph& g, const EntityNames& names,
                     const GraphDelta& delta, uint64_t op) {
  const std::string text = names.Render(g, delta);
  TokenizedText tokens = [&] {
    ScopedSpan span("io.tokenize", op);
    return TokenizeDeltaText(text);
  }();
  StatusOr<GraphDelta> bound = [&] {
    ScopedSpan span("io.bind", op);
    return BindDeltaText(tokens, g, names.ids);
  }();
  return tokens.error.ok() && bound.ok() &&
         bound->num_added_triples() == delta.num_added_triples() &&
         bound->num_removed_triples() == delta.num_removed_triples();
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

}  // namespace

WorkloadResult RunSessionDbpedia(const RunConfig& cfg) {
  WorkloadResult out;
  Tracer& tracer = Tracer::Get();
  const Matcher matcher = Matcher(Algorithm::kEmOptVc).processors(1);
  const std::string path = cfg.work_dir + "/session";

  std::vector<double> setup_s;
  std::unique_ptr<Session> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    Clock::time_point t0 = Clock::now();
    s = SetUp(cfg.seed, path, matcher);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (s == nullptr) {
      std::fprintf(stderr, "session_dbpedia: set-up failed\n");
      return out;
    }
  }

  DeltaGenConfig gen_cfg;
  gen_cfg.seed = cfg.seed;
  gen_cfg.ops_per_batch = kOpsPerBatch;
  gen_cfg.remove_fraction = kRemoveFraction;
  auto gen = MakeDeltaGenerator("uniform", gen_cfg);
  if (!gen.ok()) return out;

  // Timed phase: closed loop. The delta is staged (the caller preparing
  // its request) outside the commit latency but inside the wall time;
  // checkpoints block the caller, so they count toward work_per_s too.
  std::vector<CommitSample> samples;
  std::vector<double> commit_ms, traced_ms, untraced_ms, checkpoint_s;
  bool commits_ok = true, io_ok = true;
  EntityNames names;
  if (cfg.trace) {
    const Graph& g = s->ds.graph;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsEntity(n)) names.Add(n, g.interner().Resolve(g.entity_type(n)));
    }
  }
  Clock::time_point start = Clock::now();
  double elapsed = 0;
  for (uint64_t op = 1;; ++op) {
    const bool traced = cfg.trace && op % 2 == 1;
    tracer.set_enabled(traced);
    GraphDelta delta = (*gen)->Next(s->ds.graph);
    const uint64_t work =
        delta.num_added_triples() + delta.num_removed_triples();
    if (traced) io_ok = io_ok && TokenizeAndBind(s->ds.graph, names, delta, op);
    CommitSample sample;
    const bool ok = Commit(*s, matcher, delta, op, &sample);
    tracer.set_enabled(cfg.trace);
    if (ok && cfg.trace) names.AddNew(delta);
    out.tally.Add({work, ok});
    if (!ok) {
      commits_ok = false;
      break;
    }
    samples.push_back(sample);
    commit_ms.push_back(sample.total_s * 1e3);
    (traced ? traced_ms : untraced_ms).push_back(sample.total_s * 1e3);
    const size_t n = samples.size();
    if (n % kCheckpointEvery == 0) {
      ScopedSpan span("storage.save_snapshot", op);
      Clock::time_point t0 = Clock::now();
      if (!s->dir->SaveSnapshot(s->ds.graph, s->ds.keys, s->plan, s->result,
                                matcher.algorithm())
               .ok()) {
        commits_ok = false;
        break;
      }
      checkpoint_s.push_back(SecondsBetween(t0, Clock::now()));
    }
    elapsed = SecondsBetween(start, Clock::now());
    if (n >= kMinCommits && elapsed >= cfg.seconds &&
        n % kCheckpointEvery == kCheckpointEvery / 2) {
      break;
    }
  }

  // Output checks, outside the timed phase: the live pairs equal a
  // from-scratch Compile + Run of the final graph, and recovery from the
  // durable directory lands on the live pairs.
  bool scratch_ok = false;
  if (commits_ok) {
    auto plan = Matcher::Compile(s->ds.graph, s->ds.keys,
                                 PlanOptions::For(Algorithm::kEmOptVc, 1));
    if (plan.ok()) {
      auto fresh = matcher.Run(*plan);
      scratch_ok = fresh.ok() && fresh->pairs == s->result.pairs;
    }
  }
  if (!scratch_ok) {
    // Some commit produced a wrong result; which one is unknown, so none
    // of them counts as done.
    out.tally.failed = out.tally.attempted;
    out.tally.ok_work = 0;
  }

  const uint64_t gen_no = s->dir->generation();
  const std::string snap_path = s->dir->SnapshotPath(gen_no);
  const uint64_t snapshot_bytes = FileBytes(snap_path);
  const uint64_t wal_bytes = FileBytes(s->dir->WalPath(gen_no));
  const uint64_t final_triples = s->ds.graph.NumTriples();
  std::vector<double> recover_s, load_s;
  size_t replayed = 0;
  bool recover_ok = commits_ok;
  for (int i = 0; i < kRecoveries && recover_ok; ++i) {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("storage.snapshot_load");
      auto store = storage::MmapStore::Open(snap_path);
      recover_ok = store.ok() && storage::Snapshot::Load(**store).ok();
    }
    load_s.push_back(SecondsBetween(t0, Clock::now()));
    t0 = Clock::now();
    StatusOr<storage::RecoveredSession> rec = [&] {
      ScopedSpan span("storage.recover");
      return matcher.Recover(path);
    }();
    recover_s.push_back(SecondsBetween(t0, Clock::now()));
    recover_ok = recover_ok && rec.ok() &&
                 rec->snapshot.result().pairs == s->result.pairs &&
                 rec->report.batches_replayed == kCheckpointEvery / 2;
    if (rec.ok()) replayed = rec->report.batches_replayed;
  }
  out.tally.Add({0, recover_ok});
  out.correct = commits_ok && scratch_ok && recover_ok && io_ok;

  const double p50 = Median(commit_ms).value_or(0.0);
  const auto p95 = Percentile(commit_ms, 0.95);
  const double recover_med = Median(recover_s).value_or(0.0);
  const double checkpoint_med = Median(checkpoint_s).value_or(0.0);
  const double bytes_per_triple =
      static_cast<double>(snapshot_bytes + wal_bytes) /
      static_cast<double>(final_triples);
  std::printf("info commits %zu, commit_p50_ms %.4f, commit_p95_ms %.4f, "
              "checkpoint_s %.4f, recover_s %.4f, store_bytes_per_triple "
              "%.3f, failed_frac %.6f\n",
              samples.size(), p50, p95.value_or(0.0), checkpoint_med,
              recover_med, bytes_per_triple, out.tally.failed_frac());
  std::map<std::string, double>& m = out.metrics;
  if (!cfg.trace) {
    m["setup_s"] = *Median(setup_s);
    m["peak_rss_mb"] = PeakRssMb();
    m["op_p50_ms"] = p50;
    m["work_per_s"] = out.tally.ok_work_per_s(elapsed);
    return out;
  }

  // Counts are taken over the first kMinCommits commits only, which every
  // run makes, so for a given seed they repeat exactly.
  const size_t counted = std::min(samples.size(), kMinCommits);
  auto median_field = [&](auto field) {
    std::vector<double> v;
    for (size_t i = 0; i < counted; ++i) {
      v.push_back(static_cast<double>(field(samples[i])));
    }
    return Median(v).value_or(0.0);
  };
  auto span_median = [&](const char* name) {
    return Median(tracer.Durations(name)).value_or(0.0);
  };
  m["core.compile_vc_s"] = span_median("setup.core.compile_vc");
  m["core.run_vc_s"] = span_median("setup.core.run_vc");
  m["io.tokenize_ms"] = span_median("io.tokenize") * 1e3;
  m["io.bind_ms"] = span_median("io.bind") * 1e3;
  m["graph.apply_ms"] = span_median("graph.apply") * 1e3;
  m["core.patch_ms"] = span_median("core.patch") * 1e3;
  m["core.rematch_ms"] = span_median("core.rematch") * 1e3;
  m["storage.wal_append_ms"] = span_median("storage.wal_append") * 1e3;
  m["core.dirty_fraction"] =
      median_field([](const CommitSample& c) { return c.dirty_fraction; });
  m["core.affected_entities"] =
      median_field([](const CommitSample& c) { return c.affected; });
  m["core.patch_candidates_reused_frac"] =
      median_field([](const CommitSample& c) { return c.reused_frac; });
  m["core.derivations_retracted"] =
      median_field([](const CommitSample& c) { return c.retracted; });
  size_t seeded = 0;
  for (size_t i = 0; i < counted; ++i) seeded += samples[i].seeded ? 1 : 0;
  m["core.rematch_seeded_frac"] =
      counted == 0 ? 0.0
                   : static_cast<double>(seeded) / static_cast<double>(counted);
  m["storage.snapshot_bytes"] = static_cast<double>(snapshot_bytes);
  m["storage.wal_bytes"] = static_cast<double>(wal_bytes);
  const double load_med = Median(load_s).value_or(0.0);
  m["storage.snapshot_load_s"] = load_med;
  m["storage.replay_batches"] = static_cast<double>(replayed);
  m["storage.replay_s"] = recover_med - load_med;
  m["session.commit_p50_ms"] = p50;
  if (p95) m["session.commit_p95_ms"] = *p95;
  m["session.checkpoint_s"] = checkpoint_med;
  m["session.recover_s"] = recover_med;
  m["session.store_bytes_per_triple"] = bytes_per_triple;
  m["run.failed_frac"] = out.tally.failed_frac();
  const auto traced = Median(traced_ms), untraced = Median(untraced_ms);
  if (traced && untraced) m["trace.overhead_ms"] = *traced - *untraced;
  return out;
}

}  // namespace perfbench
}  // namespace gkeys
