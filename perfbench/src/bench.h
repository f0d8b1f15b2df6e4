// Shared helpers of the gkeys performance benchmark: sample statistics,
// outcome accounting, in-memory span tracing and the metric tables.
// Everything here is header-only so the self-test binary (selftest.cc)
// exercises exactly the code the workloads run.
#ifndef GKEYS_PERFBENCH_BENCH_H_
#define GKEYS_PERFBENCH_BENCH_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json_writer.h"

namespace gkeys {
namespace perfbench {

// ---- Clock -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Sample statistics -----------------------------------------------------

/// Median of `v` (mean of the two middle samples for an even count).
/// nullopt on an empty sample.
inline std::optional<double> Median(std::vector<double> v) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile `q` (0 < q < 1) of `v`, refused (nullopt) when
/// fewer than `min_beyond` samples lie above the selected rank: a tail
/// percentile read from a handful of samples is one sample's noise. With
/// the default of 10, p95 needs at least 200 samples.
inline std::optional<double> Percentile(std::vector<double> v, double q,
                                        size_t min_beyond = 10) {
  if (v.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  const size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  return v[rank - 1];
}

/// Peak resident set size of this process so far, in MiB.
inline double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Delta text ------------------------------------------------------------

/// A value literal as a delta-text token: `val:"..."` with quotes and
/// backslashes escaped.
inline std::string ValueToken(const std::string& literal) {
  std::string out = "val:\"";
  for (char c : literal) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"";
  return out;
}

// ---- Outcome accounting ----------------------------------------------------

/// One attempted operation (a match run, a commit, an offered batch): its
/// size in units of work (triples) and whether its output checked out.
struct Outcome {
  uint64_t work = 0;
  bool ok = false;
};

/// Attempted / failed totals plus the work of the operations that
/// succeeded. A wrong output is a failure: the caller records ok = false
/// for it, and its work never reaches `ok_work`.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_work = 0;

  void Add(const Outcome& o) {
    ++attempted;
    if (o.ok) {
      ok_work += o.work;
    } else {
      ++failed;
    }
  }
  double failed_frac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  /// Successful work per second of `seconds`; failed work adds nothing.
  double ok_work_per_s(double seconds) const {
    return seconds > 0 ? static_cast<double>(ok_work) / seconds : 0.0;
  }
};

// ---- Tracing ---------------------------------------------------------------

/// One closed span: a public call into a gkeys module, made by the
/// benchmark. `op` ties the spans of one commit / batch / run together.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level
  uint64_t op = 0;
  uint32_t tid = 0;
  double seconds() const { return SecondsBetween(start, end); }
};

/// In-memory span recorder. Disabled (the default) it records nothing and
/// costs one branch per span; enabled, spans stay in memory until
/// WriteChromeTrace renders them at exit. Thread-safe: the ingest
/// pipeline's engine thread records spans while the tokenize thread runs.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  void Record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    s.tid = ThreadIndex();
    spans_.push_back(s);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Durations in seconds of every recorded span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.seconds());
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// chrome://tracing and Perfetto open as-is.
  bool WriteChromeTrace(const std::string& path) const {
    std::vector<Span> spans = this->spans();
    std::string out = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,",
                    JsonEscaped(s.name).c_str(), s.tid,
                    SecondsBetween(origin_, s.start) * 1e6, s.seconds() * 1e6);
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}%s\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent),
                    static_cast<unsigned long long>(s.op),
                    i + 1 < spans.size() ? "," : "");
      out += buf;
    }
    out += "]}\n";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  Tracer() : origin_(Clock::now()) {}

  uint32_t ThreadIndex() {  // mu_ held
    const std::thread::id me = std::this_thread::get_id();
    for (size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == me) return static_cast<uint32_t>(i + 1);
    }
    threads_.push_back(me);
    return static_cast<uint32_t>(threads_.size());
  }

  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// RAII span around one call. Nested ScopedSpans on the same thread
/// record their enclosing span as parent and inherit its op id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t op = 0) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = t.NextId();
    span_.parent = current_ == nullptr ? 0 : current_->span_.id;
    span_.op = op != 0 || current_ == nullptr ? op : current_->span_.op;
    outer_ = current_;
    current_ = this;
    span_.start = Clock::now();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end = Clock::now();
    current_ = outer_;
    Tracer::Get().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id; 0 when tracing is off.
  uint64_t id() const { return span_.id; }

 private:
  static inline thread_local ScopedSpan* current_ = nullptr;
  bool active_ = false;
  ScopedSpan* outer_ = nullptr;
  Span span_;
};

// ---- Metric tables ---------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload in an untraced run (see
/// WORKLOADS.md for what each means per workload). Must match the
/// end_to_end list of BENCHMARK.json.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_ms", "ms"},
    {"work_per_s", "1/s"},
};

/// Per-layer metrics, reported by every workload in a traced run; a layer
/// a workload does not exercise reads 0 there. Must match the per_layer
/// list of BENCHMARK.json.
inline constexpr MetricDef kPerLayer[] = {
    // match_dbpedia (compile_vc / run_vc: set-up's Compile and Run elsewhere)
    {"core.compile_vc_s", "s"},
    {"core.compile_mr_s", "s"},
    {"core.run_vc_s", "s"},
    {"core.run_mr_s", "s"},
    {"core.plan_vc_bytes", "bytes"},
    {"core.plan_mr_bytes", "bytes"},
    {"core.candidates", "count"},
    {"core.candidates_blocked", "count"},
    {"core.iso_checks_vc", "count"},
    {"core.iso_checks_mr", "count"},
    {"core.messages_vc", "count"},
    {"core.pairs_per_iso_check_vc", "ratio"},
    {"match.vc_s", "s"},
    {"match.mr_s", "s"},
    // session_dbpedia
    {"io.tokenize_ms", "ms"},
    {"io.bind_ms", "ms"},
    {"graph.apply_ms", "ms"},
    {"core.patch_ms", "ms"},
    {"core.dirty_fraction", "frac"},
    {"core.affected_entities", "count"},
    {"core.patch_candidates_reused_frac", "frac"},
    {"core.rematch_ms", "ms"},
    {"core.rematch_seeded_frac", "frac"},
    {"core.derivations_retracted", "count"},
    {"storage.wal_append_ms", "ms"},
    {"storage.snapshot_bytes", "bytes"},
    {"storage.wal_bytes", "bytes"},
    {"storage.snapshot_load_s", "s"},
    {"storage.replay_batches", "count"},
    {"storage.replay_s", "s"},
    {"session.commit_p50_ms", "ms"},
    {"session.commit_p95_ms", "ms"},
    {"session.checkpoint_s", "s"},
    {"session.recover_s", "s"},
    {"session.store_bytes_per_triple", "bytes"},
    // every workload
    {"run.failed_frac", "frac"},
    {"trace.overhead_ms", "ms"},
};

/// The extra per-layer metrics of ingest_powerlaw, which a traced run of
/// that workload reports after kPerLayer. The workload is not in
/// BENCHMARK.json (see WORKLOADS.md), so these are not either.
inline constexpr MetricDef kIngestPerLayer[] = {
    {"io.tokenize_s", "s"},
    {"io.tokenize_busy_frac", "frac"},
    {"io.bind_s", "s"},
    {"graph.apply_s", "s"},
    {"core.patch_s", "s"},
    {"core.rematch_s", "s"},
    {"core.engine_busy_frac", "frac"},
    {"core.batches_per_commit", "ratio"},
    {"ingest.triples_per_s", "1/s"},
    {"ingest.lag_p50_ms", "ms"},
    {"ingest.lag_p95_ms", "ms"},
};

// ---- Workload interface ----------------------------------------------------

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (durable session files);
  /// created by main and removed again after the run.
  std::string work_dir;
};

/// What a workload hands back to main: metric values by table name plus
/// the outcome of its output checks.
struct WorkloadResult {
  std::map<std::string, double> metrics;
  bool correct = false;
  Tally tally;
};

WorkloadResult RunMatchDbpedia(const RunConfig& cfg);
WorkloadResult RunSessionDbpedia(const RunConfig& cfg);
WorkloadResult RunIngestPowerlaw(const RunConfig& cfg);

}  // namespace perfbench
}  // namespace gkeys

#endif  // GKEYS_PERFBENCH_BENCH_H_
