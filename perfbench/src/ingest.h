// Pieces of the ingest_powerlaw workload that the self-test drives too:
// session loading, the serial reference and one checked segment run.
#ifndef GKEYS_PERFBENCH_INGEST_H_
#define GKEYS_PERFBENCH_INGEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "io/triples.h"

namespace gkeys {
namespace perfbench {

/// A loaded, compiled, matched session. Heap-allocated: the plan
/// references the graph's address.
struct Session {
  LoadedGraph lg;
  MatchPlan plan;
  MatchResult result;
  IngestSession view() {
    return IngestSession{&lg.graph, &plan, &result, &lg.entities};
  }
};

/// Parses `text`, compiles it for EMOptVC (p = 1) and runs it. nullptr on
/// any error.
std::unique_ptr<Session> Load(const std::string& text, const KeySet& keys,
                              const Matcher& matcher);

/// One segment with the serial reference's verdict on it.
struct Segment {
  std::vector<std::string> batches;
  std::vector<uint64_t> ops;  // triple ops each batch stages
  std::string final_text;
  std::vector<std::pair<NodeId, NodeId>> final_pairs;
};

/// The serial reference: every batch parsed and applied on its own, in
/// order, then the final graph matched from scratch. Fills seg->ops,
/// final_text and final_pairs. False when a batch is rejected.
bool RunReference(const std::string& graph_text, const KeySet& keys,
                  const Matcher& matcher, Segment* seg);

struct SegmentRun {
  double seconds = 0;
  bool ok = false;
  std::vector<double> lag_ms;  // hand-over to observer, per batch
  IngestStats stats;
};

/// One IngestStream run (default IngestOptions) over `seg.batches` from the
/// freshly loaded `s`. ok only when the stream ended OK, every batch
/// reached the observer, and the session landed exactly on the
/// reference's final graph text and pairs.
SegmentRun RunSegment(Session& s, const Matcher& matcher, const Segment& seg,
                      uint64_t op);

}  // namespace perfbench
}  // namespace gkeys

#endif  // GKEYS_PERFBENCH_INGEST_H_
