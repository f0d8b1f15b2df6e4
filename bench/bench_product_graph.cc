// Product-graph size (paper §5.1): the paper reports |Gp| = 2.7 * |G| on
// average — crucially LINEAR in |G|, not the naive |G|^2. This benchmark
// measures |Vp| + |Ep| against |G| across datasets and scales, plus the
// construction time. The pairing relations Gp is built from are computed
// by the EmContext's pairing pass (outside the timed loop), so the time
// covers node interning and the edge pass only, not pairing.

#include "bench_util.h"
#include "core/product_graph.h"

namespace gkeys {
namespace bench {
namespace {

void RegisterAll() {
  for (Dataset ds :
       {Dataset::kGoogle, Dataset::kDBpedia, Dataset::kSynthetic}) {
    for (double scale : {0.5, 1.0, 2.0}) {
      std::string name = "ProductGraph/" + DatasetName(ds) +
                         "/scale:" + std::to_string(scale).substr(0, 3);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [ds, scale](benchmark::State& state) {
            SyntheticDataset data = MakeDataset(ds, scale);
            EmOptions opts = EmOptions::For(Algorithm::kEmVc, 1);
            EmContext ctx(data.graph, data.keys, opts,
                          /*feeds_product_graph=*/true);
            size_t nodes = 0, edges = 0;
            for (auto _ : state) {
              ProductGraph pg = BuildProductGraph(ctx);
              nodes = pg.NumNodes();
              edges = pg.NumEdges();
              benchmark::DoNotOptimize(nodes);
            }
            double g_size = static_cast<double>(data.graph.NumTriples());
            state.counters["G_triples"] = g_size;
            state.counters["Gp_nodes"] = static_cast<double>(nodes);
            state.counters["Gp_edges"] = static_cast<double>(edges);
            state.counters["Gp_over_G"] =
                static_cast<double>(nodes + edges) / g_size;
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace gkeys

int main(int argc, char** argv) {
  gkeys::bench::InitJson(&argc, argv);
  gkeys::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gkeys::bench::FlushJson();
  return 0;
}
