// Figures 8 and 9: time and space of adding convergence to three coloring
// versus the number of processes.
//
// Paper setup: K = 5..40 in steps of 5. Expected SHAPE: the
// locally-correctable coloring protocol never forms SCCs outside I, so the
// synthesis scales all the way to 40 processes (3^40 ≈ 1.2e19 states) with
// cycle-resolution work (here: incremental acyclicity proofs) dominating
// the time and BDD sizes growing smoothly with K.
#include "bench/common.hpp"
#include "casestudies/coloring.hpp"
#include "core/heuristic.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

void BM_ColoringSynthesis(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::coloring(k);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::StrongResult r = core::addStrongConvergence(sp);
    // The paper's figures measure synthesis (r.stats); every K is also
    // re-verified, which costs less than the synthesis itself because the
    // check searches SCCs only outside AF(I), empty on a converging ring.
    const bool ok =
        r.success && verify::check(sp, r.relation).stronglyStabilizing();
    bench::attachCounters(state, r.stats, ok);
    state.counters["fast_path_hits"] =
        static_cast<double>(r.stats.sccFastPathHits);
    bench::recordPoint(
        {"coloring", static_cast<double>(k), ok, "", r.stats});
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("coloring/synthesis",
                                          BM_ColoringSynthesis);
  for (int k = 5; k <= 40; k += 5) bm->Arg(k);
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  stsyn::bench::printFigurePair(
      "processes",
      "Figure 8: execution times for 3-coloring (seconds)",
      "Figure 9: memory usage for 3-coloring (BDD nodes)");
  return stsyn::bench::writeBenchJson("fig8_9_coloring") ? 0 : 1;
}
