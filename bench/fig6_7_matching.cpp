// Figures 6 and 7: time and space of adding convergence to the maximal
// matching protocol versus the number of processes.
//
// Paper setup: K = 5..11, C++/CUDD on a 3 GHz dual-core PC; K = 11 took
// about 65 seconds. Expected SHAPE (what this harness checks/reports):
// superlinear growth dominated by SCC detection, with the average SCC size
// and total program size (both in BDD nodes) growing with K.
//
// The sweep's upper end can be trimmed for quick runs:
//   STSYN_MATCHING_MAX=8 ./fig6_7_matching
#include <cstdlib>

#include "bench/common.hpp"
#include "casestudies/matching.hpp"
#include "core/heuristic.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

void BM_MatchingSynthesis(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::matching(k);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::StrongResult r = core::addStrongConvergence(sp);
    // Small instances are re-verified inside the run — a benchmark that
    // produced a wrong protocol must not count; the largest ones rely on
    // correctness-by-construction (the test suite verifies K <= 6
    // explicitly against the independent oracle).
    const bool ok = r.success &&
                    (k > 8 ||
                     verify::check(sp, r.relation).stronglyStabilizing());
    bench::attachCounters(state, r.stats, ok);
    bench::recordPoint(
        {"matching", static_cast<double>(k), ok, "", r.stats});
  }
}

int maxK() {
  const char* env = std::getenv("STSYN_MATCHING_MAX");
  const int k = env != nullptr ? std::atoi(env) : 11;
  return k >= 5 ? k : 11;
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("matching/synthesis",
                                          BM_MatchingSynthesis);
  for (int k = 5; k <= maxK(); ++k) bm->Arg(k);
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  stsyn::bench::printFigurePair(
      "processes",
      "Figure 6: execution times for matching (seconds)",
      "Figure 7: memory usage for matching (BDD nodes)");
  return stsyn::bench::writeBenchJson("fig6_7_matching") ? 0 : 1;
}
