// Figures 10 and 11: time and space of adding convergence to Dijkstra's
// token ring with |D| = 4, versus the number of processes.
//
// Paper setup: |D| = 4, up to 5 processes (the paper reports solutions for
// the token ring only up to 5 processes with domain size up to 5).
// Expected SHAPE: small absolute times with SCC detection the dominant
// component as K grows, program size in BDD nodes growing roughly linearly.
#include "bench/common.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

void BM_TokenRingSynthesis(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::tokenRing(k, 4);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.schedule = core::rotatedSchedule(static_cast<std::size_t>(k), 1);
    const core::StrongResult r = core::addStrongConvergence(sp, opt);
    const bool ok =
        r.success && verify::check(sp, r.relation).stronglyStabilizing();
    bench::attachCounters(state, r.stats, ok);
    bench::recordPoint(
        {"token-ring", static_cast<double>(k), ok, "", r.stats});
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("token_ring_d4/synthesis",
                                          BM_TokenRingSynthesis);
  for (int k = 2; k <= 5; ++k) bm->Arg(k);
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  stsyn::bench::printFigurePair(
      "processes",
      "Figure 10: execution times of token ring |D|=4 (seconds)",
      "Figure 11: memory usage of token ring |D|=4 (BDD nodes)");
  return stsyn::bench::writeBenchJson("fig10_11_tokenring") ? 0 : 1;
}
