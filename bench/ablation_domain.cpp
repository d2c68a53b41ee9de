// Ablation: effect of the variable-domain size on synthesis time/space
// (the experiment the paper conducted but omitted for space — Section VII:
// "We have conducted similar investigation ... on the effect of the size
// of variable domains").
//
// Paper's qualitative claim (Section VIII, Scalability): "the larger the
// size of the groups and the variable domains, the more cycles we get" —
// so time and SCC work should grow with |D| at a fixed process count.
#include "bench/common.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

void BM_TokenRingDomainSweep(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::tokenRing(4, d);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.schedule = core::rotatedSchedule(4, 1);
    const core::StrongResult r = core::addStrongConvergence(sp, opt);
    const bool ok =
        r.success && verify::check(sp, r.relation).stronglyStabilizing();
    bench::attachCounters(state, r.stats, ok);
    state.counters["scc_components"] =
        static_cast<double>(r.stats.sccComponentsFound);
    bench::recordPoint({"token-ring-domain", static_cast<double>(d), ok,
                        ok ? "" : core::toString(r.failure), r.stats});
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("token_ring_k4/domain_sweep",
                                          BM_TokenRingDomainSweep);
  for (int d = 2; d <= 8; ++d) bm->Arg(d);
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  stsyn::bench::printFigurePair(
      "domain_size",
      "Ablation: token ring (4 processes) times vs |D| (seconds)",
      "Ablation: token ring (4 processes) BDD nodes vs |D|");
  return stsyn::bench::writeBenchJson("ablation_domain") ? 0 : 1;
}
