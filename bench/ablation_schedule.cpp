// Ablation: effect of the recovery schedule (the second experiment the
// paper conducted but omitted for space; the schedule is the degree of
// freedom its Figure 1 parallelizes over).
//
// Sweeps every schedule of the 4-process token ring (24 permutations) and
// every rotation of the 5-process matching ring, reporting per-schedule
// success, pass reached, and cost. The headline observations: all token
// ring schedules succeed but produce up to a handful of DISTINCT solutions
// (the paper's "3 different versions"), and schedule choice shifts where
// matching's cycle resolution happens.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <map>

#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "symbolic/decode.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

struct Outcome {
  core::Schedule schedule;
  bool success = false;
  int pass = 0;
  double seconds = 0;
  std::size_t solutionId = 0;  // distinct synthesized relations, numbered
};

std::vector<Outcome> sweepTokenRing() {
  std::vector<Outcome> out;
  std::map<std::vector<symbolic::ExplicitTransition>, std::size_t> solutions;
  const protocol::Protocol p = casestudies::tokenRing(4, 3);
  for (const core::Schedule& s : core::allSchedules(4)) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.schedule = s;
    const core::StrongResult r = core::addStrongConvergence(sp, opt);
    Outcome o;
    o.schedule = s;
    o.success =
        r.success && verify::check(sp, r.relation).stronglyStabilizing();
    o.pass = r.stats.passCompleted;
    o.seconds = r.stats.totalSeconds;
    if (o.success) {
      const auto rel = symbolic::decodeRelation(enc, r.relation);
      o.solutionId = solutions.emplace(rel, solutions.size() + 1)
                         .first->second;
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// The sweep's outcomes, recorded by its timed loop.
std::vector<Outcome> tokenRingOutcomes;

void BM_TokenRingScheduleSweep(benchmark::State& state) {
  for (auto _ : state) {
    tokenRingOutcomes = sweepTokenRing();
    std::size_t successes = 0;
    std::size_t distinct = 0;
    for (const Outcome& o : tokenRingOutcomes) {
      successes += o.success ? 1 : 0;
      distinct = std::max(distinct, o.solutionId);
    }
    state.counters["schedules"] =
        static_cast<double>(tokenRingOutcomes.size());
    state.counters["successes"] = static_cast<double>(successes);
    state.counters["distinct_solutions"] = static_cast<double>(distinct);
  }
}

void BM_MatchingRotations(benchmark::State& state) {
  const std::size_t rot = static_cast<std::size_t>(state.range(0));
  const protocol::Protocol p = casestudies::matching(5);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.schedule = core::rotatedSchedule(5, rot);
    const core::StrongResult r = core::addStrongConvergence(sp, opt);
    state.counters["success"] = r.success ? 1 : 0;
    state.counters["pass"] = r.stats.passCompleted;
    state.counters["scc_components"] =
        static_cast<double>(r.stats.sccComponentsFound);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("token_ring/schedule_sweep",
                               BM_TokenRingScheduleSweep)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  auto* bm = benchmark::RegisterBenchmark("matching5/rotation",
                                          BM_MatchingRotations);
  for (long rot = 0; rot < 5; ++rot) bm->Arg(rot);
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Ablation: recovery schedules of the 4-process token "
              "ring ===\n");
  stsyn::util::Table table(
      {"schedule", "success", "pass", "total_s", "solution"});
  for (const Outcome& o : tokenRingOutcomes) {
    table.addRow({core::toString(o.schedule), o.success ? "yes" : "NO",
                  stsyn::util::Table::cell(static_cast<std::size_t>(o.pass)),
                  stsyn::util::Table::cell(o.seconds),
                  o.success ? "#" + std::to_string(o.solutionId) : "-"});
  }
  table.printAligned(std::cout);
  std::printf("\nCSV:\n");
  table.printCsv(std::cout);
  return 0;
}
