// Ablation: which pass of the heuristic earns its keep (the design choices
// DESIGN.md calls out): pass 1 (C1-C4), pass 2 (drop C4), pass 3 (drop C2),
// and the implementation's greedy cycle-resolution pass 4.
//
// Expected picture, matching the paper's narratives:
//   * token ring (4,3): pass 1 adds nothing, pass 2 completes;
//   * matching (5):     needs pass 3;
//   * token ring (5,5): the published three passes get stuck, the greedy
//                       pass completes (see DESIGN.md on the extension);
//   * coloring (8):     pass 2 completes with zero SCCs.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <functional>
#include <string>
#include <vector>

#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "core/heuristic.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

namespace {

using namespace stsyn;

struct Subject {
  const char* name;
  std::function<protocol::Protocol()> make;
  core::Schedule schedule;  // empty = identity
};

const Subject kSubjects[] = {
    {"token-ring(4,3)", [] { return casestudies::tokenRing(4, 3); },
     core::rotatedSchedule(4, 1)},
    {"matching(5)", [] { return casestudies::matching(5); }, {}},
    {"token-ring(5,5)", [] { return casestudies::tokenRing(5, 5); },
     core::rotatedSchedule(5, 1)},
    {"coloring(8)", [] { return casestudies::coloring(8); }, {}},
};

struct Config {
  const char* name;
  int maxPass;
  bool greedy;
};

const Config kConfigs[] = {
    {"pass1", 1, false},
    {"pass1-2", 2, false},
    {"pass1-3", 3, false},
    {"pass1-4", 3, true},
};

/// Success of each subject × config point ("" until its timed loop ran).
std::string outcomes[std::size(kSubjects)][std::size(kConfigs)];

void BM_PassAblation(benchmark::State& state) {
  const std::size_t si = static_cast<std::size_t>(state.range(0));
  const std::size_t ci = static_cast<std::size_t>(state.range(1));
  const Subject& subject = kSubjects[si];
  const Config& config = kConfigs[ci];
  const protocol::Protocol p = subject.make();
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    core::StrongOptions opt;
    opt.schedule = subject.schedule;
    opt.maxPass = config.maxPass;
    opt.greedyCycleResolution = config.greedy;
    const core::StrongResult r = core::addStrongConvergence(sp, opt);
    const bool ok =
        r.success && verify::check(sp, r.relation).stronglyStabilizing();
    outcomes[si][ci] = ok ? "yes" : "no";
    state.counters["success"] = ok ? 1 : 0;
    state.counters["total_s"] = r.stats.totalSeconds;
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("pass_ablation", BM_PassAblation);
  for (long s = 0; s < 4; ++s) {
    for (long c = 0; c < 4; ++c) bm->Args({s, c});
  }
  bm->Iterations(1)->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Ablation: heuristic passes (success per "
              "configuration) ===\n");
  stsyn::util::Table table(
      {"subject", "pass1", "pass1-2", "pass1-3", "pass1-4(greedy)"});
  for (std::size_t si = 0; si < std::size(kSubjects); ++si) {
    std::vector<std::string> row{kSubjects[si].name};
    for (const std::string& outcome : outcomes[si]) {
      row.push_back(outcome.empty() ? "-" : outcome);
    }
    table.addRow(std::move(row));
  }
  table.printAligned(std::cout);
  std::printf("\nCSV:\n");
  table.printCsv(std::cout);
  return 0;
}
