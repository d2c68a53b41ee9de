// Ablation: plain (asymmetric) synthesis vs symmetry-enforcing synthesis
// (the paper's §VIII/IX future-work item) on the rotation-symmetric case
// studies. Reports success, pass reached, recovery size, and the symmetry
// class count of the plain solution.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "core/heuristic.hpp"
#include "explicitstate/symmetric.hpp"
#include "explicitstate/verify.hpp"
#include "extraction/symmetry.hpp"
#include "util/table.hpp"

namespace {

using namespace stsyn;

/// The printed table's rows keyed by (K, mode), recorded by the timed
/// loops.
std::map<std::pair<int, int>, std::vector<std::string>> rows;

void BM_PlainSynthesis(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::matching(k);
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    symbolic::SymbolicProtocol sp(enc);
    const core::StrongResult r = core::addStrongConvergence(sp);
    std::size_t classes = 0;
    if (r.success) {
      classes = extraction::analyzeRotationalSymmetry(sp, r.addedPerProcess)
                    .classCount;
    }
    state.counters["success"] = r.success ? 1 : 0;
    state.counters["symmetry_classes"] = static_cast<double>(classes);
    rows[{k, 0}] = {std::to_string(k), "plain heuristic",
                    r.success ? "yes" : "no",
                    std::to_string(r.stats.passCompleted),
                    classes == 1 ? "yes"
                                 : "no (" + std::to_string(classes) +
                                       " classes)",
                    "-"};
  }
}

void BM_SymmetricSynthesis(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const protocol::Protocol p = casestudies::matching(k);
  for (auto _ : state) {
    const explicitstate::StateSpace space(p);
    const auto r = explicitstate::addSymmetricConvergence(space);
    state.counters["success"] = r.success ? 1 : 0;
    state.counters["pass"] = r.passCompleted;
    state.counters["added_edges"] = static_cast<double>(r.added.size());
    rows[{k, 1}] = {std::to_string(k), "template (symmetric)",
                    r.success ? "yes" : "no", std::to_string(r.passCompleted),
                    "yes", std::to_string(r.added.size())};
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (auto* bm :
       {benchmark::RegisterBenchmark("matching/plain", BM_PlainSynthesis),
        benchmark::RegisterBenchmark("matching/symmetric",
                                     BM_SymmetricSynthesis)}) {
    bm->DenseRange(4, 6)->Iterations(1)->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Ablation: symmetry-enforcing synthesis (matching) "
              "===\n");
  stsyn::util::Table table({"K", "mode", "success", "pass",
                            "symmetric", "recovery_edges"});
  for (const auto& [point, row] : rows) table.addRow(row);
  table.printAligned(std::cout);
  std::printf("\nCSV:\n");
  table.printCsv(std::cout);
  return 0;
}
