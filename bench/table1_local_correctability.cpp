// Figure 5 / "Table 1: Local Correctability of Case Studies".
//
// Paper's table:   3-Coloring  Yes
//                  Matching    No
//                  Token Ring  No
//                  Two-Ring TR No
//
// The classification here is computed, not asserted: the decision
// procedure checks whether the invariant decomposes into per-process local
// predicates and whether every violated predicate has a safe local fix
// (see src/explicitstate/local_correct.hpp).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <iostream>
#include <optional>
#include <string>

#include "bench/common.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "casestudies/two_ring.hpp"
#include "explicitstate/local_correct.hpp"
#include "util/table.hpp"

namespace {

using namespace stsyn;

struct Case {
  const char* name;
  std::function<protocol::Protocol()> make;
  bool paperSaysYes;
};

const Case kCases[] = {
    {"3-Coloring", [] { return casestudies::coloring(6); }, true},
    {"Matching", [] { return casestudies::matching(6); }, false},
    {"Token Ring (TR)", [] { return casestudies::tokenRing(4, 3); }, false},
    {"Two-Ring TR", [] { return casestudies::twoRing(2); }, false},
};

/// The verdict of each case, recorded by its timed loop.
std::optional<explicitstate::LocalCorrectReport> reports[std::size(kCases)];

void BM_LocalCorrectability(benchmark::State& state) {
  const std::size_t i = static_cast<std::size_t>(state.range(0));
  const protocol::Protocol p = kCases[i].make();
  for (auto _ : state) {
    reports[i] = explicitstate::analyzeLocalCorrectability(p);
    state.counters["locally_correctable"] =
        reports[i]->isLocallyCorrectable() ? 1 : 0;
    state.counters["matches_paper"] =
        reports[i]->isLocallyCorrectable() == kCases[i].paperSaysYes ? 1 : 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto* bm = benchmark::RegisterBenchmark("local_correctability",
                                          BM_LocalCorrectability);
  for (long i = 0; i < static_cast<long>(std::size(kCases)); ++i) bm->Arg(i);
  bm->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n=== Figure 5 / Table 1: local correctability of case "
              "studies ===\n");
  stsyn::util::Table table(
      {"case_study", "computed_verdict", "paper", "match"});
  std::size_t count = 0;
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    if (!reports[i]) continue;
    const bool match =
        reports[i]->isLocallyCorrectable() == kCases[i].paperSaysYes;
    table.addRow({kCases[i].name, explicitstate::toString(reports[i]->verdict),
                  kCases[i].paperSaysYes ? "Yes" : "No",
                  match ? "yes" : "NO"});
    ++count;
  }
  table.printAligned(std::cout);
  std::printf("\nCSV:\n");
  table.printCsv(std::cout);

  const bool wrote = stsyn::bench::writeBenchDocument(
      "table1_local_correctability", count, [](stsyn::obs::JsonWriter& w) {
        for (std::size_t i = 0; i < std::size(kCases); ++i) {
          if (!reports[i]) continue;
          const bool yes = reports[i]->isLocallyCorrectable();
          w.beginObject();
          w.field("case_study", kCases[i].name);
          w.field("computed_verdict",
                  explicitstate::toString(reports[i]->verdict));
          w.field("locally_correctable", yes);
          w.field("paper_says_yes", kCases[i].paperSaysYes);
          w.field("matches_paper", yes == kCases[i].paperSaysYes);
          w.endObject();
        }
      });
  return wrote ? 0 : 1;
}
