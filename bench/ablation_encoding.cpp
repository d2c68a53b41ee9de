// Ablation: the BDD encoding — variable order, dynamic reordering and GC
// sampling — on the four case studies.
//
// Every study synthesizes once per mode (addStrongConvergence, default
// options). The BDD layout does not change what the heuristic decides
// (the layout differential wall and the STSYN_REORDER=1 suite check
// this), so only the time/space trajectory differs. Each mode sets the
// input order, the sifting switch and the GC threshold itself, so the
// environment (STSYN_REORDER) cannot change what a mode measures:
//
//   declared           declaration order, no sifting, default GC;
//   shuffled_declared  the same protocol with its variable declarations
//                      scrambled by a fixed shuffle (a hostile input
//                      order), no sifting;
//   dealt_fixed        a deliberately bad order installed up front: the
//                      (current, next) pair blocks dealt round-robin from
//                      the two halves of the layout, so neighbouring
//                      variables land far apart; no sifting;
//   dealt_sifting      the same bad order with grouped sifting on;
//   dense_gc           declared order with a 2Ki GC threshold: the manager
//                      collects often, so peak_reachable_nodes (sampled
//                      only at GC) tracks the live function store.
//
// The bench prints the peak reduction sifting buys back from the dealt
// order on each study.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "casestudies/two_ring.hpp"
#include "core/heuristic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace stsyn;

/// The reorder and dense-GC thresholds: small enough that every study
/// sifts / collects many times.
constexpr std::size_t kDenseThreshold = std::size_t{1} << 11;

struct Mode {
  const char* name;
  bool shuffledInput;
  bool dealt;
  bool sifting;
  std::size_t gcThreshold;  ///< 0 keeps the manager's default (the CLI's)
};

const Mode kModes[] = {
    {"declared", false, false, false, 0},
    {"shuffled_declared", true, false, false, 0},
    {"dealt_fixed", false, true, false, 0},
    {"dealt_sifting", false, true, true, 0},
    {"dense_gc", false, false, false, kDenseThreshold},
};

struct Study {
  const char* label;
  std::function<protocol::Protocol()> make;
};

const Study kStudies[] = {
    {"token_ring(5,4)", [] { return casestudies::tokenRing(5, 4); }},
    {"matching(5)", [] { return casestudies::matching(5); }},
    {"coloring(5)", [] { return casestudies::coloring(5); }},
    {"two_ring(4)", [] { return casestudies::twoRing(4); }},
};

/// The same protocol with its variable declarations (and every reference)
/// permuted by a fixed pseudo-random shuffle — a hostile declaration
/// order that destroys the neighbour locality the case-study generators
/// build in, while describing the identical protocol.
protocol::Protocol shuffled(const protocol::Protocol& p) {
  std::vector<protocol::VarId> perm(p.vars.size());
  std::iota(perm.begin(), perm.end(), protocol::VarId{0});
  util::Rng rng(0x5157u);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return protocol::renameVars(p, perm);
}

/// Deals the interleaved (cur, next) pair blocks round-robin from the two
/// halves of the layout: pair order 0, P/2, 1, P/2+1, ... Neighbouring
/// protocol variables land maximally far apart while every pair stays
/// adjacent (groups intact, so renaming stays order-preserving).
std::vector<bdd::Var> dealtPairOrder(const symbolic::Encoding& enc) {
  const auto& pairs = enc.bitPairs();
  const std::size_t half = (pairs.size() + 1) / 2;
  std::vector<bdd::Var> order;
  order.reserve(2 * pairs.size());
  for (std::size_t i = 0; i < half; ++i) {
    for (const std::size_t p : {i, half + i}) {
      if (p >= pairs.size()) continue;
      order.push_back(pairs[p].first);
      order.push_back(pairs[p].second);
    }
  }
  return order;
}

/// The point's record label and benchmark name.
std::string pointLabel(const Study& study, const char* mode) {
  return std::string(study.label) + "/" + mode;
}

void runPoint(benchmark::State& state, const Study& study, const Mode& mode) {
  const protocol::Protocol declared = study.make();
  const protocol::Protocol p =
      mode.shuffledInput ? shuffled(declared) : declared;
  for (auto _ : state) {
    symbolic::Encoding enc(p);
    bdd::Manager& m = enc.manager();
    if (mode.dealt) m.setLevelOrder(dealtPairOrder(enc));
    m.enableAutoReorder(mode.sifting);
    if (mode.sifting) m.setReorderThreshold(kDenseThreshold);
    if (mode.gcThreshold != 0) m.setGcThreshold(mode.gcThreshold);
    symbolic::SymbolicProtocol sp(enc);
    const core::StrongResult r = core::addStrongConvergence(sp, {});
    bench::attachCounters(state, r.stats, r.success);
    state.counters["peak_reachable"] =
        static_cast<double>(r.stats.peakReachableNodes);
    state.counters["reorder_runs"] = static_cast<double>(r.stats.reorderRuns);
    bench::recordPoint({pointLabel(study, mode.name),
                        static_cast<double>(p.processCount()), r.success,
                        r.success ? "" : core::toString(r.failure), r.stats});
  }
}

/// The recorded stats of one study × mode point; nullptr when the point
/// did not run (filtered out).
const core::SynthesisStats* find(const Study& study, const char* mode) {
  const std::string label = pointLabel(study, mode);
  for (const bench::RunRecord& r : bench::records()) {
    if (r.label == label) return &r.stats;
  }
  return nullptr;
}

/// One row per study, one column per mode, each cell `cellOf` the point's
/// stats ("-" for points that did not run).
void printModeTable(
    const char* title, const std::vector<const char*>& modes,
    const std::function<std::string(const core::SynthesisStats&)>& cellOf) {
  std::vector<std::string> header{"case_study"};
  header.insert(header.end(), modes.begin(), modes.end());
  util::Table t(std::move(header));
  for (const Study& study : kStudies) {
    std::vector<std::string> row{study.label};
    bool any = false;
    for (const char* m : modes) {
      const core::SynthesisStats* s = find(study, m);
      any = any || s != nullptr;
      row.push_back(s != nullptr ? cellOf(*s) : "-");
    }
    if (any) t.addRow(std::move(row));
  }
  std::printf("\n=== %s ===\n", title);
  t.printAligned(std::cout);
  std::printf("CSV:\n");
  t.printCsv(std::cout);
}

void printSummary() {
  std::vector<const char*> modes;
  for (const Mode& mode : kModes) modes.push_back(mode.name);
  printModeTable("Ablation: encoding (total seconds)", modes,
                 [](const core::SynthesisStats& s) {
                   return util::Table::cell(s.totalSeconds);
                 });
  modes.pop_back();  // dense_gc (last): its peak tracks the GC schedule
  printModeTable("Ablation: encoding (peak live BDD nodes)", modes,
                 [](const core::SynthesisStats& s) {
                   return util::Table::cell(s.peakLiveNodes);
                 });
  printModeTable("Ablation: encoding, dense GC (peak reachable BDD nodes)",
                 {"dense_gc"}, [](const core::SynthesisStats& s) {
                   return util::Table::cell(s.peakReachableNodes) + " (" +
                          util::Table::cell(s.gcRuns) + " GCs)";
                 });

  for (const Study& study : kStudies) {
    const core::SynthesisStats* fixed = find(study, "dealt_fixed");
    const core::SynthesisStats* sifted = find(study, "dealt_sifting");
    if (fixed == nullptr || sifted == nullptr || fixed->peakLiveNodes == 0) {
      continue;
    }
    const double before = static_cast<double>(fixed->peakLiveNodes);
    const double after = static_cast<double>(sifted->peakLiveNodes);
    std::printf(
        "dealt_fixed -> dealt_sifting peak reduction on %s: %.1f%% "
        "(%zu -> %zu nodes, %zu reorders)\n",
        study.label, 100.0 * (before - after) / before, fixed->peakLiveNodes,
        sifted->peakLiveNodes, sifted->reorderRuns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const Study& study : kStudies) {
    for (const Mode& mode : kModes) {
      benchmark::RegisterBenchmark(
          pointLabel(study, mode.name).c_str(),
          [&study, &mode](benchmark::State& st) { runPoint(st, study, mode); })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printSummary();
  return bench::writeBenchJson("ablation_encoding") ? 0 : 1;
}
