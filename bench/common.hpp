// The one harness of the benchmark binaries.
//
// A synthesis bench runs one synthesis per parameter point under
// google-benchmark (a single timed iteration — synthesis is deterministic
// and far beyond microbenchmark noise) and records the point once, with
// its full core::SynthesisStats. Everything it prints afterwards — the
// figure-shaped tables: the time split (ranking / SCC detection / total,
// Figures 6/8/10) and the space metrics in BDD nodes (average SCC size /
// total program size, Figures 7/9/11) — is read from those records, and
// so is the machine-readable BENCH_<name>.json document, whose `stats`
// objects are written by SynthesisStats::writeJson exactly as the CLI's
// --stats-json writes them (see docs/observability.md).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

namespace stsyn::bench {

struct RunRecord {
  std::string label;
  double x = 0;  ///< the sweep parameter (#processes or |D|), never a result
  bool success = false;
  std::string note;  ///< failure diagnosis for unsuccessful runs
  core::SynthesisStats stats;
};

inline std::vector<RunRecord>& records() {
  static std::vector<RunRecord> all;
  return all;
}

/// Upserts the record of one (label, x) parameter point; the last run
/// wins. google-benchmark may execute the timed loop more than once
/// (--benchmark_repetitions); a plain push_back from inside the loop
/// would duplicate every row.
inline void recordPoint(RunRecord r) {
  for (RunRecord& existing : records()) {
    if (existing.label == r.label && existing.x == r.x) {
      existing = std::move(r);
      return;
    }
  }
  records().push_back(std::move(r));
}

inline void attachCounters(benchmark::State& state,
                           const core::SynthesisStats& s, bool success) {
  state.counters["success"] = success ? 1 : 0;
  state.counters["ranking_s"] = s.rankingSeconds;
  state.counters["scc_s"] = s.sccSeconds;
  state.counters["total_s"] = s.totalSeconds;
  state.counters["M"] = static_cast<double>(s.rankCount);
  state.counters["program_nodes"] = static_cast<double>(s.programNodes);
  state.counters["avg_scc_nodes"] = s.avgSccNodes();
  state.counters["peak_nodes"] = static_cast<double>(s.peakLiveNodes);
  state.counters["pass"] = s.passCompleted;
}

/// Prints the two tables a time/space figure pair reports.
inline void printFigurePair(const char* sweepName, const char* timeTitle,
                            const char* spaceTitle) {
  util::Table time({sweepName, "ranking_s", "scc_detection_s", "total_s",
                    "pass", "outcome"});
  util::Table space({sweepName, "avg_scc_size_nodes", "program_size_nodes",
                     "peak_live_nodes", "M"});
  for (const RunRecord& r : records()) {
    time.addRow({util::Table::cell(r.x),
                 util::Table::cell(r.stats.rankingSeconds),
                 util::Table::cell(r.stats.sccSeconds),
                 util::Table::cell(r.stats.totalSeconds),
                 util::Table::cell(static_cast<std::size_t>(
                     r.stats.passCompleted)),
                 r.success ? "ok" : (r.note.empty() ? "FAILED" : r.note)});
    space.addRow({util::Table::cell(r.x),
                  util::Table::cell(r.stats.avgSccNodes()),
                  util::Table::cell(r.stats.programNodes),
                  util::Table::cell(r.stats.peakLiveNodes),
                  util::Table::cell(r.stats.rankCount)});
  }
  std::printf("\n=== %s ===\n", timeTitle);
  time.printAligned(std::cout);
  std::printf("\n=== %s ===\n", spaceTitle);
  space.printAligned(std::cout);
  std::printf("\nCSV (time):\n");
  time.printCsv(std::cout);
  std::printf("CSV (space):\n");
  space.printCsv(std::cout);
}

/// Path of the bench's JSON trajectory file: BENCH_<name>.json in the
/// current directory, or under $STSYN_BENCH_DIR when set.
inline std::string benchJsonPath(const char* name) {
  const char* dir = std::getenv("STSYN_BENCH_DIR");
  std::string path = dir != nullptr ? std::string(dir) + "/" : std::string();
  return path + "BENCH_" + name + ".json";
}

/// Writes BENCH_<name>.json: the envelope {schema_version, bench,
/// records: [...]} around the `count` array elements `writeRecords`
/// emits. Returns false when the file could not be written.
inline bool writeBenchDocument(
    const char* name, std::size_t count,
    const std::function<void(obs::JsonWriter&)>& writeRecords) {
  const std::string path = benchJsonPath(name);
  std::ofstream out(path);
  obs::JsonWriter w(out);
  w.beginObject();
  w.field("schema_version", core::kStatsJsonSchemaVersion);
  w.field("bench", name);
  w.key("records");
  w.beginArray();
  writeRecords(w);
  w.endArray();
  w.endObject();
  out << '\n';
  if (!out.good()) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s (%zu records)\n", path.c_str(), count);
  return true;
}

/// Writes every recorded parameter point — {label, x, success, note,
/// stats} — as BENCH_<name>.json, the trajectory CI's bench-smoke job
/// validates against the CLI's stats document.
inline bool writeBenchJson(const char* name) {
  return writeBenchDocument(
      name, records().size(), [](obs::JsonWriter& w) {
        for (const RunRecord& r : records()) {
          w.beginObject();
          w.field("label", r.label);
          w.field("x", r.x);
          w.field("success", r.success);
          w.field("note", r.note);
          w.key("stats");
          r.stats.writeJson(w);
          w.endObject();
        }
      });
}

}  // namespace stsyn::bench
